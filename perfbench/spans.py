"""Per-layer spans and counters, recorded from outside the package.

`Tracer.install()` replaces each public function listed in `TARGETS`
with a timing wrapper at every binding through which coughrank looks it
up: the defining module, every module that imported the name, and
dispatch tables such as `learn._TRAINERS`. `uninstall()` puts the
originals back. A listed function that no longer exists is reported in
`absent` and its metrics are left out.
"""

import os
import sys
import time
from dataclasses import dataclass, field

# layer -> (module, functions traced in it)
TARGETS = {
    "audio": (
        "coughrank.audio",
        (
            "load_and_resample",
            "extract_features",
            "stft_power",
            "mel_filterbank",
            "mfcc",
            "mel_spectrogram_features",
            "chromagram",
            "spectral_contrast",
            "tonal_centroid",
        ),
    ),
    "learn": ("coughrank.learn", ("run_strategy", "predict_knn", "train_logreg", "smote")),
    "metrics": ("coughrank.metrics", ("threshold_sweep", "evaluate", "rank_auc")),
    "mcdm": ("coughrank.mcdm", ("entropy_weights", "topsis")),
    "ensemble": ("coughrank.ensemble", ("fuse",)),
    "tables": (
        "coughrank.tables",
        (
            "read_features",
            "write_features",
            "read_predictions",
            "write_predictions",
            "read_decision_matrix",
            "read_criteria",
            "write_criteria",
            "write_decision_matrix",
            "write_evaluation_reports",
            "write_weights",
            "write_topsis_report",
            "write_closeness",
            "write_ensemble_report",
        ),
    ),
    "cli": ("coughrank.cli", ("write_manifest",)),
}

# The per-layer metrics, as (name, unit). `<layer>.<function>.calls` counts
# calls and `.s` is inclusive seconds, both per round.
METRICS = (
    [("audio.load_and_resample.calls", "count"), ("audio.load_and_resample.s", "s")]
    + [
        ("audio.extract_features.calls", "count"),
        ("audio.extract_features.s", "s"),
        ("audio.extract_features.p50_ms", "ms"),
        ("audio.extract_features.p95_ms", "ms"),
        ("audio.stft_power.calls", "count"),
        ("audio.stft_power.s", "s"),
        ("audio.mel_filterbank.calls", "count"),
    ]
    + [
        (f"audio.{f}.s", "s")
        for f in ("mfcc", "mel_spectrogram_features", "chromagram", "spectral_contrast", "tonal_centroid")
    ]
    + [(f"learn.run_strategy.s{s}_{m}.s", "s") for s in (1, 2, 3) for m in ("knn", "logreg")]
    + [
        ("learn.predict_knn.calls", "count"),
        ("learn.predict_knn.s", "s"),
        ("learn.train_logreg.calls", "count"),
        ("learn.train_logreg.s", "s"),
        ("learn.train_logreg.iters", "count"),
        ("learn.train_logreg.unconverged", "count"),
        ("learn.smote.calls", "count"),
        ("learn.smote.s", "s"),
    ]
    + [(f"metrics.{f}.{k}", u) for f in ("threshold_sweep", "evaluate", "rank_auc") for k, u in (("calls", "count"), ("s", "s"))]
    + [("mcdm.entropy_weights.s", "s"), ("mcdm.topsis.calls", "count"), ("mcdm.topsis.s", "s")]
    + [("ensemble.fuse.s", "s")]
    + [
        (f"tables.{f}.s", "s")
        for f in ("read_features", "write_features", "read_predictions", "write_predictions", "read_decision_matrix")
    ]
    + [("tables.bytes_read", "B"), ("tables.bytes_written", "B")]
    + [("cli.write_manifest.s", "s"), ("cli.self_s", "s"), ("trace.overhead_s", "s")]
)


@dataclass
class Span:
    """Totals of one traced function (or one variant of it) in a round."""

    calls: int = 0
    seconds: float = 0.0
    durations: list = field(default_factory=list)


def _run_strategy_key(args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    model = args[1] if len(args) > 1 else kwargs["model_name"]
    return f"s{cfg.id}_{model}"


class Tracer:
    """Wraps the functions in TARGETS and accumulates spans per round."""

    def __init__(self):
        self.spans = {}
        self.counters = {}
        self.top_level_s = 0.0
        self.absent = []
        self._depth = 0
        self._patches = []

    def reset(self):
        """Start a new round."""
        self.spans = {}
        self.counters = {"iters": 0, "unconverged": 0, "bytes_read": 0, "bytes_written": 0}
        self.top_level_s = 0.0

    def install(self):
        self.reset()
        modules = [m for name, m in sys.modules.items() if name.startswith("coughrank") and m]
        for layer, (module_name, functions) in TARGETS.items():
            module = sys.modules.get(module_name)
            for fname in functions:
                original = getattr(module, fname, None)
                if original is None:
                    self.absent.append(f"{layer}.{fname}")
                    continue
                wrapper = self._wrap(layer, fname, original)
                for mod in modules:
                    self._rebind(mod, original, wrapper)

    def uninstall(self):
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches = []

    def _rebind(self, module, original, wrapper):
        for attr, value in list(vars(module).items()):
            if value is original:
                self._patches.append((module, attr, value))
                setattr(module, attr, wrapper)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if isinstance(item, tuple) and any(x is original for x in item):
                        self._patches.append((value, key, item))
                        value[key] = tuple(wrapper if x is original else x for x in item)

    def _wrap(self, layer, fname, original):
        name = f"{layer}.{fname}"

        def wrapper(*args, **kwargs):
            top = self._depth == 0
            self._depth += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
            key = name
            if fname == "run_strategy":
                key = f"{name}.{_run_strategy_key(args, kwargs)}"
            span = self.spans.setdefault(key, Span())
            span.calls += 1
            span.seconds += elapsed
            if fname == "extract_features":
                span.durations.append(elapsed)
            if fname == "train_logreg":
                self.counters["iters"] += int(result.n_iter)
                self.counters["unconverged"] += int(not result.converged)
            if layer == "tables":
                size = os.path.getsize(args[0])
                self.counters["bytes_read" if fname.startswith("read") else "bytes_written"] += size
            if top and layer != "cli":
                self.top_level_s += elapsed
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def round_metrics(self, wall_s):
        """Metric values of the round just run, keyed as in METRICS; a
        function that ran no call reads 0, an absent one is left out."""
        values = {"cli.self_s": wall_s - self.top_level_s}
        for key, span in self.spans.items():
            values[f"{key}.calls"] = span.calls
            values[f"{key}.s"] = span.seconds
        values["learn.train_logreg.iters"] = self.counters["iters"]
        values["learn.train_logreg.unconverged"] = self.counters["unconverged"]
        values["tables.bytes_read"] = self.counters["bytes_read"]
        values["tables.bytes_written"] = self.counters["bytes_written"]
        skip = {"trace.overhead_s"}
        durations = self.spans.get("audio.extract_features", Span()).durations
        for q in (50, 95):
            name = f"audio.extract_features.p{q}_ms"
            value = tail_percentile(durations, q)
            if value is None:
                skip.add(name)
            else:
                values[name] = 1000.0 * value
        return {
            name: values.get(name, 0)
            for name, _ in METRICS
            if name not in skip and not any(name.startswith(a + ".") for a in self.absent)
        }


def tail_percentile(samples, q):
    """The q-th percentile of samples, or None when fewer than ten samples
    lie beyond it (no samples: 0.0, since nothing was measured)."""
    if not samples:
        return 0.0
    if q > 50 and len(samples) * (100 - q) / 100.0 < 10:
        return None
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
