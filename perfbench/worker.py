"""Run one workload's rounds through `coughrank.cli.main` and check them.

Started by `run.py` in a fresh process with the checkout's `src` on
PYTHONPATH. It imports `coughrank.cli`, then runs whole
rounds of the workload's commands until `--seconds` have passed, and
checks the outputs against the oracles in `oracles.py`. The result,
with `correct`, `attempted`, `failed`, `metrics` and `environment`, is
written as JSON to `--result`.

With `--trace 1` the first round runs untraced and the rest under the
`spans.Tracer`; the per-layer metrics are the medians over the traced rounds.
"""

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import oracles
from spans import METRICS, Tracer

AUC_FLOOR = 0.7
TRAIN_TOPSIS_RTOL = 1e-6
# features.csv: sample_id, label, then 40 MFCC, 128 mel, 12 chroma, 13 more
ROW_WIDTH = 2 + 193
MEL_AT = oracles.N_MFCC
CHROMA_AT = oracles.N_MFCC + oracles.N_MELS


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """One workload: `commands()` lists the CLI calls of a round,
    `ops_per_round()` and `failed_ops(codes)` count its operations, and
    `check()` compares the last round's outputs with the oracles."""

    def __init__(self, inputs, out, info):
        self.inputs = Path(inputs)
        self.out = Path(out)
        self.info = info
        self.problems = []
        self.failed_ids = []

    def problem(self, message):
        if len(self.problems) < 20:
            self.problems.append(message)

    def output_files(self):
        return sorted(p for p in self.out.rglob("*") if p.is_file())


class ExtractWavs(Workload):
    """`extract` over the WAV directory; one operation per clip.

    A clip fails when its row is missing or its mel and MFCC blocks
    disagree with the reference computed from the WAV file.
    """

    def __init__(self, *a):
        super().__init__(*a)
        self.clips = self.info["clips"]
        self.features = self.out / "features.csv"
        self.reference = {}

    def compute_reference(self):
        bank = oracles.mel_filterbank()
        dct = oracles.dct2_ortho(oracles.N_MFCC, oracles.N_MELS)
        for clip in self.clips:
            rate, samples = oracles.read_wav(self.inputs / "wavs" / f"{clip['sample_id']}.wav")
            samples = oracles.to_analysis_rate(rate, samples)
            self.reference[clip["sample_id"]] = oracles.mel_and_mfcc(samples, bank, dct)

    def commands(self):
        return [
            ["extract", str(self.inputs / "wavs"), "--out", str(self.features), "--labels", str(self.inputs / "labels.csv")]
        ]

    def ops_per_round(self):
        return len(self.clips)

    def matches_reference(self, sid, values):
        mel, mfcc = self.reference[sid]
        mel_atol = 1e-12 * max(mel)
        mfcc_atol = 1e-8 * max(abs(mfcc))
        return all(oracles.close(values[k], want, atol=mfcc_atol) for k, want in enumerate(mfcc)) and all(
            oracles.close(values[MEL_AT + m], want, atol=mel_atol) for m, want in enumerate(mel)
        )

    def failed_ops(self, codes):
        if not self.reference:
            self.compute_reference()
        rows = oracles.read_csv(self.features)[1] if codes == [0] and self.features.exists() else []
        values = {r[0]: [float(v) for v in r[2:]] for r in rows if len(r) == ROW_WIDTH}
        self.failed_ids = [
            c["sample_id"]
            for c in self.clips
            if c["sample_id"] not in values or not self.matches_reference(c["sample_id"], values[c["sample_id"]])
        ]
        return len(self.failed_ids)

    def check(self):
        header, rows = oracles.read_csv(self.features)
        if header[:2] != ["sample_id", "label"] or len(header) != ROW_WIDTH:
            self.problem(f"features.csv header has {len(header)} columns, expected sample_id,label + 193")
            return
        labels = {c["sample_id"]: str(c["label"]) for c in self.clips}
        seen = set()
        for row in rows:
            sid = row[0]
            if sid in seen or sid not in labels:
                self.problem(f"{sid}: duplicate row or unknown clip")
            seen.add(sid)
            if len(row) != ROW_WIDTH or not all(math.isfinite(float(v)) for v in row[2:]):
                self.problem(f"{sid}: expected 193 finite values")
            if row[1] != labels.get(sid):
                self.problem(f"{sid}: label {row[1]!r}, labels.csv says {labels.get(sid)!r}")
        vectors = {r[0]: [float(v) for v in r[2:]] for r in rows}
        for clip in self.clips:
            sid, midi = clip["sample_id"], clip["tone_midi"]
            if midi is None or sid in self.failed_ids:
                continue
            chroma = vectors[sid][CHROMA_AT : CHROMA_AT + 12]
            peak = max(range(12), key=chroma.__getitem__)
            if peak != oracles.pitch_class(midi):
                self.problem(f"{sid}: tone {midi} has chroma peak {peak}, expected {oracles.pitch_class(midi)}")


def check_evaluation(workload, reports_path, groups, models):
    """Rows of an evaluation_reports CSV against the eight criteria
    recomputed from the predictions at the 0.5 cutoff."""
    header, rows = oracles.read_csv(reports_path)
    by_model = {r[0]: r for r in rows}
    strategy = reports_path.stem.rsplit("strategy", 1)[1]
    for model in models:
        row = by_model.get(model)
        if row is None:
            workload.problem(f"{reports_path.name}: no row for {model}")
            continue
        _, labels, scores = groups[(model, strategy)]
        want = oracles.eight_criteria(labels, scores)
        for name in oracles.CRITERIA:
            got = float(row[header.index(name)])
            if not oracles.close(got, want[name], atol=1e-12):
                workload.problem(f"{reports_path.name} {model} {name} = {got!r}, reference {want[name]!r}")


def check_ranking(workload, matrices, rank_dir, rtol):
    """Entropy weights, TOPSIS closeness and both ensemble winners against
    the oracles, computed from the decision matrices as written."""
    columns, models = [], None
    for k, path in enumerate(matrices, start=1):
        header, rows = oracles.read_csv(path)
        rows.sort(key=lambda r: r[0])
        names = [r[0] for r in rows]
        if models is None:
            models = names
        values = [[float(v) for v in r[1:]] for r in rows]
        weights = oracles.entropy_weights(values)
        cost = [name in oracles.COST for name in header[1:]]
        columns.append(oracles.topsis_closeness(values, weights, cost))
        _, wrows = oracles.read_csv(rank_dir / f"weights_strategy{k}.csv")
        for (criterion, got), want in zip(wrows, weights):
            if not oracles.close(float(got), want, rtol=rtol, atol=1e-12):
                workload.problem(f"weights_strategy{k} {criterion} = {got}, reference {want!r}")
    _, crows = oracles.read_csv(rank_dir / "closeness.csv")
    got = {(r[0], r[1]): float(r[2]) for r in crows}
    for k, column in enumerate(columns, start=1):
        for model, want in zip(models, column):
            value = got.get((model, str(k)))
            if value is None or not oracles.close(value, want, rtol=rtol):
                workload.problem(f"closeness {model} strategy {k} = {value!r}, reference {want!r}")
    soft, hard, winners = oracles.ensemble(models, columns)
    _, erows = oracles.read_csv(rank_dir / "ensemble_report.csv")
    got = {r[0]: (float(r[1]), int(r[3])) for r in erows}
    for model, soft_want, hard_want in zip(models, soft, hard):
        soft_got, hard_got = got.get(model, (None, None))
        if soft_got is None or not oracles.close(soft_got, soft_want, rtol=rtol) or hard_got != hard_want:
            workload.problem(f"ensemble {model}: soft {soft_got}, hard {hard_got}; reference {soft_want!r}, {hard_want}")
    report = json.loads((rank_dir / "report.json").read_text())["ensemble"]
    if (report["soft_best"], report["hard_best"]) != winners:
        workload.problem(f"ensemble winners {report['soft_best']}/{report['hard_best']}, reference {winners}")


class RankingWorkload(Workload):
    """A workload that ends in a ranking; one operation per (model,
    strategy) cell, which fails when a command exits non-zero or the cell
    is missing from closeness.csv."""

    rank_dir = None

    def ops_per_round(self):
        return len(self.models) * 3

    def failed_ops(self, codes):
        path = self.rank_dir / "closeness.csv"
        if any(code != 0 for code in codes) or not path.exists():
            return self.ops_per_round()
        cells = {(r[0], r[1]) for r in oracles.read_csv(path)[1]}
        return sum(1 for m in self.models for s in "123" if (m, s) not in cells)


class TrainRank(RankingWorkload):
    """`pipeline --external`: trains k-NN and logistic regression under the
    three strategies and ranks them with the external models."""

    def __init__(self, *a):
        super().__init__(*a)
        self.models = ["knn", "logreg"] + self.info["external_models"]
        self.rank_dir = self.out

    def commands(self):
        features, external = self.inputs / "features.csv", self.inputs / "external.csv"
        return [["pipeline", str(features), "--external", str(external), "--out", str(self.out)]]

    def check(self):
        _, rows = oracles.read_csv(self.inputs / "features.csv")
        truth = {r[0]: int(r[1]) for r in rows}
        predictions = oracles.read_predictions(self.out / "predictions.csv")
        for model in ("knn", "logreg"):
            for strategy in "123":
                ids, labels, scores = predictions.get((model, strategy), ([], [], []))
                if sorted(ids) != sorted(truth) or len(set(ids)) != len(ids):
                    self.problem(f"{model} strategy {strategy}: does not cover every sample once")
                    continue
                if any(truth[i] != y for i, y in zip(ids, labels)):
                    self.problem(f"{model} strategy {strategy}: labels differ from features.csv")
                auc = oracles.pairwise_auc(labels, scores)
                if auc <= AUC_FLOOR:
                    self.problem(f"{model} strategy {strategy}: AUC {auc:.3f} not above {AUC_FLOOR}")
        external = oracles.read_predictions(self.inputs / "external.csv")
        for strategy in "123":
            reports = self.out / f"evaluation_reports_strategy{strategy}.csv"
            check_evaluation(self, reports, external, self.info["external_models"])
        # pipeline ranks the unrounded matrices; the written ones carry
        # 9 significant digits, hence the looser tolerance
        matrices = [self.out / f"decision_matrix_strategy{s}.csv" for s in "123"]
        check_ranking(self, matrices, self.out, TRAIN_TOPSIS_RTOL)


class ScoreRank(RankingWorkload):
    """`evaluate` on the predictions, then `rank` on the three matrices it
    writes."""

    def __init__(self, *a):
        super().__init__(*a)
        self.models = self.info["models"]
        self.eval_dir = self.out / "evaluate"
        self.rank_dir = self.out / "rank"

    def matrices(self):
        return [self.eval_dir / f"decision_matrix_strategy{s}.csv" for s in "123"]

    def commands(self):
        return [
            ["evaluate", str(self.inputs / "predictions.csv"), "--out", str(self.eval_dir)],
            ["rank"] + [str(p) for p in self.matrices()] + ["--out", str(self.rank_dir)],
        ]

    def check(self):
        groups = oracles.read_predictions(self.inputs / "predictions.csv")
        for strategy in "123":
            reports = self.eval_dir / f"evaluation_reports_strategy{strategy}.csv"
            check_evaluation(self, reports, groups, self.models)
        check_ranking(self, self.matrices(), self.rank_dir, rtol=1e-8)


WORKLOADS = {"extract_wavs": ExtractWavs, "train_rank": TrainRank, "score_rank": ScoreRank}


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_round(cli, workload, tracer=None):
    """Run one round; returns (wall seconds, exit codes, per-layer values)."""
    gc.collect()
    if tracer:
        tracer.reset()
    codes = []
    start = time.perf_counter()
    for argv in workload.commands():
        codes.append(cli.main(argv))
    wall = time.perf_counter() - start
    return wall, codes, (tracer.round_metrics(wall) if tracer else None)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    import coughrank.cli as cli

    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"coughrank was imported from {cli.__file__}, not from {src}")

    info = json.loads((Path(args.inputs) / "inputs.json").read_text())
    workload = WORKLOADS[args.workload](args.inputs, args.out, info)
    tracer = Tracer() if args.trace else None

    untraced = run_round(cli, workload) if tracer else None
    if tracer:
        tracer.install()
    rounds, digests = [], []
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < args.seconds:
        rounds.append(run_round(cli, workload, tracer))
        digests.append({str(p.relative_to(workload.out)): sha256(p) for p in workload.output_files()})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    # every round runs the same commands on the same inputs, so one
    # round's outcome stands for all of them once they agree
    codes = [codes for _, codes, _ in rounds] + ([untraced[1]] if untraced else [])
    if any(c != codes[0] for c in codes) or any(d != digests[0] for d in digests):
        workload.problem("rounds differ in exit codes or outputs")
    attempted = len(codes) * workload.ops_per_round()
    failed = len(codes) * workload.failed_ops(codes[0])
    if all(code == 0 for code in codes[0]):
        workload.check()
    walls = [wall for wall, _, _ in rounds]
    layer_rounds = [layers for _, _, layers in rounds]
    wall_s = statistics.median(walls)
    if tracer:
        metrics = {}
        for name, unit in METRICS:
            samples = [r[name] for r in layer_rounds if name in r]
            if samples:
                # counts are the same every round; keep them whole
                median = statistics.median_low if unit in ("count", "B") else statistics.median
                metrics[name] = {"value": median(samples), "unit": unit}
        metrics["trace.overhead_s"] = {"value": wall_s - untraced[0], "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "items_per_s": {"value": info["items"] / wall_s, "unit": "1/s"},
        }
    result = {
        "correct": not workload.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rounds": len(codes),
        "walls": walls,
        "problems": workload.problems,
        "failed_examples": workload.failed_ids[:5],
        "absent": tracer.absent if tracer else [],
        "environment": environment(),
    }
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
