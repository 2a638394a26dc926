"""Command-line orchestration of the extraction/evaluation/ranking pipeline.

Subcommands: extract | evaluate | rank | pipeline | rfecv. All runs are
deterministic: identical inputs, config and seed produce byte-identical
outputs.

Exit codes: 0 success, 1 a defect (any exception but those of 2), 2 an InputError
or OSError, 3 numerical degeneracy (results written, but some metric was flagged).
"""

import argparse
import hashlib
import json
import logging
import os
import sys
from contextlib import contextmanager
from pathlib import Path

# Task pools, not BLAS, take the CPUs: BLAS threads only contend on calls of at
# most about 380 x 194. Set before numpy loads; a value the user has set wins.
# If numpy loaded first and no value was set, BLAS keeps its default threads,
# and the pools run one worker rather than oversubscribe the CPUs.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_THREADED = "numpy" in sys.modules and not any(v in os.environ for v in _BLAS_VARS)
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np

from . import InputError, __version__
from .audio import extract_features, load_and_resample
from .ensemble import RankError, rank
from .learn import DEFAULT_SEED, OUTER_FOLDS, Dataset, StrategyConfig
from .learn import rfecv, run_strategies, stratified_splits
from .metrics import DEFAULT_CRITERIA, METRIC_NAMES, SWEEP_OBJECTIVES
from .metrics import build_decision_matrix, evaluate
from . import tables

log = logging.getLogger("coughrank")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

IN_REPO_MODELS = ("knn", "logreg")
STRATEGIES = (1, 2, 3)

# pipeline --config keys, each with a test of its value and what it asks for
PIPELINE_CONFIG = {
    "smote_k": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "threshold_objective": (lambda v: v in SWEEP_OBJECTIVES, f"one of {SWEEP_OBJECTIVES}"),
}


def read_config(path):
    """Flat `key = value` pipeline config checked against PIPELINE_CONFIG."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    config = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            value = json.loads(value)
        except (json.JSONDecodeError, RecursionError):
            pass
        if key not in PIPELINE_CONFIG:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        if key in config:
            raise InputError(f"{path}:{lineno}: repeated key {key!r}")
        check, wanted = PIPELINE_CONFIG[key]
        if not check(value):
            raise InputError(f"{path}:{lineno}: {key} must be {wanted}")
        config[key] = value
    return config


def _int_in(low, high=None):
    """argparse type: a decimal integer in low .. high (no upper bound if None)."""
    wanted = f"an integer >= {low}" if high is None else f"an integer in {low} .. {high}"

    def parse(text):
        value = int(text) if text.isdecimal() else None
        if value is None or value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value

    return parse


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class _OutDir:
    """An output directory, made if missing, that remembers the name of
    every file this run writes to it through `out_dir / name`."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.written = set()

    def __truediv__(self, name):
        self.written.add(name)
        return self.path / name


def write_manifest(out_dir, config, inputs, seed):
    """run_manifest.json; its artifacts are the CSVs this run wrote to the
    _OutDir `out_dir`, whatever else lies there."""
    manifest = {
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "artifacts": sorted(n for n in out_dir.written if n.endswith(".csv")),
    }
    path = out_dir / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


@contextmanager
def _cpu_pool():
    """A thread pool with one worker per usable CPU (one if BLAS runs its own
    threads); on exit queued tasks are cancelled."""
    from concurrent.futures import ThreadPoolExecutor
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    pool = ThreadPoolExecutor(1 if _BLAS_THREADED else cpus)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_extract(args):
    """The CPU pool featurizes clips; rows and logs follow sorted file order."""
    input_dir = Path(args.input_dir)
    wavs = sorted(p for p in input_dir.glob("*") if p.suffix.lower() == ".wav")
    if not wavs:
        raise InputError(f"no WAV files in {input_dir}")
    by_stem = {}
    for wav in wavs:
        if wav.stem in by_stem:
            raise InputError(
                f"{by_stem[wav.stem]} and {wav} would share the sample_id {wav.stem!r}"
            )
        by_stem[wav.stem] = wav
    labels = tables.read_labels(args.labels, by_stem) if args.labels else {}

    def featurize(wav):  # the vector, or the message of the error that skips the file
        try:
            return extract_features(load_and_resample(wav)).concat()
        except (InputError, OSError) as exc:
            # an OSError's full text names the file again
            return str(getattr(exc, "strerror", None) or exc)
    rows, failures = [], 0
    with _cpu_pool() as pool:
        for wav, result in zip(wavs, pool.map(featurize, wavs)):
            if isinstance(result, str):
                log.warning("skipping %s: %s", wav, result)
                failures += 1
            else:
                rows.append((wav.stem, labels.get(wav.stem), result))
    if not rows:
        raise InputError("all input files failed to decode")
    tables.write_features(args.out, rows)
    log.info("wrote %d feature rows to %s (%d failures)", len(rows), args.out, failures)
    return EXIT_OK


def _write_matrices(out_dir, sourced_sets, criteria):
    """Group prediction sets by strategy, build one matrix per strategy, its
    models in name order, and write criteria.csv plus each strategy's matrix
    and evaluation reports.

    `sourced_sets` pairs each PredictionSet with the file it came from.
    """
    by_strategy = {}
    for source, ps in sourced_sets:
        by_strategy.setdefault(ps.strategy_id, {})[ps.model_name] = (source, ps)
    matrices, reports, degenerate = {}, {}, False
    for strategy in sorted(by_strategy):
        group = by_strategy[strategy]
        if len(group) < 2:
            [(source, _)] = group.values()
            raise InputError(f"{source}: strategy {strategy}: need at least 2 models, got 1")
        strategy_reports = {}
        for model, (source, ps) in sorted(group.items()):
            try:
                strategy_reports[model] = evaluate(ps)
            except ValueError as exc:
                raise InputError(
                    f"{source}: model {model!r} in strategy {strategy}: {exc}"
                ) from exc
        degenerate = degenerate or any(
            r.degenerate for r in strategy_reports.values()
        )
        matrices[strategy] = build_decision_matrix(strategy_reports, criteria)
        reports[strategy] = strategy_reports
    tables.write_criteria(out_dir / "criteria.csv", criteria)
    for strategy, dm in matrices.items():
        tables.write_decision_matrix(
            out_dir / f"decision_matrix_strategy{strategy}.csv", dm
        )
        tables.write_evaluation_reports(
            out_dir / f"evaluation_reports_strategy{strategy}.csv", reports[strategy]
        )
    return matrices, degenerate


def cmd_evaluate(args):
    if not args.predictions and not args.matrix:
        raise InputError("evaluate: a predictions file or --matrix is required")
    if args.predictions and args.matrix:
        raise InputError(f"evaluate: give {args.predictions} or --matrix {args.matrix}, not both")
    out_dir = _OutDir(args.out)
    criteria = (
        tables.read_criteria(args.criteria) if args.criteria else list(DEFAULT_CRITERIA)
    )
    if args.matrix:
        # passthrough validation of an externally assembled matrix
        dm = tables.read_decision_matrix(args.matrix, criteria)
        tables.write_decision_matrix(out_dir / Path(args.matrix).name, dm)
        tables.write_criteria(out_dir / "criteria.csv", criteria)
        return EXIT_OK
    if not 0.0 < args.threshold < 1.0:
        raise InputError("--threshold must lie in (0, 1)")
    if unknown := [c.name for c in criteria if c.name not in METRIC_NAMES]:
        raise InputError(f"{args.criteria}: {unknown[0]!r} is not one of {METRIC_NAMES}")
    prediction_sets = tables.read_predictions(args.predictions, threshold=args.threshold)
    if not prediction_sets:
        raise InputError(f"{args.predictions}: no prediction rows")
    first = {}  # each strategy's first group in model-name order
    for ps in sorted(prediction_sets, key=lambda ps: (ps.strategy_id, ps.model_name)):
        ref = first.setdefault(ps.strategy_id, ps)
        name = f"model {ref.model_name!r}"
        tables.check_samples(args.predictions, ps, ref.id_codes, ref.true_labels, name)
    _, degenerate = _write_matrices(
        out_dir, [(args.predictions, ps) for ps in prediction_sets], criteria
    )
    return EXIT_DEGENERATE if degenerate else EXIT_OK


def _rounded(keys, values):
    """{key: value} with each value cut to the 9 digits the CSVs carry."""
    return {k: float(tables.fmt(v)) for k, v in zip(keys, values)}


def _rank_and_report(out_dir, matrices, sources, config, inputs, seed, degenerate):
    """Rank `matrices`, write every ranking CSV, run_manifest.json and
    report.json, print both verdicts and return the exit code; `sources`
    names each strategy id in errors."""
    try:
        ranking = rank(matrices)
    except RankError as exc:
        raise InputError(f"{sources[exc.strategy]}: {exc}") from exc
    ct, ens = ranking.closeness, ranking.ensemble
    weights = {}
    for s, dm in ranking.matrices.items():
        wv, res = ranking.weights[s], ranking.topsis[s]
        tables.write_weights(out_dir / f"weights_strategy{s}.csv", dm.criteria, wv)
        tables.write_topsis_report(out_dir / f"topsis_report_strategy{s}.csv", dm, res)
        weights[s] = _rounded([c.name for c in dm.criteria], wv.weights)
    tables.write_closeness(out_dir / "closeness.csv", ct)
    tables.write_ensemble_report(out_dir / "ensemble_report.csv", ens)
    report = {
        "weights": weights,
        "topsis": {s: _rounded(ct.models, c) for s, c in zip(ct.strategies, ct.closeness.T)},
        "ensemble": {
            "soft_best": ens.soft_best,
            "hard_best": ens.hard_best,
            "soft_scores": _rounded(ct.models, ens.soft_scores),
            "hard_totals": dict(zip(ct.models, ens.hard_totals.tolist())),
            "hard_points": dict(zip(ct.models, ens.hard_points.tolist())),
        },
        "manifest": write_manifest(out_dir, config, inputs, seed),
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"soft ensemble best model: {ens.soft_best}")
    print(f"hard ensemble best model: {ens.hard_best}")
    return EXIT_DEGENERATE if degenerate or ranking.degenerate else EXIT_OK


def cmd_rank(args):
    out_dir = _OutDir(args.out)
    criteria = (
        tables.read_criteria(args.criteria) if args.criteria else list(DEFAULT_CRITERIA)
    )
    sources = {str(i): path for i, path in enumerate(args.matrices, start=1)}
    matrices = {k: tables.read_decision_matrix(p, criteria) for k, p in sources.items()}
    inputs = [*args.matrices, args.criteria] if args.criteria else args.matrices
    return _rank_and_report(out_dir, matrices, sources, {}, inputs, None, False)


def _load_dataset(features_csv, folds):
    """Labelled features with at least `folds` members of each class."""
    ids, labels, matrix = tables.read_features(features_csv)
    if labels is None:
        raise InputError(f"{features_csv}: label column required for training")
    labels = np.array(labels)
    for cls in (0, 1):
        count = int(np.sum(labels == cls))
        if count < folds:
            raise InputError(
                f"{features_csv}: class {cls} has {count} members; "
                f"{folds}-fold cross-validation needs at least {folds}"
            )
    return Dataset(features=matrix, labels=labels, sample_ids=ids)


def _check_smote_k(ds, smote_k, seed, config_path):
    """SMOTE needs more than smote_k minority rows in each imbalanced outer
    training fold of run_strategies (as the default 5 always has here)."""
    splits = stratified_splits(ds.labels, OUTER_FOLDS, seed)
    folds = [np.bincount(ds.labels[tr], minlength=2) for tr, _ in splits]
    count, cls = min([(c.min(), c.argmin()) for c in folds if c[0] != c[1]], default=(np.inf, 0))
    if count <= smote_k:
        raise InputError(
            f"{config_path}: smote_k = {smote_k} needs more than {smote_k} minority "
            f"rows per training fold; class {cls} has {count} in its smallest"
        )


def _read_external(path, features_csv, ds):
    """External prediction sets; none may take an in-repo model's place, each
    must cover exactly the ids of features.csv with their labels there, and
    each model must come in exactly strategies 1, 2 and 3."""
    in_repo = {str(s) for s in STRATEGIES}
    prediction_sets = tables.read_predictions(path, first_ids=ds.sample_ids)
    ref_codes = np.arange(len(ds.sample_ids))  # code i is ds.sample_ids[i]
    for ps in prediction_sets:
        if ps.model_name in IN_REPO_MODELS and ps.strategy_id in in_repo:
            raise InputError(
                f"{path}: external model {ps.model_name!r} in strategy "
                f"{ps.strategy_id} clashes with the in-repo model of that name"
            )
        tables.check_samples(path, ps, ref_codes, ds.labels, features_csv)
    for model in dict.fromkeys(ps.model_name for ps in prediction_sets):
        found = {ps.strategy_id for ps in prediction_sets if ps.model_name == model}
        odd = sorted(found ^ in_repo)
        if odd:
            raise InputError(
                f"{path}: external model {model!r} {'has' if odd[0] in found else 'lacks'} "
                f"strategy {odd[0]}; each needs exactly strategies 1, 2 and 3"
            )
    return prediction_sets


def cmd_pipeline(args):
    out_dir = _OutDir(args.out)
    config = read_config(args.config) if args.config else {}
    smote_k = config.get("smote_k", 5)
    objective = config.get("threshold_objective", "f1")
    ds = _load_dataset(args.features, OUTER_FOLDS)
    if "smote_k" in config:
        _check_smote_k(ds, smote_k, args.seed, args.config)
    external = _read_external(args.external, args.features, ds) if args.external else []
    cells = [
        (model, StrategyConfig.standard(strategy_id))
        for strategy_id in STRATEGIES
        for model in IN_REPO_MODELS
    ]
    log.info("training %d (strategy, model) cells", len(cells))
    try:
        with _cpu_pool() as pool:
            prediction_sets = run_strategies(ds, cells, args.seed, smote_k, objective, pool.map)
    except InputError as exc:  # the objective is undefined on these data
        raise InputError(f"{args.features}: {exc}") from exc
    tables.write_predictions(out_dir / "predictions.csv", prediction_sets)
    sourced = [(args.features, ps) for ps in prediction_sets]
    sourced += [(args.external, ps) for ps in external]
    matrices, degenerate = _write_matrices(out_dir, sourced, list(DEFAULT_CRITERIA))
    sources = {s: f"strategy {s}" for s in matrices}
    inputs = [p for p in (args.features, args.external, args.config) if p]
    config = {"smote_k": smote_k, "threshold_objective": objective}
    return _rank_and_report(out_dir, matrices, sources, config, inputs, args.seed, degenerate)


def cmd_rfecv(args):
    ds = _load_dataset(args.features, args.folds)
    mask, curve = rfecv(ds, step=args.step, k_folds=args.folds, seed=args.seed)
    tables.write_rfecv_curve(args.out, curve)
    selected = [name for name, keep in zip(tables.FEATURE_COLUMNS, mask) if keep]
    print(f"selected {int(mask.sum())} features")
    for name in selected:
        print(name)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="coughrank",
        description="Extract cough audio features, score classifier predictions "
        "and select the best model by entropy-weighted TOPSIS with "
        "soft/hard ensembling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract 193-dim features from WAV files")
    p.add_argument("input_dir")
    p.add_argument("--out", required=True, help="output features.csv")
    p.add_argument("--labels", help="optional labels.csv (sample_id,label)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="build decision matrices from predictions")
    p.add_argument("predictions", nargs="?", help="predictions.csv")
    p.add_argument("--matrix", help="validate an existing decision_matrix.csv instead")
    p.add_argument("--criteria", help="criteria.csv (default: the standard 8)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="entropy weights + TOPSIS + ensembles")
    p.add_argument("matrices", nargs="+", help="decision_matrix.csv files")
    p.add_argument("--criteria", help="criteria.csv (default: the standard 8)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("pipeline", help="full run: train, evaluate, rank, ensemble")
    p.add_argument("features", help="features.csv with labels")
    p.add_argument("--external", help="predictions.csv for out-of-repo models")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config")
    p.add_argument("--seed", type=_int_in(0), default=DEFAULT_SEED)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("rfecv", help="recursive feature elimination curve")
    p.add_argument("features", help="features.csv with labels")
    p.add_argument("--step", type=_int_in(1, len(tables.FEATURE_COLUMNS) - 1), default=1)
    p.add_argument("--folds", type=_int_in(2), default=5)
    p.add_argument("--out", required=True, help="output rfecv_curve.csv")
    p.add_argument("--seed", type=_int_in(0), default=DEFAULT_SEED)
    p.set_defaults(func=cmd_rfecv)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        log.exception("internal error: %s", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
