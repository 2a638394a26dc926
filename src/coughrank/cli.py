"""Command-line orchestration of the extraction/evaluation/ranking pipeline.

Subcommands: extract | evaluate | rank | pipeline | rfecv. All runs are
deterministic: identical inputs, config and seed produce byte-identical
outputs.

Exit codes: 0 success, 1 internal error, 2 input/validation error,
3 numerical degeneracy (results written, but some metric was flagged).
"""

import argparse
import csv
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .audio import DEFAULT_SAMPLE_RATE, extract_features, load_and_resample
from .ensemble import ClosenessTable, fuse
from .learn import DEFAULT_SEED, Dataset, StrategyConfig, rfecv, run_strategy
from .mcdm import entropy_weights, topsis
from .metrics import DEFAULT_CRITERIA, build_decision_matrix, evaluate
from . import tables

log = logging.getLogger("coughrank")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_DEGENERATE = 3

IN_REPO_MODELS = ("knn", "logreg")


class InputError(Exception):
    """Invalid input file or option combination (exit code 2)."""


def read_config(path):
    """Flat `key = value` config text; values parse as JSON when possible."""
    config = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        value = value.strip()
        try:
            config[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            config[key.strip()] = value
    return config


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, config, inputs, seed, artifacts):
    manifest = {
        "tool_version": __version__,
        "seed": seed,
        "config": config,
        "input_digests": {str(p): _sha256(p) for p in inputs},
        "artifacts": sorted(Path(a).name for a in artifacts),
    }
    path = Path(out_dir) / "run_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _read_labels_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sample_id", "label"]:
            raise InputError(f"{path}: expected header sample_id,label")
        labels = {}
        for row in reader:
            if len(row) < 2:
                raise InputError(f"{path}:{reader.line_num}: expected sample_id,label")
            labels[row[0]] = 1 if row[1] in ("1", "covid") else 0
    return labels


def cmd_extract(args):
    input_dir = Path(args.input_dir)
    wavs = sorted(input_dir.glob("*.wav"))
    if not wavs:
        raise InputError(f"no WAV files in {input_dir}")
    labels = _read_labels_csv(args.labels) if args.labels else {}
    rows = []
    failures = 0
    for wav in wavs:
        try:
            clip = load_and_resample(wav, target_rate=args.rate)
            vec = extract_features(clip).concat()
        except (ValueError, OSError) as exc:
            log.warning("skipping %s: %s", wav, exc)
            failures += 1
            continue
        rows.append((wav.stem, labels.get(wav.stem), vec))
    if not rows:
        raise InputError("all input files failed to decode")
    tables.write_features(args.out, rows)
    log.info("wrote %d feature rows to %s (%d failures)", len(rows), args.out, failures)
    return EXIT_OK


def _evaluate_groups(prediction_sets, criteria):
    """Group prediction sets by strategy and build one matrix per strategy."""
    by_strategy = {}
    for ps in prediction_sets:
        by_strategy.setdefault(ps.strategy_id, {})[ps.model_name] = ps
    matrices, reports, degenerate = {}, {}, False
    for strategy in sorted(by_strategy):
        group = by_strategy[strategy]
        if len(group) < 2:
            raise InputError(
                f"strategy {strategy}: need at least 2 models, got {len(group)}"
            )
        strategy_reports = {m: evaluate(ps) for m, ps in group.items()}
        degenerate = degenerate or any(
            r.degenerate for r in strategy_reports.values()
        )
        matrices[strategy] = build_decision_matrix(strategy_reports, criteria)
        reports[strategy] = strategy_reports
    return matrices, reports, degenerate


def cmd_evaluate(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    criteria = (
        tables.read_criteria(args.criteria) if args.criteria else list(DEFAULT_CRITERIA)
    )
    if args.matrix:
        # passthrough validation of an externally assembled matrix
        dm = tables.read_decision_matrix(args.matrix, criteria)
        tables.write_decision_matrix(out_dir / Path(args.matrix).name, dm)
        tables.write_criteria(out_dir / "criteria.csv", criteria)
        return EXIT_OK
    prediction_sets = tables.read_predictions(args.predictions, threshold=args.threshold)
    matrices, reports, degenerate = _evaluate_groups(prediction_sets, criteria)
    tables.write_criteria(out_dir / "criteria.csv", criteria)
    for strategy, dm in matrices.items():
        tables.write_decision_matrix(
            out_dir / f"decision_matrix_strategy{strategy}.csv", dm
        )
        tables.write_evaluation_reports(
            out_dir / f"evaluation_reports_strategy{strategy}.csv", reports[strategy]
        )
    return EXIT_DEGENERATE if degenerate else EXIT_OK


def _rank_matrices(matrices, out_dir, tie_eps):
    """Weights + TOPSIS per matrix, ensemble across them.

    `matrices` maps strategy id -> DecisionMatrix with identical model
    sets in identical order.
    """
    strategies = list(matrices)
    model_sets = [tuple(dm.alternatives) for dm in matrices.values()]
    canonical = sorted(model_sets[0])
    for ms in model_sets:
        if sorted(ms) != canonical:
            raise InputError("matrices disagree on the model set")
    models = list(model_sets[0])
    closeness = np.empty((len(models), len(strategies)))
    report_json = {"weights": {}, "topsis": {}}
    degenerate = False
    for j, strategy in enumerate(strategies):
        dm = matrices[strategy]
        wv = entropy_weights(dm)
        result = topsis(dm, wv)
        degenerate = degenerate or result.degenerate
        reorder = [dm.alternatives.index(m) for m in models]
        closeness[:, j] = result.closeness[reorder]
        tables.write_weights(out_dir / f"weights_strategy{strategy}.csv", dm.criteria, wv)
        tables.write_topsis_report(
            out_dir / f"topsis_report_strategy{strategy}.csv", dm, result
        )
        report_json["weights"][strategy] = {
            c.name: wv.weights[k] for k, c in enumerate(dm.criteria)
        }
        report_json["topsis"][strategy] = {
            m: result.closeness[dm.alternatives.index(m)] for m in models
        }
    ct = ClosenessTable(models=models, strategies=strategies, closeness=closeness)
    result = fuse(ct, tie_eps=tie_eps)
    tables.write_closeness(out_dir / "closeness.csv", ct)
    tables.write_ensemble_report(out_dir / "ensemble_report.csv", result)
    report_json["ensemble"] = {
        "soft_best": result.soft_best,
        "hard_best": result.hard_best,
        "soft_scores": dict(zip(models, result.soft_scores)),
        "hard_totals": dict(zip(models, (int(t) for t in result.hard_totals))),
        "hard_points": {
            m: [int(p) for p in result.hard_points[i]] for i, m in enumerate(models)
        },
    }
    return result, report_json, degenerate


def _round_floats(obj):
    if isinstance(obj, float):
        return float(tables.fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_round_floats(v) for v in obj]
    return obj


def _write_report_json(out_dir, report_json, manifest):
    report_json = _round_floats(report_json)
    report_json["manifest"] = manifest
    path = Path(out_dir) / "report.json"
    path.write_text(json.dumps(report_json, indent=2, sort_keys=True) + "\n")


def cmd_rank(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    criteria = (
        tables.read_criteria(args.criteria) if args.criteria else list(DEFAULT_CRITERIA)
    )
    matrices = {}
    for i, path in enumerate(args.matrices, start=1):
        dm = tables.read_decision_matrix(path, criteria)
        # stable order regardless of row order in the file
        reorder = sorted(range(len(dm.alternatives)), key=lambda k: dm.alternatives[k])
        dm.alternatives = [dm.alternatives[k] for k in reorder]
        dm.values = dm.values[reorder]
        matrices[str(i)] = dm
    result, report_json, degenerate = _rank_matrices(matrices, out_dir, args.tie_eps)
    manifest = write_manifest(
        out_dir,
        {"tie_eps": args.tie_eps},
        list(args.matrices) + ([args.criteria] if args.criteria else []),
        args.seed,
        sorted(out_dir.glob("*.csv")),
    )
    _write_report_json(out_dir, report_json, manifest)
    print(f"soft ensemble best model: {result.soft_best}")
    print(f"hard ensemble best model: {result.hard_best}")
    return EXIT_DEGENERATE if degenerate else EXIT_OK


def _load_dataset(features_csv):
    ids, labels, matrix = tables.read_features(features_csv)
    if labels is None:
        raise InputError(f"{features_csv}: label column required for training")
    return Dataset(features=matrix, labels=np.array(labels), sample_ids=ids)


def cmd_pipeline(args):
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = read_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else int(config.get("seed", DEFAULT_SEED))
    smote_k = int(config.get("smote_k", 5))
    objective = config.get("threshold_objective", "f1")
    ds = _load_dataset(args.features)
    prediction_sets = []
    for strategy_id in (1, 2, 3):
        cfg = StrategyConfig.standard(strategy_id)
        for model in IN_REPO_MODELS:
            log.info("strategy %d: training %s", strategy_id, model)
            prediction_sets.append(
                run_strategy(
                    ds,
                    model,
                    cfg,
                    seed=seed,
                    smote_k=smote_k,
                    threshold_objective=objective,
                )
            )
    tables.write_predictions(out_dir / "predictions.csv", prediction_sets)
    if args.external:
        prediction_sets.extend(tables.read_predictions(args.external))
    matrices, reports, degenerate = _evaluate_groups(
        prediction_sets, list(DEFAULT_CRITERIA)
    )
    tables.write_criteria(out_dir / "criteria.csv", list(DEFAULT_CRITERIA))
    for strategy, dm in matrices.items():
        tables.write_decision_matrix(
            out_dir / f"decision_matrix_strategy{strategy}.csv", dm
        )
        tables.write_evaluation_reports(
            out_dir / f"evaluation_reports_strategy{strategy}.csv", reports[strategy]
        )
    result, report_json, rank_degenerate = _rank_matrices(
        matrices, out_dir, args.tie_eps
    )
    degenerate = degenerate or rank_degenerate
    inputs = [args.features] + ([args.external] if args.external else [])
    inputs += [args.config] if args.config else []
    manifest = write_manifest(
        out_dir,
        {"smote_k": smote_k, "threshold_objective": objective, "tie_eps": args.tie_eps},
        inputs,
        seed,
        sorted(out_dir.glob("*.csv")),
    )
    _write_report_json(out_dir, report_json, manifest)
    print(f"soft ensemble best model: {result.soft_best}")
    print(f"hard ensemble best model: {result.hard_best}")
    return EXIT_DEGENERATE if degenerate else EXIT_OK


def cmd_rfecv(args):
    ds = _load_dataset(args.features)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    mask, curve = rfecv(ds, step=args.step, k_folds=args.folds, seed=seed)
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
    p.add_argument("--rate", type=int, default=DEFAULT_SAMPLE_RATE)
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="build decision matrices from predictions")
    p.add_argument("predictions", nargs="?", help="predictions.csv")
    p.add_argument("--matrix", help="validate an existing decision_matrix.csv instead")
    p.add_argument("--criteria", help="criteria.csv (default: the standard 8)")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank", help="entropy weights + TOPSIS + ensembles")
    p.add_argument("matrices", nargs="+", help="decision_matrix.csv files")
    p.add_argument("--criteria", help="criteria.csv (default: the standard 8)")
    p.add_argument("--tie-eps", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("pipeline", help="full run: train, evaluate, rank, ensemble")
    p.add_argument("features", help="features.csv with labels")
    p.add_argument("--external", help="predictions.csv for out-of-repo models")
    p.add_argument("--tie-eps", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("rfecv", help="recursive feature elimination curve")
    p.add_argument("features", help="features.csv with labels")
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--out", required=True, help="output rfecv_curve.csv")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_rfecv)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    if args.command == "evaluate" and not args.predictions and not args.matrix:
        print("evaluate: a predictions file or --matrix is required", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except (InputError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover
        log.exception("internal error: %s", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
