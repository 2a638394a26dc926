"""CSV file formats shared across the pipeline.

All files are comma-separated UTF-8 with LF line endings, a mandatory
header row, '.' decimals, and floats serialized with 9 significant
digits so values round-trip through parse -> serialize unchanged.
"""

import csv
from collections import OrderedDict

import numpy as np

from .audio import FEATURE_COLUMNS
from .metrics import (
    BENEFIT,
    COST,
    CriterionSpec,
    DecisionMatrix,
    METRIC_NAMES,
    PredictionSet,
)


def fmt(x):
    """Serialize a float with 9 significant digits."""
    return format(float(x), ".9g")


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, header row required")
        return header, list(reader)


def write_features(path, rows):
    """features.csv: rows of (sample_id, label or None, 193 features)."""
    header = ["sample_id", "label"] + FEATURE_COLUMNS
    out = []
    for sample_id, label, vec in rows:
        vec = np.asarray(vec)
        if vec.size != len(FEATURE_COLUMNS):
            raise ValueError(f"{sample_id}: expected {len(FEATURE_COLUMNS)} features")
        out.append(
            [sample_id, "" if label is None else int(label)] + [fmt(v) for v in vec]
        )
    _write_rows(path, header, out)


def read_features(path):
    """Parse features.csv into (sample_ids, labels or None, matrix)."""
    header, rows = _read_rows(path)
    expected = ["sample_id", "label"] + FEATURE_COLUMNS
    if header != expected:
        raise ValueError(f"{path}: unexpected header")
    ids, labels, values = [], [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(expected):
            raise ValueError(f"{path}:{lineno}: wrong column count")
        ids.append(row[0])
        labels.append(None if row[1] == "" else int(row[1]))
        values.append([float(v) for v in row[2:]])
    has_labels = all(l is not None for l in labels)
    return ids, (labels if has_labels else None), np.asarray(values)


def write_predictions(path, prediction_sets):
    """predictions.csv: model,strategy,sample_id,true_label,score rows."""
    rows = []
    for ps in prediction_sets:
        for sid, label, score in zip(ps.sample_ids, ps.true_labels, ps.scores):
            rows.append([ps.model_name, ps.strategy_id, sid, int(label), fmt(score)])
    _write_rows(path, ["model", "strategy", "sample_id", "true_label", "score"], rows)


def _first_repeat(rows, model, strategy):
    """Line number and id of the first sample_id seen twice in one group."""
    seen = set()
    for lineno, row in enumerate(rows, start=2):
        if row[0] == model and row[1] == strategy:
            if row[2] in seen:
                return lineno, row[2]
            seen.add(row[2])


def read_predictions(path, threshold=0.5):
    """Parse predictions.csv into PredictionSets grouped by (model, strategy).

    A sample_id may appear once per (model, strategy) group; a repeat is
    reported with the file and line where it recurs.
    """
    header, rows = _read_rows(path)
    if header != ["model", "strategy", "sample_id", "true_label", "score"]:
        raise ValueError(f"{path}: unexpected header")
    groups = OrderedDict()
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 columns")
        try:
            model, strategy, sid = row[0], row[1], row[2]
            label, score = int(row[3]), float(row[4])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        groups.setdefault((model, strategy), []).append((sid, label, score))
    out = []
    for (model, strategy), entries in groups.items():
        sample_ids = [e[0] for e in entries]
        if len(set(sample_ids)) != len(sample_ids):
            lineno, sid = _first_repeat(rows, model, strategy)
            raise ValueError(
                f"{path}:{lineno}: sample_id {sid!r} repeated in model {model!r},"
                f" strategy {strategy}"
            )
        try:
            ps = PredictionSet(
                model_name=model,
                strategy_id=strategy,
                sample_ids=sample_ids,
                true_labels=np.array([e[1] for e in entries]),
                scores=np.array([e[2] for e in entries]),
                threshold=threshold,
            )
        except ValueError as exc:
            raise ValueError(
                f"{path}: model {model!r} in strategy {strategy}: {exc}"
            ) from exc
        out.append(ps)
    return out


def write_criteria(path, criteria):
    """criteria.csv: name,direction sidecar."""
    _write_rows(path, ["name", "direction"], [[c.name, c.direction] for c in criteria])


def read_criteria(path):
    header, rows = _read_rows(path)
    if header != ["name", "direction"]:
        raise ValueError(f"{path}: unexpected header")
    criteria = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 2 or row[1] not in (BENEFIT, COST):
            raise ValueError(f"{path}:{lineno}: malformed criterion row")
        criteria.append(CriterionSpec(row[0], row[1]))
    return criteria


def write_decision_matrix(path, dm):
    """decision_matrix.csv: model column then one column per criterion."""
    header = ["model"] + [c.name for c in dm.criteria]
    rows = [
        [name] + [fmt(v) for v in dm.values[i]]
        for i, name in enumerate(dm.alternatives)
    ]
    _write_rows(path, header, rows)


def read_decision_matrix(path, criteria):
    header, rows = _read_rows(path)
    expected = ["model"] + [c.name for c in criteria]
    if header != expected:
        raise ValueError(f"{path}: header does not match criteria file")
    names, values = [], []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(expected):
            raise ValueError(f"{path}:{lineno}: wrong column count")
        names.append(row[0])
        values.append([float(v) for v in row[1:]])
    return DecisionMatrix(
        alternatives=names, criteria=list(criteria), values=np.asarray(values)
    )


def write_weights(path, criteria, wv):
    _write_rows(
        path,
        ["criterion", "weight"],
        [[c.name, fmt(w)] for c, w in zip(criteria, wv.weights)],
    )


def write_topsis_report(path, dm, result):
    rows = [
        [
            name,
            fmt(result.closeness[i]),
            int(result.ranks[i]),
            fmt(result.s_plus[i]),
            fmt(result.s_minus[i]),
        ]
        for i, name in enumerate(dm.alternatives)
    ]
    _write_rows(path, ["model", "closeness", "rank", "s_plus", "s_minus"], rows)


def write_closeness(path, ct):
    rows = []
    for i, model in enumerate(ct.models):
        for j, strategy in enumerate(ct.strategies):
            rows.append([model, strategy, fmt(ct.closeness[i, j])])
    _write_rows(path, ["model", "strategy", "closeness"], rows)


def write_ensemble_report(path, result):
    rows = [
        [
            model,
            fmt(result.soft_scores[i]),
            int(result.soft_ranks[i]),
            int(result.hard_totals[i]),
            int(result.hard_ranks[i]),
        ]
        for i, model in enumerate(result.models)
    ]
    _write_rows(
        path, ["model", "soft_score", "soft_rank", "hard_total", "hard_rank"], rows
    )


def write_rfecv_curve(path, curve):
    _write_rows(
        path, ["n_features", "mean_auc"], [[n, fmt(a)] for n, a in curve]
    )


def write_evaluation_reports(path, reports):
    """Per-model metric reports; `reports` maps model -> EvaluationReport."""
    header = ["model"] + list(METRIC_NAMES) + ["degenerate"]
    rows = [
        [model] + [fmt(v) for v in rep.as_dict().values()] + [";".join(rep.degenerate)]
        for model, rep in reports.items()
    ]
    _write_rows(path, header, rows)
