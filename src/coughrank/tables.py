"""CSV file formats shared across the pipeline.

All files are comma-separated UTF-8 with LF line endings, a mandatory
header row, '.' decimals, and floats serialized with 9 significant
digits so values round-trip through parse -> serialize unchanged.
"""

import csv
import math
from collections import defaultdict
from contextlib import contextmanager
from itertools import islice

import numpy as np

from . import InputError
from .audio import FEATURE_COLUMNS
from .metrics import (
    BENEFIT,
    COST,
    CriterionSpec,
    DecisionMatrix,
    METRIC_NAMES,
    PredictionSet,
)

FEATURES_HEADER = ["sample_id", "label"] + FEATURE_COLUMNS
PREDICTIONS_HEADER = ["model", "strategy", "sample_id", "true_label", "score"]

# labels.csv vocabulary, matched case-insensitively
LABEL_VALUES = {"1": 1, "covid": 1, "positive": 1, "0": 0, "non-covid": 0, "negative": 0}


def fmt(x):
    """Serialize a float with 9 significant digits."""
    return format(float(x), ".9g")


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def _reader(path, header):
    """A csv.reader past the header row; a wrong header, or text in the file that is
    not CSV (naming the line) or not UTF-8, raises InputError naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != header:
                shown = header if len(header) < 10 else header[:2] + ["..."]
                raise InputError(
                    f"{path}: expected the {len(header)}-column header {','.join(shown)}"
                )
            yield reader
        except csv.Error as exc:
            raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _rows(path, header):
    """Yield (line number, row) for each row, one held at a time; a row
    without len(header) columns raises InputError naming its file and line."""
    with _reader(path, header) as reader:
        for row in reader:
            if len(row) != len(header):
                raise InputError(f"{path}:{reader.line_num}: expected {len(header)} columns")
            yield reader.line_num, row


def _unique_rows(path, header, key):
    """_rows, with an InputError at the first row whose first field, its `key`, recurs."""
    seen = set()
    for lineno, row in _rows(path, header):
        if row[0] in seen:
            raise InputError(f"{path}:{lineno}: repeated {key} {row[0]!r}")
        seen.add(row[0])
        yield lineno, row


def _finite_floats(path, lineno, fields, what):
    """`fields` as finite floats, or an InputError naming the file and line."""
    try:
        values = [float(v) for v in fields]
    except ValueError as exc:
        raise InputError(f"{path}:{lineno}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise InputError(f"{path}:{lineno}: {what} must be finite")
    return values


def read_labels(path, sample_ids):
    """labels.csv: the label of each of `sample_ids`.

    Each id needs a row, and each row an id; a row may not repeat an id.
    """
    labels = {}
    for lineno, (sid, value) in _unique_rows(path, ["sample_id", "label"], "sample_id"):
        label = LABEL_VALUES.get(value.lower())
        if label is None:
            raise InputError(
                f"{path}:{lineno}: unknown label {value!r}, expected "
                "1/covid/positive or 0/non-covid/negative"
            )
        if sid not in sample_ids:
            raise InputError(f"{path}:{lineno}: no WAV file for sample_id {sid!r}")
        labels[sid] = label
    for sid in sample_ids:
        if sid not in labels:
            raise InputError(f"{path}: no row for sample_id {sid!r}")
    return labels


def write_features(path, rows):
    """features.csv: rows of (sample_id, label or None, 193 features)."""
    out = []
    for sample_id, label, vec in rows:
        vec = np.asarray(vec)
        if vec.size != len(FEATURE_COLUMNS):
            raise ValueError(f"{sample_id}: expected {len(FEATURE_COLUMNS)} features")
        out.append(
            [sample_id, "" if label is None else int(label)] + [fmt(v) for v in vec]
        )
    _write_rows(path, FEATURES_HEADER, out)


def read_features(path):
    """Parse features.csv into (sample_ids, labels or None, matrix).

    Each sample_id may appear once, the labels are all 0 or 1 or all empty, and
    each feature is finite; the first row that breaks a rule names its file and line.
    """
    ids, labels, values = [], [], []
    for lineno, row in _unique_rows(path, FEATURES_HEADER, "sample_id"):
        ids.append(row[0])
        if row[1] not in ("", "0", "1"):
            raise InputError(f"{path}:{lineno}: label must be 0 or 1, got {row[1]!r}")
        if labels and (labels[0] is None) != (row[1] == ""):
            wanted = "empty" if labels[0] is None else "0 or 1"
            raise InputError(f"{path}:{lineno}: label must be {wanted}, as in the first row")
        labels.append(None if row[1] == "" else int(row[1]))
        values.append(_finite_floats(path, lineno, row[2:], "features"))
    return ids, (None if labels and labels[0] is None else labels), np.asarray(values)


def write_predictions(path, prediction_sets):
    """predictions.csv: model,strategy,sample_id,true_label,score rows."""
    rows = []
    for ps in prediction_sets:
        for sid, label, score in zip(ps.sample_ids, ps.true_labels, ps.scores):
            rows.append([ps.model_name, ps.strategy_id, sid, int(label), fmt(score)])
    _write_rows(path, PREDICTIONS_HEADER, rows)


_BLOCK = 65536  # rows whose raw label and score strings read_predictions holds


def _group_line(path, model, strategy, index):
    """Line number of the `index`-th row (from 0) of one (model, strategy) group."""
    rows = _rows(path, PREDICTIONS_HEADER)
    lines = (lineno for lineno, row in rows if row[0] == model and row[1] == strategy)
    return next(islice(lines, index, None))


def _convert(path, pending):
    """Append each pending group's block of id codes and label and score strings
    to its runs as arrays; a bad value raises the message of its first row in the file."""
    faults = []
    for (model, strategy), (runs, codes, labels, scores) in pending.items():
        binary = set(labels) <= {"0", "1"}  # then read as bytes, with no int() per label
        try:
            as_int = np.frombuffer("".join(labels).encode("ascii"), np.uint8) - 48 if binary else labels
            run = (np.array(codes, np.int32), np.array(as_int, dtype=int),
                   np.array(scores, dtype=float))
        except (ValueError, OverflowError):
            for i, (label, score) in enumerate(zip(labels, scores)):
                try:
                    if not -(2**63) <= int(label) < 2**63:
                        raise ValueError(f"label {label!r} is outside the int64 range")
                    float(score)
                except ValueError as exc:
                    line = _group_line(path, model, strategy, sum(r[0].size for r in runs) + i)
                    faults.append((line, f"{path}:{line}: {exc}"))
                    break
            else:
                raise
        else:
            runs.append(run)
    if faults:
        raise InputError(min(faults)[1])


def read_predictions(path, threshold=0.5, first_ids=()):
    """Parse predictions.csv into PredictionSets grouped by (model, strategy).

    Groups may come in any order. Per row it keeps an int32 code for the
    sample_id, the same in every group: code i is first_ids[i] for the
    distinct `first_ids`, and each other id takes the next code where it
    first appears. Until each _BLOCK rows become arrays it also keeps the
    label and score strings. A sample_id may appear once per (model, strategy) group; a
    repeat is reported with the file and line where it recurs.
    """
    groups = {}  # (model, strategy) -> runs of (codes, labels, scores) arrays
    # an id's code; a new id takes the next one, as a miss calls the factory before it inserts
    codes = defaultdict(lambda: len(codes), zip(first_ids, range(len(first_ids))))
    with _reader(path, PREDICTIONS_HEADER) as reader:
        pending = True  # until a block reads no row
        while pending:
            pending, cur_model, cur_strategy = {}, None, None
            try:
                for model, strategy, sid, label, score in islice(reader, _BLOCK):
                    if model != cur_model or strategy != cur_strategy:
                        key = cur_model, cur_strategy = model, strategy
                        if key not in pending:
                            pending[key] = (groups.setdefault(key, []), [], [], [])
                        _, ids, labels, scores = pending[key]
                        add_id, add_label, add_score = ids.append, labels.append, scores.append
                    add_id(codes[sid])
                    add_label(label)
                    add_score(score)
            except UnicodeDecodeError:  # a ValueError too; _reader maps it
                raise
            except ValueError:  # the row did not unpack into 5 fields
                raise InputError(f"{path}:{reader.line_num}: expected 5 columns") from None
            finally:
                # also before an error propagates, so an earlier bad value wins
                _convert(path, pending)
    table, out = list(codes), []
    for (model, strategy), runs in groups.items():
        ids, labels, scores = (r[0] if len(r) == 1 else np.concatenate(r) for r in zip(*runs))
        runs.clear()
        if np.bincount(ids).max() > 1:
            order = np.argsort(ids, kind="stable")
            index = order[1:][np.diff(ids[order]) == 0].min()  # the first row to repeat an id
            raise InputError(
                f"{path}:{_group_line(path, model, strategy, index)}: sample_id "
                f"{table[ids[index]]!r} repeated in model {model!r}, strategy {strategy}"
            )
        try:
            out.append(PredictionSet(model, strategy, ids, labels, scores, threshold, table))
        except ValueError as exc:
            raise InputError(f"{path}: model {model!r} in strategy {strategy}: {exc}") from exc
    return out


def check_samples(path, ps, ref_codes, ref_labels, ref_name):
    """Check that the group `ps`, read from `path`, carries exactly the ids
    `ref_codes` (codes into ps.id_table) with the labels `ref_labels`.

    Otherwise an InputError names the group and the first sample_id at fault:
    a row whose id `ref_name` lacks or labels otherwise, with its line, or
    else the first of `ref_codes` the group lacks. `ps` holds no repeats.
    """
    want = np.full(len(ps.id_table), -1)
    want[ref_codes] = ref_labels
    want = want[ps.id_codes]
    group = f"model {ps.model_name!r} in strategy {ps.strategy_id}"
    bad = np.flatnonzero(want != ps.true_labels)
    if bad.size:
        i = bad[0]
        line = _group_line(path, ps.model_name, ps.strategy_id, i)
        there = f"label {want[i]}" if want[i] >= 0 else "no row"
        raise InputError(
            f"{path}:{line}: {group}: sample_id {ps.id_table[ps.id_codes[i]]!r} has label "
            f"{ps.true_labels[i]}, but {ref_name} has {there}"
        )
    if ps.id_codes.size != len(ref_codes):  # no row is foreign or repeated, so some id is missing
        present = np.zeros(len(ps.id_table), dtype=bool)
        present[ps.id_codes] = True
        missing = ref_codes[~present[ref_codes]][0]
        raise InputError(f"{path}: {group}: no row for sample_id {ps.id_table[missing]!r}")


def write_criteria(path, criteria):
    """criteria.csv: name,direction sidecar."""
    _write_rows(path, ["name", "direction"], [[c.name, c.direction] for c in criteria])


def read_criteria(path):
    criteria = []
    for lineno, (name, direction) in _unique_rows(path, ["name", "direction"], "criterion"):
        if direction not in (BENEFIT, COST):
            raise InputError(f"{path}:{lineno}: direction must be {BENEFIT} or {COST}")
        criteria.append(CriterionSpec(name, direction))
    if not criteria:
        raise InputError(f"{path}: no criteria")
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
    """A decision matrix; a repeated model or a non-finite value names its
    file and line, and any other fault its file."""
    names, values = [], []
    for lineno, row in _unique_rows(path, ["model"] + [c.name for c in criteria], "model"):
        names.append(row[0])
        values.append(_finite_floats(path, lineno, row[1:], "decision matrix values"))
    if len(names) < 2:
        raise InputError(f"{path}: a decision matrix needs at least 2 alternatives")
    return DecisionMatrix(names, list(criteria), np.asarray(values))


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
