"""Evaluation criteria for binary classifier outputs.

Turns per-sample scores into the eight-criterion report (accuracy,
AUC, precision, recall, specificity, F1, FPR, FNR) and assembles
decision matrices over a set of models.
"""

from dataclasses import dataclass, field

import numpy as np

METRIC_NAMES = (
    "acc",
    "auc",
    "precision",
    "recall",
    "specificity",
    "f1",
    "fpr",
    "fnr",
)

BENEFIT = "benefit"
COST = "cost"


class PredictionSet:
    """True labels and classifier scores for one (model, strategy).

    The rows' sample ids are held as int32 `id_codes` into `id_table`, a list
    of distinct ids that every set read from one file shares, so the ids of two
    such sets compare as arrays. `sample_ids` decodes them. Without `id_table`,
    `sample_ids` lists each row's id; with it, each row's code.
    """

    def __init__(self, model_name, strategy_id, sample_ids, true_labels, scores,
                 threshold=0.5, id_table=None):
        if id_table is None:
            codes = {}
            sample_ids = [codes.setdefault(sid, len(codes)) for sid in sample_ids]
            id_table = list(codes)
        self.model_name, self.strategy_id, self.threshold = model_name, strategy_id, threshold
        self.id_table, self.id_codes = id_table, np.asarray(sample_ids, dtype=np.int32)
        self.true_labels = np.asarray(true_labels, dtype=int)
        self.scores = np.asarray(scores, dtype=np.float64)
        if not self.true_labels.shape == self.scores.shape == self.id_codes.shape:
            raise ValueError("ids, labels and scores must align")
        if not np.all((self.true_labels == 0) | (self.true_labels == 1)):
            raise ValueError("labels must be binary 0/1")
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")
        if np.any((self.scores < 0) | (self.scores > 1)):
            raise ValueError("scores must lie in [0, 1]")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie in (0, 1)")

    @property
    def sample_ids(self):
        return [self.id_table[c] for c in self.id_codes.tolist()]


@dataclass
class EvaluationReport:
    """The eight criteria of one classifier run.

    `degenerate` lists metrics that hit a 0/0 ratio and were reported
    as 0 instead of NaN.
    """

    acc: float
    auc: float
    precision: float
    recall: float
    specificity: float
    f1: float
    fpr: float
    fnr: float
    degenerate: list = field(default_factory=list)

    def as_dict(self):
        return {name: getattr(self, name) for name in METRIC_NAMES}


@dataclass(frozen=True)
class CriterionSpec:
    """A named criterion and whether larger (benefit) or smaller (cost) wins."""

    name: str
    direction: str

    def __post_init__(self):
        if self.direction not in (BENEFIT, COST):
            raise ValueError("direction must be 'benefit' or 'cost'")


DEFAULT_CRITERIA = tuple(
    CriterionSpec(name, COST if name in ("fpr", "fnr") else BENEFIT)
    for name in METRIC_NAMES
)


@dataclass
class DecisionMatrix:
    """m alternatives x n criteria with per-criterion direction."""

    alternatives: list
    criteria: list
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        m, n = len(self.alternatives), len(self.criteria)
        if self.values.shape != (m, n):
            raise ValueError("values shape must match labels")
        if m < 2:
            raise ValueError("a decision matrix needs at least 2 alternatives")
        if n < 1:
            raise ValueError("a decision matrix needs at least 1 criterion")
        if len(set(self.alternatives)) != m:
            raise ValueError("alternative names must be unique")
        if len(set(c.name for c in self.criteria)) != n:
            raise ValueError("criterion names must be unique")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("decision matrix values must be finite")

    @property
    def cost_mask(self):
        return np.array([c.direction == COST for c in self.criteria])


def confusion_counts(true_labels, scores, threshold):
    """(TP, FP, TN, FN); predicted positive iff score >= threshold."""
    if scores.size == 0:
        raise ValueError("empty prediction set")
    pred_pos = scores >= threshold
    pos = true_labels == 1
    tp = int(np.sum(pred_pos & pos))
    fp = int(np.sum(pred_pos)) - tp
    fn = int(np.sum(pos)) - tp
    return tp, fp, scores.size - tp - fp - fn, fn


def rank_auc(true_labels, scores):
    """ROC-AUC as the Mann-Whitney U, ties counted 1/2 (Fawcett 2006).

    2U is summed as an exact integer from per-score class counts.
    """
    pos, neg = true_labels == 1, true_labels == 0
    n_pos, n_neg = int(np.sum(pos)), int(np.sum(neg))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both classes present")
    levels, level_of = np.unique(scores, return_inverse=True)
    pos_at = np.bincount(level_of[pos], minlength=levels.size)
    neg_at = np.bincount(level_of[neg], minlength=levels.size)
    neg_below = np.cumsum(neg_at) - neg_at
    twice_u = int(np.sum(pos_at * (2 * neg_below + neg_at)))
    return twice_u / (2 * n_pos * n_neg)


def _criteria(tp, fp, tn, fn, auc):
    """The eight criteria of TP, FP, TN, FN and AUC, given as numbers or as
    arrays (one value per cutoff), by the same operations on exact counts;
    and per ratio the mask of its 0/0 cells, which divide 0 by 1 and read 0."""
    degenerate = {}

    def ratio(name, num, den):
        degenerate[name] = den == 0
        return num / (den + degenerate[name])

    precision = ratio("precision", tp, tp + fp)
    recall = ratio("recall", tp, tp + fn)
    specificity = ratio("specificity", tn, tn + fp)
    f1 = ratio("f1", 2 * precision * recall, precision + recall)
    acc = np.divide(tp + tn, tp + fp + tn + fn)
    values = (acc, auc, precision, recall, specificity, f1, 1.0 - specificity, 1.0 - recall)
    return dict(zip(METRIC_NAMES, values)), degenerate


def evaluate(preds):
    """Compute the eight-criterion EvaluationReport for one PredictionSet."""
    counts = confusion_counts(preds.true_labels, preds.scores, preds.threshold)
    values, degenerate = _criteria(*counts, rank_auc(preds.true_labels, preds.scores))
    return EvaluationReport(
        **{name: float(value) for name, value in values.items()},
        degenerate=[name for name, mask in degenerate.items() if mask],
    )


DEFAULT_THRESHOLD_GRID = tuple(np.round(np.arange(0.01, 1.0, 0.01), 2))
# the benefit criteria a cutoff moves (not auc), which threshold_sweep can maximise
SWEEP_OBJECTIVES = tuple(n for n in METRIC_NAMES if n not in ("auc", "fpr", "fnr"))


def threshold_sweep(true_labels, scores, objective="f1"):
    """Pick the cutoff of DEFAULT_THRESHOLD_GRID at which the 0/1 array
    `true_labels` and the array `scores` maximize `objective`, one of
    SWEEP_OBJECTIVES.

    Ties break toward the cutoff nearest 0.5, then the smaller cutoff.
    Each class's scores are sorted once, every cutoff's counts come from
    one searchsorted, and one lexsort over the criteria picks the cutoff.
    """
    if objective not in SWEEP_OBJECTIVES:
        raise ValueError(f"objective must be one of {SWEEP_OBJECTIVES}, got {objective!r}")
    cutoffs = np.array(DEFAULT_THRESHOLD_GRID)
    auc = np.full(cutoffs.shape, rank_auc(true_labels, scores))
    pos = true_labels == 1
    # score >= cutoff iff -score <= -cutoff; a NaN sorts last: never positive
    tp, fp = (np.searchsorted(np.sort(-scores[m]), -cutoffs, side="right") for m in (pos, ~pos))
    n_pos = int(np.sum(pos))
    values, degenerate = _criteria(tp, fp, scores.size - n_pos - fp, n_pos - tp, auc)
    undefined = degenerate.get(objective, np.zeros(cutoffs.size, dtype=bool))
    best = np.lexsort((cutoffs, np.abs(cutoffs - 0.5), -values[objective], undefined))[0]
    if undefined[best]:
        raise ValueError(f"objective {objective!r} undefined at every cutoff")
    return float(cutoffs[best])


def build_decision_matrix(reports, criteria=DEFAULT_CRITERIA):
    """Assemble model reports into a DecisionMatrix, rows in input order.

    `reports` maps model name -> EvaluationReport (or plain dict of
    metric values).
    """
    criteria = list(criteria)
    rows = []
    for model, report in reports.items():
        values = report.as_dict() if hasattr(report, "as_dict") else dict(report)
        missing = [c.name for c in criteria if c.name not in values]
        if missing:
            raise ValueError(f"model {model!r} is missing criteria {missing}")
        rows.append([values[c.name] for c in criteria])
    return DecisionMatrix(
        alternatives=list(reports.keys()), criteria=criteria, values=np.array(rows)
    )
