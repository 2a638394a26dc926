"""Entropy-weighted TOPSIS over a decision matrix.

Criterion weights come from the information entropy of each column;
alternatives are then ranked by relative closeness to the ideal-best
solution.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class WeightVector:
    """Nonnegative per-criterion weights summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


@dataclass
class TopsisResult:
    ideal_best: np.ndarray
    ideal_worst: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    closeness: np.ndarray
    ranks: np.ndarray
    degenerate: bool = False


def entropy_weights(dm):
    """Entropy-based criterion weights for a DecisionMatrix.

    Each column is min-max standardized, projected to proportions, and
    scored by normalized entropy; weights are the normalized entropy
    deficits. Constant columns carry no information and get weight 0.
    Columns are scaled by powers of two first, so no spread overflows.
    """
    X = _scale_columns(dm.values)
    m = X.shape[0]
    lo = X.min(axis=0)
    spread = X.max(axis=0) - lo
    varying = spread > 0
    if not np.any(varying):
        raise ValueError("all criteria are constant; weights undefined")
    std = np.zeros_like(X)
    std[:, varying] = (X[:, varying] - lo[varying]) / spread[varying]
    col_sums = std.sum(axis=0)
    prop = np.divide(std, col_sums, out=np.zeros_like(std), where=col_sums > 0)
    # 0*ln(0) taken as its limit 0
    terms = np.where(prop > 0, prop * np.log(np.where(prop > 0, prop, 1.0)), 0.0)
    entropy = -terms.sum(axis=0) / np.log(m)
    entropy = np.where(varying, entropy, 1.0)
    deficit = 1.0 - entropy
    return WeightVector(weights=deficit / deficit.sum())


def _scale_columns(values):
    """Each column times the power of two that brings its largest |value|
    into [0.5, 1); exact unless a value underflows."""
    return np.ldexp(values, -np.frexp(np.abs(values).max(axis=0))[1])


def vector_normalize(values):
    """Column-wise division by the Euclidean norm; all-zero columns stay zero.
    Columns are scaled by powers of two first, so no square overflows."""
    values = _scale_columns(values)
    norms = np.sqrt((values**2).sum(axis=0))
    return np.divide(values, norms, out=np.zeros_like(values), where=norms > 0)


def ideal_solutions(weighted, cost_mask):
    """Ideal-best and ideal-worst rows of a weighted normalized matrix.

    The best takes the column max on benefit criteria and the column
    min on cost criteria; the worst is the reverse.
    """
    cost_mask = np.asarray(cost_mask, dtype=bool)
    col_max = weighted.max(axis=0)
    col_min = weighted.min(axis=0)
    v_plus = np.where(cost_mask, col_min, col_max)
    v_minus = np.where(cost_mask, col_max, col_min)
    return v_plus, v_minus


def competition_ranks(scores):
    """1-2-2-4 style ranks: 1 + the number of strictly higher scores."""
    scores = np.asarray(scores, dtype=np.float64)
    return 1 + scores.size - np.searchsorted(np.sort(scores), scores, side="right")


def topsis(dm, wv=None):
    """Rank a DecisionMatrix by relative closeness to the ideal solution.

    Weights default to entropy weights of the same matrix. An
    all-identical matrix has no geometry to rank on; closeness is then
    defined as 0.5 everywhere and flagged.
    """
    if wv is None:
        wv = entropy_weights(dm)
    if wv.weights.size != len(dm.criteria):
        raise ValueError("weights must align with the matrix criteria")
    weighted = vector_normalize(dm.values) * wv.weights
    v_plus, v_minus = ideal_solutions(weighted, dm.cost_mask)
    s_plus = np.sqrt(((weighted - v_plus) ** 2).sum(axis=1))
    s_minus = np.sqrt(((weighted - v_minus) ** 2).sum(axis=1))
    total = s_plus + s_minus
    degenerate = bool(np.any(total == 0))
    closeness = np.divide(
        s_minus, total, out=np.full_like(total, 0.5), where=total > 0
    )
    return TopsisResult(
        ideal_best=v_plus,
        ideal_worst=v_minus,
        s_plus=s_plus,
        s_minus=s_minus,
        closeness=closeness,
        ranks=competition_ranks(closeness),
        degenerate=degenerate,
    )
