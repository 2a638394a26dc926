"""Soft and hard fusion of per-strategy TOPSIS closeness scores.

The soft ensemble averages closeness across training strategies; the
hard ensemble converts each strategy's closeness column into points
(best model gets m points) and sums them. `rank` runs the whole chain,
entropy weights -> TOPSIS -> both ensembles, without I/O.
"""

from dataclasses import dataclass

import numpy as np

from .mcdm import competition_ranks, entropy_weights, topsis
from .metrics import DecisionMatrix

# Points are awarded on closeness rounded to this many decimals so
# near-identical scores share a point value.
TIE_DECIMALS = 2


@dataclass
class ClosenessTable:
    """m models x T strategies of relative closeness values."""

    models: list
    strategies: list
    closeness: np.ndarray

    def __post_init__(self):
        self.closeness = np.asarray(self.closeness, dtype=np.float64)
        m, t = len(self.models), len(self.strategies)
        if self.closeness.shape != (m, t):
            raise ValueError("closeness shape must match labels")
        if t < 1:
            raise ValueError("at least one strategy required")
        if not np.all(np.isfinite(self.closeness)):
            raise ValueError("closeness values must be finite")
        if np.any((self.closeness < 0) | (self.closeness > 1)):
            raise ValueError("closeness values must lie in [0, 1]")


@dataclass
class EnsembleResult:
    models: list
    soft_scores: np.ndarray
    soft_ranks: np.ndarray
    hard_points: np.ndarray
    hard_totals: np.ndarray
    hard_ranks: np.ndarray
    soft_best: str
    hard_best: str


def soft_ensemble(ct):
    """Average closeness per model and rank descending (ties share rank)."""
    scores = ct.closeness.mean(axis=1)
    return scores, competition_ranks(scores)


def hard_points(ct):
    """Per-strategy points: m + 1 - competition rank of the closeness.

    Closeness values are rounded to TIE_DECIMALS first, so values that
    round alike share the better point.
    """
    rounded = np.round(ct.closeness, TIE_DECIMALS)
    return np.column_stack([len(rounded) + 1 - competition_ranks(c) for c in rounded.T])


def fuse(ct):
    """Run both ensembles and name the winners.

    A tie for soft_best breaks by hard total, then model name; ties
    for hard_best break by soft score, then model name.
    """
    soft_scores, soft_ranks = soft_ensemble(ct)
    points = hard_points(ct)
    hard_totals = points.sum(axis=1)
    hard_ranks = competition_ranks(hard_totals)
    soft_best = min(
        np.flatnonzero(soft_ranks == 1),
        key=lambda i: (-hard_totals[i], ct.models[i]),
    )
    hard_best = min(
        np.flatnonzero(hard_ranks == 1),
        key=lambda i: (-soft_scores[i], ct.models[i]),
    )
    return EnsembleResult(
        models=list(ct.models),
        soft_scores=soft_scores,
        soft_ranks=soft_ranks,
        hard_points=points,
        hard_totals=hard_totals,
        hard_ranks=hard_ranks,
        soft_best=ct.models[soft_best],
        hard_best=ct.models[hard_best],
    )


class RankError(ValueError):
    """A decision matrix `rank` cannot rank; `strategy` is its key."""

    def __init__(self, strategy, message):
        super().__init__(message)
        self.strategy = strategy


@dataclass
class Ranking:
    """Everything `rank` computed; the dicts are keyed by strategy id."""

    matrices: dict
    weights: dict
    topsis: dict
    closeness: ClosenessTable
    ensemble: EnsembleResult
    degenerate: bool


def rank(matrices):
    """Entropy weights and TOPSIS per DecisionMatrix, then both ensembles.

    `matrices` maps strategy id -> DecisionMatrix; all is computed on copies
    with rows in model-name order (Ranking.matrices). RankError names a matrix
    whose model set differs from the first's or whose criteria are all constant."""
    ordered = {}
    for key, dm in matrices.items():
        rows = sorted(range(len(dm.alternatives)), key=dm.alternatives.__getitem__)
        ordered[key] = DecisionMatrix([dm.alternatives[i] for i in rows], dm.criteria, dm.values[rows])
    models = next(iter(ordered.values())).alternatives
    weights, results = {}, {}
    for key, dm in ordered.items():
        odd = sorted(set(models) ^ set(dm.alternatives))
        if odd:
            side = "missing here" if odd[0] in models else "not in the first matrix"
            raise RankError(key, f"matrices disagree on the model set: {odd[0]!r} is {side}")
        try:
            weights[key] = entropy_weights(dm)
        except ValueError as exc:
            raise RankError(key, str(exc)) from exc
        results[key] = topsis(dm, weights[key])
    closeness = np.column_stack([r.closeness for r in results.values()])
    table = ClosenessTable(list(models), list(ordered), closeness)
    degenerate = any(r.degenerate for r in results.values())
    return Ranking(ordered, weights, results, table, fuse(table), degenerate)
