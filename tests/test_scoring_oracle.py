"""The one scoring path in `metrics` against the paths it replaced.

`rankdata_auc` is the former `rank_auc` (average ranks from
`scipy.stats.rankdata`), `mask_counts` the former `confusion_counts`
(four mask sums at one cutoff), `rebuilt_evaluate` the former
`evaluate`, `rebuilt_sweep` the first `threshold_sweep`, which built
and scored a new PredictionSet at every cutoff, and `loop_sweep` the
second, which counted and scored each cutoff in a Python loop. The new
path counts each score set once: one sort into its distinct scores, the
positives and negatives at each, and the AUC from those; one
searchsorted then gives the counts at any cutoffs, and one lexsort picks
the sweep's. It must give the same AUC, reports and cutoffs, bit for
bit, and raise where they raise.
"""

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coughrank.metrics import (
    DEFAULT_THRESHOLD_GRID,
    METRIC_NAMES,
    EvaluationReport,
    PredictionSet,
    SWEEP_OBJECTIVES,
    evaluate,
    rank_auc,
    threshold_sweep,
)


def rankdata_auc(true_labels, scores):
    true_labels = np.asarray(true_labels, dtype=int)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(np.sum(true_labels == 1))
    n_neg = int(np.sum(true_labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC requires both classes present")
    ranks = scipy.stats.rankdata(scores)
    rank_sum = ranks[true_labels == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def mask_counts(true_labels, scores, threshold):
    if scores.size == 0:
        raise ValueError("empty prediction set")
    pred_pos = scores >= threshold
    pos = true_labels == 1
    tp = int(np.sum(pred_pos & pos))
    fp = int(np.sum(pred_pos & ~pos))
    tn = int(np.sum(~pred_pos & ~pos))
    fn = int(np.sum(~pred_pos & pos))
    return tp, fp, tn, fn


def _safe_ratio(num, den, name, degenerate):
    if den == 0:
        degenerate.append(name)
        return 0.0
    return num / den


def scalar_report(counts, auc):
    tp, fp, tn, fn = counts
    n = tp + fp + tn + fn
    degenerate = []
    precision = _safe_ratio(tp, tp + fp, "precision", degenerate)
    recall = _safe_ratio(tp, tp + fn, "recall", degenerate)
    specificity = _safe_ratio(tn, tn + fp, "specificity", degenerate)
    f1 = _safe_ratio(2 * precision * recall, precision + recall, "f1", degenerate)
    return EvaluationReport(
        acc=(tp + tn) / n,
        auc=auc,
        precision=precision,
        recall=recall,
        specificity=specificity,
        f1=f1,
        fpr=1.0 - specificity,
        fnr=1.0 - recall,
        degenerate=degenerate,
    )


def rebuilt_evaluate(preds):
    counts = mask_counts(preds.true_labels, preds.scores, preds.threshold)
    return scalar_report(counts, rankdata_auc(preds.true_labels, preds.scores))


def rebuilt_sweep(preds, objective):
    best = None
    for cutoff in DEFAULT_THRESHOLD_GRID:
        trial = PredictionSet(
            preds.model_name,
            preds.strategy_id,
            preds.sample_ids,
            preds.true_labels,
            preds.scores,
            threshold=float(cutoff),
        )
        report = rebuilt_evaluate(trial)
        if objective in report.degenerate:
            continue
        key = (-getattr(report, objective), abs(cutoff - 0.5), cutoff)
        if best is None or key < best[0]:
            best = (key, float(cutoff))
    if best is None:
        raise ValueError(f"objective {objective!r} undefined at every cutoff")
    return best[1]


def loop_sweep(true_labels, scores, objective):
    auc = rank_auc(true_labels, scores)
    best = None
    for cutoff in DEFAULT_THRESHOLD_GRID:
        report = scalar_report(mask_counts(true_labels, scores, cutoff), auc)
        if objective in report.degenerate:
            continue
        key = (-getattr(report, objective), abs(cutoff - 0.5), cutoff)
        if best is None or key < best[0]:
            best = (key, float(cutoff))
    if best is None:
        raise ValueError(f"objective {objective!r} undefined at every cutoff")
    return best[1]


def make_preds(labels, scores, threshold=0.5):
    return PredictionSet(
        "m", "1", [f"s{i}" for i in range(len(labels))], labels, scores, threshold
    )


def scoring_cases():
    """(name, labels, scores): ties, signed zeros, constant scores, n = 2."""
    rng = np.random.default_rng(13)
    cases = []
    for n in (3, 8, 41, 300):
        for levels in (2, 3, 11, 101):
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            scores = rng.integers(0, levels, n) / (levels - 1)
            cases.append((f"ties_n{n}_levels{levels}", labels, scores))
        labels = (rng.random(n) < 0.3).astype(int)
        labels[:2] = [0, 1]
        cases.append((f"continuous_n{n}", labels, rng.uniform(0, 1, n)))
    for n in (4, 30):
        labels = rng.integers(0, 2, n)
        labels[:2] = [1, 0]
        scores = rng.choice([0.0, 0.0, 0.3, 0.5, 1.0], n)
        scores[(scores == 0) & (rng.random(n) < 0.5)] = -0.0
        scores[:2] = [0.0, -0.0]
        cases.append((f"signed_zeros_n{n}", labels, scores))
    for value in (0.0, 0.5, 1.0):
        labels = np.array([1, 0, 0, 1, 0])
        cases.append((f"all_equal_{value}", labels, np.full(5, value)))
    for labels in ([0, 1], [1, 0]):
        for scores in ([0.2, 0.7], [0.7, 0.2], [0.4, 0.4], [0.0, -0.0]):
            name = f"n2_{labels}_{scores}".replace(" ", "")
            cases.append((name, np.array(labels), np.array(scores)))
    return cases


CASES = scoring_cases()
CASE_IDS = [case[0] for case in CASES]


def boundary_thresholds(scores):
    """Off-grid cutoffs, and the distinct scores inside (0, 1), every
    (n // 5)-th of n, each with its neighbours one ulp below and above: at
    those only `score >= threshold` decides whether a score is positive."""
    inner = np.unique(scores[(scores > 0) & (scores < 1)])
    thresholds = [1 / 3, 0.123456789, 0.5 + 2.0**-40, np.nextafter(0.5, 0)]
    for score in inner[:: max(1, inner.size // 5)]:
        thresholds += [np.nextafter(score, 0), score, np.nextafter(score, 1)]
    return [float(t) for t in thresholds]


def bits(report):
    return [float(v).hex() for v in report.as_dict().values()], report.degenerate


def test_cases_cover_signed_zeros():
    zeros = [s for _, _, s in CASES if np.any((s == 0) & np.signbit(s))]
    assert len(zeros) >= 3


@pytest.mark.parametrize("name, labels, scores", CASES, ids=CASE_IDS)
def test_rank_auc_matches_rankdata(name, labels, scores):
    assert rank_auc(labels, scores).hex() == rankdata_auc(labels, scores).hex()


@pytest.mark.parametrize("name, labels, scores", CASES, ids=CASE_IDS)
def test_evaluate_matches_rebuilt(name, labels, scores):
    for threshold in (0.01, 0.3, 0.5, 0.99, *boundary_thresholds(scores)):
        preds = make_preds(labels, scores, threshold)
        assert bits(evaluate(preds)) == bits(rebuilt_evaluate(preds)), threshold.hex()


def test_boundary_cases_put_a_threshold_on_a_score():
    on_score = [
        t for _, _, scores in CASES for t in boundary_thresholds(scores) if np.any(scores == t)
    ]
    assert len(on_score) >= 50


@pytest.mark.parametrize("objective", METRIC_NAMES)
def test_threshold_sweep_matches_rebuilt(objective):
    """The former path also maximised the cost criteria fpr and fnr, which
    picks the worst cutoff; the sweep now rejects them."""
    for name, labels, scores in CASES:
        preds = make_preds(labels, scores)
        if objective not in SWEEP_OBJECTIVES:
            with pytest.raises(ValueError, match=f"got {objective!r}"):
                threshold_sweep(preds.true_labels, preds.scores, objective=objective)
            continue
        try:
            expected = rebuilt_sweep(preds, objective)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                threshold_sweep(preds.true_labels, preds.scores, objective=objective)
            continue
        assert threshold_sweep(preds.true_labels, preds.scores, objective=objective) == expected, name


def test_seeded_random_sets_match():
    rng = np.random.default_rng(2006)
    for trial in range(300):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, n)
        labels[:2] = rng.permutation([0, 1])
        scores = np.round(rng.uniform(0, 1, n), int(rng.integers(0, 3)))
        scores[(scores == 0) & (rng.random(n) < 0.5)] = -0.0
        assert rank_auc(labels, scores).hex() == rankdata_auc(labels, scores).hex()
        preds = make_preds(labels, scores, float(rng.choice(DEFAULT_THRESHOLD_GRID)))
        assert bits(evaluate(preds)) == bits(rebuilt_evaluate(preds))
        inner = scores[(scores > 0) & (scores < 1)]
        if inner.size:
            score = float(rng.choice(inner))
            for threshold in (np.nextafter(score, 0), score, np.nextafter(score, 1)):
                preds = make_preds(labels, scores, float(threshold))
                assert bits(evaluate(preds)) == bits(rebuilt_evaluate(preds))
        if trial % 10 == 0:
            assert threshold_sweep(preds.true_labels, preds.scores) == rebuilt_sweep(preds, "f1")



# Scores around the cutoffs nearest 0.5, both zeros, and the ends of [0, 1].
POOL = [0.0, -0.0, 0.005, 0.01, 0.3, 0.49, 0.495, 0.5, 0.505, 0.51, 0.7, 0.99, 1.0]


@st.composite
def sweep_cases(draw):
    """Labels (one class allowed), scores continuous, rounded to 1-3
    decimals or tied from POOL, and a sweep objective."""
    n = draw(st.integers(1, 60))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["continuous", "rounded", "pool"]))
    unit = st.floats(0.0, 1.0, allow_subnormal=False)
    scores = draw(st.lists(st.sampled_from(POOL) if kind == "pool" else unit, min_size=n, max_size=n))
    if kind == "rounded":
        scores = np.round(scores, draw(st.integers(1, 3)))
    objective = draw(st.sampled_from(SWEEP_OBJECTIVES))
    return np.array(labels), np.array(scores, dtype=np.float64), objective


def sweep_outcome(sweep, *args):
    try:
        return sweep(*args)
    except ValueError as exc:
        return str(exc)


# Best acc at 0.49 and 0.51 alone among the cutoffs nearest 0.5 (see the
# test below); precision 0 up to 0.3 and undefined from 0.31, nearer 0.5;
# and no cutoff with a predicted positive, so precision and f1 are
# undefined everywhere.
@example(case=(np.array([1, 0, 1, 0]), np.array([0.495, 0.505, 0.9, 0.1]), "acc"))
@example(case=(np.array([1, 0]), np.array([0.0, 0.3]), "precision"))
@example(case=(np.array([1, 0, 0]), np.array([0.0, 0.005, -0.0]), "precision"))
@example(case=(np.array([1, 0, 0]), np.array([0.0, 0.005, -0.0]), "f1"))
@given(case=sweep_cases())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_sweep_matches_loop_and_rebuilt(case):
    labels, scores, objective = case
    got = sweep_outcome(threshold_sweep, labels, scores, objective)
    assert got == sweep_outcome(loop_sweep, labels, scores, objective)
    assert got == sweep_outcome(rebuilt_sweep, make_preds(labels, scores), objective)


def test_sweep_tie_at_equal_distance_from_half_takes_the_smaller_cutoff():
    labels, scores = np.array([1, 0, 1, 0]), np.array([0.495, 0.505, 0.9, 0.1])
    grid = np.array(DEFAULT_THRESHOLD_GRID)
    low, half, high = grid[48:51]
    assert (low, half, high) == (0.49, 0.5, 0.51) and abs(low - 0.5) == abs(high - 0.5)
    acc = [evaluate(make_preds(labels, scores, c)).acc for c in grid]
    assert acc[48] == acc[50] == max(acc) > acc[49]
    assert threshold_sweep(labels, scores, "acc") == loop_sweep(labels, scores, "acc") == 0.49


@pytest.mark.parametrize("objective", ["precision", "f1"])
def test_sweep_undefined_everywhere_raises_the_loops_message(objective):
    labels, scores = np.array([1, 0, 0]), np.array([0.0, 0.005, -0.0])
    with pytest.raises(ValueError) as loop:
        loop_sweep(labels, scores, objective)
    with pytest.raises(ValueError, match=f"^{loop.value}$"):
        threshold_sweep(labels, scores, objective)
