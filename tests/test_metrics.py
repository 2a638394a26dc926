import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coughrank.metrics import (
    DEFAULT_CRITERIA,
    CriterionSpec,
    DecisionMatrix,
    PredictionSet,
    build_decision_matrix,
    evaluate,
    rank_auc,
    threshold_sweep,
)


def make_preds(labels, scores, threshold=0.5):
    labels = np.asarray(labels)
    return PredictionSet(
        model_name="m",
        strategy_id="1",
        sample_ids=[f"s{i}" for i in range(len(labels))],
        true_labels=labels,
        scores=np.asarray(scores, dtype=float),
        threshold=threshold,
    )


def confusion_counts(labels, scores, threshold):
    """(TP, FP, TN, FN) that evaluate reports, read back from its recall and
    specificity, with its accuracy and precision checked against them."""
    labels = np.asarray(labels)
    rep = evaluate(make_preds(labels, scores, threshold))
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.size - n_pos
    tp, tn = round(rep.recall * n_pos), round(rep.specificity * n_neg)
    fp, fn = n_neg - tn, n_pos - tp
    assert rep.acc == (tp + tn) / labels.size
    assert rep.precision == (tp / (tp + fp) if tp + fp else 0.0)
    return tp, fp, tn, fn


class TestConfusionCounts:
    def test_all_positive_all_predicted(self):
        labels = np.array([1, 1, 1, 1, 1, 0])
        assert confusion_counts(labels, np.ones(6), 0.5) == (5, 1, 0, 0)

    def test_hand_counted(self):
        labels = np.array([1, 1, 0, 0])
        scores = np.array([0.9, 0.2, 0.8, 0.1])
        assert confusion_counts(labels, scores, 0.5) == (1, 1, 1, 1)

    def test_threshold_outside_open_interval_rejected(self):
        with pytest.raises(ValueError):
            make_preds([1, 0], [0.9, 0.1], threshold=1.0)
        with pytest.raises(ValueError):
            make_preds([1, 0], [0.9, 0.1], threshold=0.0)

    def test_counts_partition(self):
        rng = np.random.default_rng(0)
        labels, scores = rng.integers(0, 2, 50), rng.uniform(0, 1, 50)
        counts = confusion_counts(labels, scores, 0.5)
        assert sum(counts) == 50
        pred, pos = scores >= 0.5, labels == 1
        masks = (pred & pos, pred & ~pos, ~pred & ~pos, ~pred & pos)
        assert counts == tuple(int(np.sum(m)) for m in masks)


class TestEvaluate:
    def test_perfect_separation_auc_one(self):
        preds = make_preds([1, 1, 0, 0], [0.9, 0.8, 0.3, 0.1])
        assert evaluate(preds).auc == 1.0

    def test_all_tied_scores_auc_half(self):
        preds = make_preds([1, 1, 0, 0], [0.5, 0.5, 0.5, 0.5])
        assert evaluate(preds).auc == 0.5

    def test_hand_case(self):
        preds = make_preds([1, 1, 0, 0], [0.9, 0.2, 0.8, 0.1])
        rep = evaluate(preds)
        assert rep.acc == 0.5
        assert rep.precision == 0.5
        assert rep.recall == 0.5
        assert rep.specificity == 0.5
        # 3 of the 4 positive-negative score pairs are correctly ordered
        assert rep.auc == 0.75
        assert rep.f1 == 0.5
        assert not rep.degenerate

    def test_complementarity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            labels = rng.integers(0, 2, 30)
            if len(set(labels)) < 2:
                continue
            rep = evaluate(make_preds(labels, rng.uniform(0, 1, 30)))
            assert rep.fpr + rep.specificity == pytest.approx(1.0, abs=1e-12)
            assert rep.fnr + rep.recall == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_precision_flagged(self):
        preds = make_preds([1, 1, 0], [0.1, 0.1, 0.1], threshold=0.5)
        rep = evaluate(preds)
        assert rep.precision == 0.0
        assert "precision" in rep.degenerate

    def test_auc_requires_both_classes(self):
        with pytest.raises(ValueError):
            evaluate(make_preds([1, 1], [0.9, 0.8]))

    @given(
        st.lists(
            st.tuples(st.integers(0, 1), st.floats(0.01, 0.99)),
            min_size=4,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_auc_invariant_under_monotone_transform(self, entries):
        labels = np.array([e[0] for e in entries])
        if len(set(labels)) < 2:
            return
        # round to a coarse grid so distinct scores stay distinct after
        # the transforms (raw doubles 2e-18 apart can collide when cubed)
        scores = np.round([e[1] for e in entries], 2)
        a = rank_auc(labels, scores)
        b = rank_auc(labels, scores**3)
        c = rank_auc(labels, 1 / (1 + np.exp(-6 * (scores - 0.5))))
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(c, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, 30)
        labels[:2] = [0, 1]
        scores = rng.uniform(0, 1, 30)
        rep = evaluate(make_preds(labels, scores))
        perm = rng.permutation(30)
        rep2 = evaluate(make_preds(labels[perm], scores[perm]))
        assert rep.as_dict() == rep2.as_dict()

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, 40)
        labels[:2] = [0, 1]
        scores = rng.uniform(0, 1, 40)
        prev_recall, prev_spec = 1.1, -0.1
        for t in np.linspace(0.05, 0.95, 19):
            rep = evaluate(make_preds(labels, scores, threshold=float(t)))
            assert rep.recall <= prev_recall + 1e-12
            assert rep.specificity >= prev_spec - 1e-12
            prev_recall, prev_spec = rep.recall, rep.specificity


class TestThresholdSweep:
    def test_separable_picks_cutoff_nearest_half(self):
        preds = make_preds([1, 1, 0, 0], [0.9, 0.8, 0.3, 0.1])
        assert threshold_sweep(preds.true_labels, preds.scores, objective="f1") == 0.5

    def test_hand_case(self):
        # every cutoff in (0.5, 0.55] gives F1 = 1; 0.51 is nearest 0.5
        preds = make_preds([1, 1, 1, 0], [0.9, 0.6, 0.55, 0.5])
        assert threshold_sweep(preds.true_labels, preds.scores, objective="f1") == 0.51


class TestDecisionMatrix:
    def test_two_identical_reports_identical_rows(self):
        rep = evaluate(make_preds([1, 1, 0, 0], [0.9, 0.2, 0.8, 0.1]))
        dm = build_decision_matrix({"a": rep, "b": rep})
        np.testing.assert_array_equal(dm.values[0], dm.values[1])
        assert dm.alternatives == ["a", "b"]
        assert [c.name for c in dm.criteria] == [c.name for c in DEFAULT_CRITERIA]

    def test_single_model_rejected(self):
        rep = evaluate(make_preds([1, 1, 0, 0], [0.9, 0.2, 0.8, 0.1]))
        with pytest.raises(ValueError):
            build_decision_matrix({"only": rep})

    def test_missing_criterion_rejected(self):
        with pytest.raises(ValueError):
            build_decision_matrix(
                {"a": {"acc": 0.5}, "b": {"acc": 0.6}},
                criteria=[CriterionSpec("acc", "benefit"), CriterionSpec("auc", "benefit")],
            )

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            CriterionSpec("acc", "up")

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DecisionMatrix(
                ["a", "b"],
                [CriterionSpec("x", "benefit")],
                np.array([[np.nan], [1.0]]),
            )
