import numpy as np
import pytest

import coughrank.learn as learn
from coughrank import InputError
from coughrank.learn import (
    Dataset,
    StrategyConfig,
    balance_with_smote,
    logistic_objective,
    predict_knn,
    predict_logreg,
    rfecv,
    run_strategies,
    run_strategy,
    smote,
    stratified_kfold,
    train_knn,
    train_logreg,
)
from coughrank.metrics import rank_auc


def cluster_dataset(n_pos, n_neg, n_features=4, gap=3.0, seed=0, prefix="s"):
    """Two Gaussian blobs separated along every feature axis."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(gap, 1.0, (n_pos, n_features))
    neg = rng.normal(0.0, 1.0, (n_neg, n_features))
    X = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n_neg, dtype=int)])
    ids = [f"{prefix}{i:03d}" for i in range(n_pos + n_neg)]
    return Dataset(X, y, ids)


class TestStratifiedKfold:
    def test_fold_class_counts_within_one_of_share(self):
        labels = np.array([1] * 141 + [0] * 298)
        plan = stratified_kfold(labels, 10, seed=7)
        for fold in range(10):
            members = labels[plan.assignments == fold]
            assert np.sum(members == 1) in (14, 15)
            assert np.sum(members == 0) in (29, 30)

    def test_partition_covers_all_samples(self):
        labels = np.array([0, 1] * 25)
        plan = stratified_kfold(labels, 5)
        assert plan.assignments.min() == 0 and plan.assignments.max() == 4
        assert np.bincount(plan.assignments).sum() == 50

    def test_same_seed_reproduces(self):
        labels = np.array([0, 1] * 30)
        a = stratified_kfold(labels, 6, seed=3).assignments
        b = stratified_kfold(labels, 6, seed=3).assignments
        np.testing.assert_array_equal(a, b)

    def test_class_smaller_than_k_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold(np.array([1, 1, 0, 0, 0, 0]), 3)

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            stratified_kfold(np.array([0, 1, 0, 1]), 1)


def _on_some_segment(point, anchors, tol=1e-9):
    """True if point lies on a segment between two anchor rows."""
    for i in range(len(anchors)):
        for j in range(len(anchors)):
            if i == j:
                continue
            a, b = anchors[i], anchors[j]
            ab = b - a
            denom = float(ab @ ab)
            if denom == 0.0:
                if np.allclose(point, a, atol=tol):
                    return True
                continue
            u = float((point - a) @ ab) / denom
            if -tol <= u <= 1 + tol and np.allclose(a + u * ab, point, atol=tol):
                return True
    return False


class TestSmote:
    def test_no_new_rows_when_target_met(self):
        minority = np.random.default_rng(0).normal(size=(6, 3))
        assert smote(minority, 6, k_neighbors=3).shape == (0, 3)

    def test_synthetics_lie_on_minority_segments(self):
        rng = np.random.default_rng(1)
        minority = rng.normal(size=(7, 2))
        synth = smote(minority, 20, k_neighbors=3, seed=5)
        assert synth.shape == (13, 2)
        for row in synth:
            assert _on_some_segment(row, minority)

    def test_collinear_minority_stays_collinear(self):
        minority = np.column_stack(
            [np.arange(6.0), 2.0 * np.arange(6.0) + 1.0]
        )
        synth = smote(minority, 15, k_neighbors=2, seed=2)
        np.testing.assert_allclose(synth[:, 1], 2.0 * synth[:, 0] + 1.0, atol=1e-9)

    def test_bounds_respected_per_coordinate(self):
        rng = np.random.default_rng(3)
        minority = rng.uniform(-2, 2, (8, 4))
        synth = smote(minority, 40, k_neighbors=4, seed=3)
        assert np.all(synth >= minority.min(axis=0) - 1e-12)
        assert np.all(synth <= minority.max(axis=0) + 1e-12)

    def test_too_few_neighbors_rejected(self):
        with pytest.raises(ValueError):
            smote(np.zeros((3, 2)), 10, k_neighbors=3)

    def test_shrinking_target_rejected(self):
        with pytest.raises(ValueError):
            smote(np.zeros((5, 2)), 4, k_neighbors=2)

    def test_seed_reproducibility(self):
        minority = np.random.default_rng(4).normal(size=(9, 3))
        a = smote(minority, 25, seed=11)
        b = smote(minority, 25, seed=11)
        np.testing.assert_array_equal(a, b)


class TestBalanceWithSmote:
    def test_balanced_input_untouched(self):
        ds = cluster_dataset(10, 10)
        X, y = balance_with_smote(ds.features, ds.labels)
        assert X is ds.features and y is ds.labels

    def test_minority_raised_to_majority(self):
        ds = cluster_dataset(8, 20)
        X, y = balance_with_smote(ds.features, ds.labels, k_neighbors=3)
        assert np.sum(y == 1) == np.sum(y == 0) == 20
        np.testing.assert_array_equal(X[:28], ds.features)
        np.testing.assert_array_equal(y[:28], ds.labels)


class TestKnn:
    def test_hand_scored_fractions(self):
        train = Dataset(
            np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]]),
            np.array([0, 0, 0, 1, 1, 1]),
            list("abcdef"),
        )
        model = train_knn(train.features, train.labels, n_neighbors=3)
        scores = predict_knn(model, np.array([[1.0], [11.0], [6.0]]))
        assert scores[0] == 0.0
        assert scores[1] == 1.0
        # midpoint: nearest three are {2, 10, 1} or {2, 10, 11}; either
        # way the standardized distances put 2 and 10 closest
        assert 0.0 < scores[2] < 1.0

    def test_k_one_memorizes_training_labels(self):
        ds = cluster_dataset(6, 6, seed=5)
        model = train_knn(ds.features, ds.labels, n_neighbors=1)
        scores = predict_knn(model, ds.features)
        np.testing.assert_array_equal(scores, ds.labels.astype(float))

    def test_k_larger_than_train_rejected(self):
        ds = cluster_dataset(3, 3)
        with pytest.raises(ValueError):
            train_knn(ds.features, ds.labels, n_neighbors=7)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        ds = cluster_dataset(3, 3)
        with pytest.raises(ValueError, match="1 <= n_neighbors"):
            train_knn(ds.features, ds.labels, n_neighbors=k)

    def test_scores_in_unit_interval(self):
        ds = cluster_dataset(10, 10, seed=6)
        model = train_knn(ds.features, ds.labels, n_neighbors=4)
        scores = predict_knn(model, np.random.default_rng(0).normal(size=(15, 4)))
        assert np.all((scores >= 0) & (scores <= 1))


class TestLogreg:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(5, 4))
        y = np.array([0, 1, 1, 0, 1])
        w = rng.normal(size=5) * 0.5
        _, grad = logistic_objective(w, X, y, l2_strength=0.3)
        eps = 1e-6
        for i in range(5):
            step = np.zeros(5)
            step[i] = eps
            hi, _ = logistic_objective(w + step, X, y, 0.3)
            lo, _ = logistic_objective(w - step, X, y, 0.3)
            assert grad[i] == pytest.approx((hi - lo) / (2 * eps), abs=1e-5)

    def test_intercept_not_penalized(self):
        X = np.zeros((4, 2))
        y = np.array([0, 1, 0, 1])
        w = np.array([0.0, 0.0, 3.0])
        small, _ = logistic_objective(w, X, y, l2_strength=0.1)
        large, _ = logistic_objective(w, X, y, l2_strength=100.0)
        assert small == pytest.approx(large, abs=1e-12)

    def test_separable_clusters_perfect_ranking(self):
        ds = cluster_dataset(20, 20, gap=5.0, seed=8)
        model = train_logreg(ds.features, ds.labels, l2_strength=0.01)
        scores = predict_logreg(model, ds.features)
        assert rank_auc(ds.labels, scores) == 1.0

    def test_heavy_penalty_flattens_scores(self):
        ds = cluster_dataset(15, 15, seed=9)
        model = train_logreg(ds.features, ds.labels, l2_strength=1e6)
        scores = predict_logreg(model, ds.features)
        assert np.all(np.abs(scores - 0.5) < 0.05)

    def test_single_class_rejected(self):
        ds = Dataset(np.random.default_rng(0).normal(size=(6, 2)), np.ones(6, dtype=int), list("abcdef"))
        with pytest.raises(ValueError):
            train_logreg(ds.features, ds.labels)

    def test_scores_are_probabilities(self):
        ds = cluster_dataset(12, 12, seed=10)
        model = train_logreg(ds.features, ds.labels)
        scores = predict_logreg(model, ds.features)
        assert np.all((scores > 0) & (scores < 1))


class TestRunStrategy:
    def test_output_sorted_and_aligned(self):
        ds = cluster_dataset(25, 25, seed=11)
        preds = run_strategy(ds, "knn", StrategyConfig.standard(1))
        assert preds.sample_ids == sorted(ds.sample_ids)
        by_id = dict(zip(ds.sample_ids, ds.labels))
        assert [by_id[s] for s in preds.sample_ids] == list(preds.true_labels)

    def test_balanced_data_smote_is_noop(self):
        ds = cluster_dataset(25, 25, seed=12)
        for model in ("knn", "logreg"):
            p1 = run_strategy(ds, model, StrategyConfig.standard(1))
            p2 = run_strategy(ds, model, StrategyConfig.standard(2))
            np.testing.assert_array_equal(p1.scores, p2.scores)
            assert p1.threshold == p2.threshold

    def test_separable_oof_auc_high(self):
        ds = cluster_dataset(30, 40, gap=5.0, seed=13)
        for strategy in (1, 2, 3):
            preds = run_strategy(ds, "logreg", StrategyConfig.standard(strategy))
            assert rank_auc(preds.true_labels, preds.scores) >= 0.99

    def test_singleton_grid_matches_strategy_two(self, monkeypatch):
        ds = cluster_dataset(20, 30, seed=14)
        monkeypatch.setitem(learn.MODEL_GRIDS, "knn", [dict(learn.MODEL_DEFAULTS["knn"])])
        p2 = run_strategy(ds, "knn", StrategyConfig.standard(2))
        p3 = run_strategy(ds, "knn", StrategyConfig.standard(3))
        np.testing.assert_array_equal(p2.scores, p3.scores)

    def test_same_seed_reproduces(self):
        ds = cluster_dataset(20, 30, seed=15)
        a = run_strategy(ds, "logreg", StrategyConfig.standard(2), seed=99)
        b = run_strategy(ds, "logreg", StrategyConfig.standard(2), seed=99)
        np.testing.assert_array_equal(a.scores, b.scores)
        assert a.threshold == b.threshold

    def test_unknown_model_rejected(self):
        ds = cluster_dataset(20, 20)
        with pytest.raises(ValueError):
            run_strategy(ds, "mystery", StrategyConfig.standard(1))

    @pytest.mark.parametrize(
        "search, cells",
        [("_grid_search", [("knn", 1), ("logreg", 3)]), ("_knn_scores", [("logreg", 1), ("knn", 2)])],
        ids=["grid_search", "knn_search"],
    )
    @pytest.mark.parametrize("search_fails", [True, False])
    def test_later_search_error_wins_over_earlier_objective(
        self, monkeypatch, search, cells, search_fails
    ):
        """Every cell's search runs before any threshold choice, so a later
        cell's search ValueError (exit 1) beats the first cell's undefined
        objective (InputError, exit 2); without it the InputError stands."""
        ds = cluster_dataset(20, 30, seed=16)
        cells = [(model, StrategyConfig.standard(s)) for model, s in cells]

        def undefined(*args, **kwargs):
            raise ValueError("objective undefined at every cutoff")

        def failed(*args, **kwargs):
            raise ValueError("search failed")

        monkeypatch.setattr(learn, "threshold_sweep", undefined)
        if search_fails:
            monkeypatch.setattr(learn, search, failed)
        with pytest.raises(ValueError) as exc:
            run_strategies(ds, cells)
        if search_fails:
            assert type(exc.value) is ValueError and str(exc.value) == "search failed"
        else:
            assert isinstance(exc.value, InputError)
            assert f"model {cells[0][0]!r} in strategy {cells[0][1].id}" in str(exc.value)


class TestRfecv:
    def _informative_dataset(self, seed, n_noise=20):
        rng = np.random.default_rng(seed)
        n = 60
        y = np.array([1] * 30 + [0] * 30)
        signal = np.column_stack([
            y * 3.0 + rng.normal(0, 0.5, n),
            -y * 3.0 + rng.normal(0, 0.5, n),
        ])
        noise = rng.normal(size=(n, n_noise))
        X = np.hstack([signal, noise])
        return Dataset(X, y, [f"r{i}" for i in range(n)])

    def test_curve_sizes_strictly_decrease(self):
        ds = self._informative_dataset(0, n_noise=6)
        _, curve = rfecv(ds, step=2)
        sizes = [s for s, _ in curve]
        assert sizes[0] == 8
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_tie_goes_to_the_smaller_mask(self):
        ds = cluster_dataset(20, 20, n_features=5, gap=12.0, seed=3)
        mask, curve = rfecv(ds, step=1)
        assert [s for s, _ in curve] == [5, 4, 3, 2, 1]
        assert len({auc for _, auc in curve}) == 1  # every size ties
        assert mask.sum() == 1

    def test_step_of_d_minus_one_gives_two_points(self):
        ds = self._informative_dataset(1, n_noise=4)
        mask, curve = rfecv(ds, step=5)
        assert [s for s, _ in curve] == [6, 1]
        assert mask.sum() in (1, 6)

    def test_invalid_step_rejected(self):
        ds = self._informative_dataset(2, n_noise=2)
        with pytest.raises(ValueError):
            rfecv(ds, step=0)
        with pytest.raises(ValueError):
            rfecv(ds, step=4)

    def test_recovers_informative_features(self):
        hits = 0
        for seed in range(10):
            ds = self._informative_dataset(seed)
            mask, _ = rfecv(ds, step=2, seed=seed)
            if mask[0] and mask[1]:
                hits += 1
        assert hits >= 9
