"""The k-NN neighbour search (a Gram-matrix screen and an exact re-rank),
SMOTE built on it and the shared-order grid search, checked against the
full-tensor code they replaced, kept here as oracles."""

import tracemalloc

import numpy as np
import pytest

import coughrank.learn as learn
from coughrank.learn import (
    DEFAULT_SEED,
    INNER_FOLDS,
    Dataset,
    KnnModel,
    predict_knn,
    predict_logreg,
    smote,
    stratified_kfold,
    train_knn,
    train_logreg,
)
from coughrank.metrics import rank_auc

from test_fold_major import nearest_neighbors


def nearest_oracle(model, features):
    """One n_query x n_train x d difference tensor, one stable argsort."""
    X = model.scaler(np.asarray(features, dtype=np.float64))
    dists = np.linalg.norm(
        X[:, None, :] - model.train_features[None, :, :], axis=2
    )
    return np.argsort(dists, axis=1, kind="stable")[:, : model.n_neighbors]


def predict_knn_oracle(model, features):
    return model.train_labels[nearest_oracle(model, features)].mean(axis=1)


def smote_oracle(minority, target_count, k_neighbors=5, seed=DEFAULT_SEED):
    """Synthetic minority points interpolated toward nearest neighbors.

    Each synthetic point is x + u * (nn - x) with u uniform in [0, 1]
    and nn one of x's k nearest minority neighbors (Euclidean).
    Returns target_count - len(minority) new rows.
    """
    minority = np.asarray(minority, dtype=np.float64)
    m = minority.shape[0]
    if not (m > k_neighbors >= 1):
        raise ValueError("require len(minority) > k_neighbors >= 1")
    if target_count < m:
        raise ValueError("target_count must be >= current minority count")
    n_new = target_count - m
    if n_new == 0:
        return np.empty((0, minority.shape[1]))
    dists = np.linalg.norm(minority[:, None, :] - minority[None, :, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    neighbors = np.argsort(dists, axis=1)[:, :k_neighbors]
    rng = np.random.default_rng(seed)
    base = rng.integers(0, m, size=n_new)
    pick = rng.integers(0, k_neighbors, size=n_new)
    u = rng.uniform(0.0, 1.0, size=n_new)
    nn = minority[neighbors[base, pick]]
    return minority[base] + u[:, None] * (nn - minority[base])


_ORACLE_TRAINERS = {
    "knn": (train_knn, predict_knn_oracle),
    "logreg": (train_logreg, predict_logreg),
}


def grid_search_oracle(model_name, grid, train, seed):
    """One fit and one prediction per (params, inner fold); first best wins."""
    plan = stratified_kfold(train.labels, INNER_FOLDS, seed=seed)
    fit, predict = _ORACLE_TRAINERS[model_name]
    best = None
    for params in grid:
        aucs = []
        for fold in range(INNER_FOLDS):
            test_mask = plan.assignments == fold
            inner_train = Dataset(
                train.features[~test_mask],
                train.labels[~test_mask],
                [train.sample_ids[i] for i in np.flatnonzero(~test_mask)],
            )
            scores = predict(
                fit(inner_train.features, inner_train.labels, **params),
                train.features[test_mask],
            )
            aucs.append(rank_auc(train.labels[test_mask], scores))
        mean_auc = float(np.mean(aucs))
        if best is None or mean_auc > best[0]:
            best = (mean_auc, params)
    return best[1]


def noisy_dataset(n_pos, n_neg, n_features=5, gap=1.0, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_pos + n_neg, n_features))
    y = np.array([1] * n_pos + [0] * n_neg)
    X[:n_pos] += gap
    return Dataset(X, y, [f"s{i:03d}" for i in range(y.size)])


def assert_matches_oracle(model, queries):
    np.testing.assert_array_equal(
        nearest_neighbors(model, queries, model.n_neighbors),
        nearest_oracle(model, queries),
    )
    new, old = predict_knn(model, queries), predict_knn_oracle(model, queries)
    assert np.array_equal(new, old)
    assert_every_k_is_a_prefix(model, queries)


def assert_every_k_is_a_prefix(model, queries):
    """The search at each k <= n_neighbors is the first k columns of the one
    at n_neighbors, which is what lets one search serve a whole k grid."""
    X = model.scaler(np.asarray(queries, dtype=np.float64))
    k_max = model.n_neighbors
    nearest = learn._knn(model.train_features, X, k_max)
    for k in range(1, k_max + 1):
        np.testing.assert_array_equal(
            learn._knn(model.train_features, X, k), nearest[:, :k], err_msg=f"k={k}"
        )


def unscaled_model(T, k):
    """A k-NN model that measures queries exactly as given."""
    labels = np.arange(len(T)) % 2
    return KnnModel(np.asarray(T, dtype=np.float64), labels, k, lambda X: X)


def feature_like(rng, m, d=193):
    """Rows on feature-family scales: offsets up to 250, spreads 0.05 to 30."""
    centre = rng.uniform(-250, 60, d)
    spread = np.exp(rng.uniform(np.log(0.05), np.log(30), d))
    return centre + spread * rng.normal(size=(m, d))


class TestNeighbourSearch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_data(self, seed):
        train = noisy_dataset(40, 70, n_features=193, seed=seed)
        model = train_knn(train.features, train.labels, n_neighbors=5 + seed)
        queries = np.random.default_rng(seed + 10).normal(size=(37, 193))
        assert_matches_oracle(model, queries)

    def test_exact_ties_keep_training_order(self):
        rng = np.random.default_rng(3)
        base = rng.integers(0, 3, size=(15, 3)).astype(float)
        X = np.vstack([base, base, base[:5]])
        y = rng.integers(0, 2, size=len(X))
        y[:2] = [0, 1]
        model = train_knn(X, y, 6)
        queries = rng.integers(0, 3, size=(20, 3)).astype(float)
        dists = np.linalg.norm(
            model.scaler(queries)[:, None, :] - model.train_features[None], axis=2
        )
        assert all(len(np.unique(row)) < row.size for row in dists)
        assert_matches_oracle(model, queries)

    @pytest.mark.parametrize("rows_per_block", [1, 4, 7])
    def test_queries_span_many_blocks(self, monkeypatch, rows_per_block):
        train = noisy_dataset(30, 40, n_features=8, seed=4)
        model = train_knn(train.features, train.labels, n_neighbors=7)
        row_bytes = 8 * model.train_features.shape[0]
        monkeypatch.setattr(learn, "_KNN_BLOCK_BYTES", rows_per_block * row_bytes)
        queries = np.random.default_rng(5).normal(size=(23, 8))
        assert_matches_oracle(model, queries)

    def test_memory_peak_on_2000_by_193(self):
        """Above its output, a search holds a few blocks: the Gram rows, their
        partition, and one chunk of candidate differences with its gather."""
        rng = np.random.default_rng(31)
        T, X = feature_like(rng, 2000), feature_like(rng, 2000)
        block_bytes = learn._KNN_BLOCK_BYTES
        learn._knn(T[:50], X[:50], 5)
        tracemalloc.start()
        try:
            nearest = learn._knn(T, X, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - nearest.nbytes <= 5 * block_bytes, (peak, block_bytes)

    def test_single_query_row(self):
        train = noisy_dataset(12, 18, seed=6)
        model = train_knn(train.features, train.labels, n_neighbors=5)
        assert_matches_oracle(model, train.features[3:4] + 0.25)

    def test_k_equals_training_size(self):
        train = noisy_dataset(9, 11, seed=7)
        model = train_knn(train.features, train.labels, n_neighbors=20)
        queries = np.random.default_rng(8).normal(size=(6, 5))
        assert_matches_oracle(model, queries)
        np.testing.assert_array_equal(predict_knn(model, queries), np.full(6, 9 / 20))

    @pytest.mark.parametrize("seed", range(6))
    def test_near_ties_around_kth_distance(self, seed):
        # 30 rows a few ulps from radius 20 of the query, 3 nearer, 7 farther;
        # the k-th distance falls among the near-ties
        rng = np.random.default_rng(seed)
        query = rng.normal(size=(1, 193))
        directions = rng.normal(size=(40, 193))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = 20.0 * (1 + rng.integers(-4, 5, size=40) * np.finfo(float).eps)
        radii[:3], radii[33:] = 10.0, 30.0
        order = rng.permutation(40)
        T = query + (radii[:, None] * directions)[order]
        model = unscaled_model(T, 4 + 5 * seed)
        dists = np.linalg.norm(query - model.train_features, axis=1)
        kth = np.sort(dists)[model.n_neighbors - 1]
        assert np.sum(np.abs(dists - kth) <= 64 * np.spacing(kth)) >= 20
        assert_matches_oracle(model, query)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_queries_equal_training_rows_with_duplicates(self, k):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(25, 193))
        X = np.vstack([base, base[:10], base[:4], base[:4]])
        y = rng.integers(0, 2, size=len(X))
        y[:2] = [0, 1]
        model = train_knn(X, y, k)
        assert_matches_oracle(model, X)

    def test_huge_scale_column_and_constant_column(self):
        train = noisy_dataset(40, 60, n_features=20, seed=12)
        train.features[:, 0] *= 1e6
        train.features[:, 1] = 3.0
        model = train_knn(train.features, train.labels, n_neighbors=6)
        queries = np.random.default_rng(13).normal(size=(30, 20))
        queries[:, 0] *= 1e6
        queries[:, 1] = 3.0
        queries[::3, 1] = 3.0 + 1e4
        assert_matches_oracle(model, queries)

    def test_one_feature(self):
        rng = np.random.default_rng(14)
        X = np.concatenate([rng.integers(0, 6, size=30), rng.normal(size=20)])[:, None]
        y = rng.integers(0, 2, size=X.shape[0])
        y[:2] = [0, 1]
        model = train_knn(X, y, 7)
        queries = np.concatenate([np.arange(-1.0, 7.0, 0.5), rng.normal(size=10)])
        assert_matches_oracle(model, queries[:, None])

    def test_k_equals_training_size_across_blocks(self, monkeypatch):
        train = noisy_dataset(14, 16, n_features=193, seed=15)
        model = train_knn(train.features, train.labels, n_neighbors=30)
        monkeypatch.setattr(learn, "_KNN_BLOCK_BYTES", 3 * 8 * 30)
        queries = np.vstack(
            [train.features[:5], np.random.default_rng(16).normal(size=(8, 193))]
        )
        assert_matches_oracle(model, queries)

    def test_seeded_1000_by_193(self):
        train = noisy_dataset(333, 667, n_features=193, seed=17)
        model = train_knn(train.features, train.labels, n_neighbors=8)
        queries = np.vstack(
            [train.features[::4], np.random.default_rng(18).normal(size=(100, 193))]
        )
        got = nearest_neighbors(model, queries, model.n_neighbors)
        for start in range(0, len(queries), 25):
            block = slice(start, start + 25)
            want = nearest_oracle(model, queries[block])
            np.testing.assert_array_equal(got[block], want)


class TestSmote:
    @pytest.mark.parametrize(
        "m, k, target, seed",
        [
            (90, 5, 180, 0),
            (90, 1, 95, 1),
            (90, 8, 400, 2),
            (300, 5, 600, 3),
            (300, 3, 420, 4),
        ],
    )
    def test_tie_free_minority_matches_oracle(self, m, k, target, seed):
        minority = feature_like(np.random.default_rng(seed), m)
        got = smote(minority, target, k_neighbors=k, seed=seed)
        want = smote_oracle(minority, target, k_neighbors=k, seed=seed)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_duplicate_rows_pick_an_oracle_distance(self, k):
        # rows 0-5 occur five times, so for some copies k + 1 others are
        # exact duplicates that come first
        rng = np.random.default_rng(20 + k)
        base = feature_like(rng, 20)
        minority = np.vstack([base, base[:12]] + [base[:6]] * 3)
        m, target, seed = len(minority), len(minority) + 600, 7
        got = smote(minority, target, k_neighbors=k, seed=seed)
        draws = np.random.default_rng(seed)
        rows = draws.integers(0, m, size=target - m)
        picks = draws.integers(0, k, size=target - m)
        u = draws.uniform(0.0, 1.0, size=target - m)
        dists = np.linalg.norm(minority[:, None] - minority[None], axis=2)
        np.fill_diagonal(dists, np.inf)
        oracle_dists = np.sort(dists, axis=1)[:, :k]
        tied = 0
        for synth, b, p, frac in zip(got, rows, picks, u):
            others = np.flatnonzero(dists[b] == oracle_dists[b, p])
            tied += len(others) > 1
            x = minority[b]
            assert any(
                np.array_equal(synth, x + frac * (minority[j] - x)) for j in others
            )
        assert tied > 0

    def test_memory_peak_on_300_by_193(self):
        minority = feature_like(np.random.default_rng(30), 300)
        tracemalloc.start()
        try:
            smote(minority, 600, k_neighbors=5, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestGridSearch:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("model_name", ["knn", "logreg"])
    def test_same_params_as_per_params_loop(self, model_name, seed):
        train = noisy_dataset(30, 45, gap=0.7, seed=seed)
        grid = learn.MODEL_GRIDS[model_name]
        assert learn._grid_search(
            model_name, grid, train.features, train.labels, seed
        ) == grid_search_oracle(model_name, grid, train, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_unsorted_knn_grid(self, seed):
        train = noisy_dataset(30, 45, gap=0.7, seed=seed)
        grid = [{"n_neighbors": k} for k in (9, 1, 12, 4, 3)]
        assert learn._grid_search(
            "knn", grid, train.features, train.labels, seed
        ) == grid_search_oracle("knn", grid, train, seed)

    def test_tied_mean_auc_first_in_grid_wins(self):
        # separable blobs: every k ranks each inner fold perfectly
        train = noisy_dataset(25, 30, gap=8.0, seed=9)
        for ks in ((8, 5), (5, 8), (6, 7, 5)):
            grid = [{"n_neighbors": k} for k in ks]
            chosen = learn._grid_search("knn", grid, train.features, train.labels, 11)
            assert chosen == grid[0]
            assert chosen == grid_search_oracle("knn", grid, train, 11)
