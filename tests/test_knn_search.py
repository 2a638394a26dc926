"""The blocked k-NN neighbour search and the shared-order grid search,
checked against the full-tensor code they replaced, kept here as oracles."""

import numpy as np
import pytest

import coughrank.learn as learn
from coughrank.learn import (
    INNER_FOLDS,
    Dataset,
    predict_knn,
    predict_logreg,
    stratified_kfold,
    train_knn,
    train_logreg,
)
from coughrank.metrics import rank_auc


def nearest_oracle(model, features):
    """One n_query x n_train x d difference tensor, one stable argsort."""
    X = model.scaler(np.asarray(features, dtype=np.float64))
    dists = np.linalg.norm(
        X[:, None, :] - model.train_features[None, :, :], axis=2
    )
    return np.argsort(dists, axis=1, kind="stable")[:, : model.n_neighbors]


def predict_knn_oracle(model, features):
    return model.train_labels[nearest_oracle(model, features)].mean(axis=1)


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
            scores = predict(fit(inner_train, **params), train.features[test_mask])
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
        learn._nearest_neighbors(model, queries, model.n_neighbors),
        nearest_oracle(model, queries),
    )
    new, old = predict_knn(model, queries), predict_knn_oracle(model, queries)
    assert np.array_equal(new, old)


class TestNeighbourSearch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_data(self, seed):
        train = noisy_dataset(40, 70, n_features=193, seed=seed)
        model = train_knn(train, n_neighbors=5 + seed)
        queries = np.random.default_rng(seed + 10).normal(size=(37, 193))
        assert_matches_oracle(model, queries)

    def test_exact_ties_keep_training_order(self):
        rng = np.random.default_rng(3)
        base = rng.integers(0, 3, size=(15, 3)).astype(float)
        X = np.vstack([base, base, base[:5]])
        y = rng.integers(0, 2, size=len(X))
        y[:2] = [0, 1]
        model = train_knn(Dataset(X, y, [f"t{i}" for i in range(len(X))]), 6)
        queries = rng.integers(0, 3, size=(20, 3)).astype(float)
        dists = np.linalg.norm(
            model.scaler(queries)[:, None, :] - model.train_features[None], axis=2
        )
        assert all(len(np.unique(row)) < row.size for row in dists)
        assert_matches_oracle(model, queries)

    @pytest.mark.parametrize("rows_per_block", [1, 4, 7])
    def test_queries_span_many_blocks(self, monkeypatch, rows_per_block):
        train = noisy_dataset(30, 40, n_features=8, seed=4)
        model = train_knn(train, n_neighbors=7)
        row_bytes = model.train_features.nbytes
        monkeypatch.setattr(learn, "_KNN_BLOCK_BYTES", rows_per_block * row_bytes)
        queries = np.random.default_rng(5).normal(size=(23, 8))
        assert_matches_oracle(model, queries)

    def test_single_query_row(self):
        train = noisy_dataset(12, 18, seed=6)
        model = train_knn(train, n_neighbors=5)
        assert_matches_oracle(model, train.features[3:4] + 0.25)

    def test_k_equals_training_size(self):
        train = noisy_dataset(9, 11, seed=7)
        model = train_knn(train, n_neighbors=20)
        queries = np.random.default_rng(8).normal(size=(6, 5))
        assert_matches_oracle(model, queries)
        np.testing.assert_array_equal(predict_knn(model, queries), np.full(6, 9 / 20))


class TestGridSearch:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("model_name", ["knn", "logreg"])
    def test_same_params_as_per_params_loop(self, model_name, seed):
        train = noisy_dataset(30, 45, gap=0.7, seed=seed)
        grid = learn.MODEL_GRIDS[model_name]
        assert learn._grid_search(model_name, grid, train, seed) == (
            grid_search_oracle(model_name, grid, train, seed)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_unsorted_knn_grid(self, seed):
        train = noisy_dataset(30, 45, gap=0.7, seed=seed)
        grid = [{"n_neighbors": k} for k in (9, 1, 12, 4, 3)]
        assert learn._grid_search("knn", grid, train, seed) == (
            grid_search_oracle("knn", grid, train, seed)
        )

    def test_tied_mean_auc_first_in_grid_wins(self):
        # separable blobs: every k ranks each inner fold perfectly
        train = noisy_dataset(25, 30, gap=8.0, seed=9)
        for ks in ((8, 5), (5, 8), (6, 7, 5)):
            grid = [{"n_neighbors": k} for k in ks]
            chosen = learn._grid_search("knn", grid, train, 11)
            assert chosen == grid[0]
            assert chosen == grid_search_oracle("knn", grid, train, 11)
