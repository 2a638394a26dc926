"""The fold loops of `learn` against the loops they replaced.

`per_strategy_oracle` is the former body of `run_strategy`: one full
pass over the outer folds per (model, strategy) cell, each with its own
fold plan, split and SMOTE call. `grid_search_oracle` is the former
`_grid_search` and `rfecv_oracle` the former `rfecv`, both with a
boolean test mask and a checked `Dataset` per fold, and `rfecv_oracle`
with a fold plan rebuilt at every size. `run_strategies` and `rfecv`
must give the same results, bit for bit.
"""

import numpy as np
import pytest

import coughrank.learn as learn
from coughrank.cli import main
from coughrank.learn import (
    MODEL_DEFAULTS,
    MODEL_GRIDS,
    OUTER_FOLDS,
    Dataset,
    StrategyConfig,
    INNER_FOLDS,
    balance_with_smote,
    predict_logreg,
    rfecv,
    run_strategies,
    stratified_kfold,
    stratified_splits,
    train_knn,
    train_logreg,
)
from coughrank.metrics import PredictionSet, rank_auc, threshold_sweep

from test_cli import make_features_csv
from test_learn import cluster_dataset

STANDARD_CELLS = [
    (model, StrategyConfig.standard(s)) for s in (1, 2, 3) for model in ("knn", "logreg")
]


def nearest_neighbors(model, features, k):
    """Indices of the k nearest training points of each query, nearest first."""
    X = model.scaler(np.asarray(features, dtype=np.float64))
    return learn._knn(model.train_features, X, k)


def predict_knn_per_model(model, features):
    """The former `predict_knn`: one search per model, at its own k."""
    nearest = nearest_neighbors(model, features, model.n_neighbors)
    return model.train_labels[nearest].mean(axis=1)


# the fit and predict functions of each model, as the former fold loops called them
TRAINERS = {
    "knn": (train_knn, predict_knn_per_model),
    "logreg": (train_logreg, predict_logreg),
}


def grid_search_oracle(model_name, grid, train, seed):
    plan = stratified_kfold(train.labels, INNER_FOLDS, seed=seed)
    aucs = [[] for _ in grid]
    for fold in range(INNER_FOLDS):
        test_mask = plan.assignments == fold
        inner_train = Dataset(
            train.features[~test_mask],
            train.labels[~test_mask],
            [train.sample_ids[i] for i in np.flatnonzero(~test_mask)],
        )
        test_features = train.features[test_mask]
        test_labels = train.labels[test_mask]
        if model_name == "knn":
            k_max = max(params["n_neighbors"] for params in grid)
            model = train_knn(inner_train.features, inner_train.labels, n_neighbors=k_max)
            neighbor_labels = model.train_labels[
                nearest_neighbors(model, test_features, k_max)
            ]
            for fold_aucs, params in zip(aucs, grid):
                scores = neighbor_labels[:, : params["n_neighbors"]].mean(axis=1)
                fold_aucs.append(rank_auc(test_labels, scores))
        else:
            fit, predict = TRAINERS[model_name]
            for fold_aucs, params in zip(aucs, grid):
                model = fit(inner_train.features, inner_train.labels, **params)
                scores = predict(model, test_features)
                fold_aucs.append(rank_auc(test_labels, scores))
    best = None
    for fold_aucs, params in zip(aucs, grid):
        mean_auc = float(np.mean(fold_aucs))
        if best is None or mean_auc > best[0]:
            best = (mean_auc, params)
    return best[1]


def per_strategy_oracle(ds, model_name, cfg, seed, smote_k=5, threshold_objective="f1"):
    plan = stratified_kfold(ds.labels, OUTER_FOLDS, seed=seed)
    oof_scores = np.zeros(ds.features.shape[0])
    thresholds = []
    for fold in range(OUTER_FOLDS):
        test_mask = plan.assignments == fold
        train_idx = np.flatnonzero(~test_mask)
        X_tr, y_tr = ds.features[train_idx], ds.labels[train_idx]
        ids_tr = [ds.sample_ids[i] for i in train_idx]
        if cfg.use_smote:
            X_fit, y_fit = balance_with_smote(
                X_tr, y_tr, k_neighbors=smote_k, seed=seed + fold
            )
            ids_fit = ids_tr + [
                f"synthetic_{fold}_{i}" for i in range(len(y_fit) - len(y_tr))
            ]
        else:
            X_fit, y_fit, ids_fit = X_tr, y_tr, ids_tr
        fit_set = Dataset(X_fit, y_fit, ids_fit)
        if cfg.id == 3:
            params = grid_search_oracle(
                model_name, MODEL_GRIDS[model_name], fit_set, seed + fold
            )
        else:
            params = MODEL_DEFAULTS[model_name]
        fit, predict = TRAINERS[model_name]
        model = fit(fit_set.features, fit_set.labels, **params)
        oof_scores[test_mask] = predict(model, ds.features[test_mask])
        train_preds = PredictionSet(
            model_name, str(cfg.id), ids_tr, y_tr, np.clip(predict(model, X_tr), 0.0, 1.0)
        )
        thresholds.append(
            threshold_sweep(
                train_preds.true_labels, train_preds.scores, objective=threshold_objective
            )
        )
    order = np.argsort(np.asarray(ds.sample_ids, dtype=object), kind="stable")
    return PredictionSet(
        model_name=model_name,
        strategy_id=str(cfg.id),
        sample_ids=[ds.sample_ids[i] for i in order],
        true_labels=ds.labels[order],
        scores=np.clip(oof_scores[order], 0.0, 1.0),
        threshold=float(np.mean(thresholds)),
    )


def assert_matches_oracle(ds, cells, seed, smote_k=5):
    got = run_strategies(ds, cells, seed=seed, smote_k=smote_k)
    assert len(got) == len(cells)
    for preds, (model_name, cfg) in zip(got, cells):
        want = per_strategy_oracle(ds, model_name, cfg, seed, smote_k=smote_k)
        assert (preds.model_name, preds.strategy_id) == (model_name, str(cfg.id))
        assert preds.sample_ids == want.sample_ids
        assert np.array_equal(preds.true_labels, want.true_labels)
        assert np.array_equal(preds.scores, want.scores), (model_name, cfg.id)
        assert preds.threshold == want.threshold, (model_name, cfg.id)


@pytest.mark.parametrize(
    "n_pos, n_neg, seed, smote_k",
    [(18, 42, 5, 5), (25, 25, 6, 5), (OUTER_FOLDS, 30, 7, 3)],
    ids=["imbalanced", "balanced", "minimum_class_size"],
)
def test_all_six_cells_match_per_strategy_loop(n_pos, n_neg, seed, smote_k):
    ds = cluster_dataset(n_pos, n_neg, n_features=5, gap=1.2, seed=seed)
    assert_matches_oracle(ds, STANDARD_CELLS, seed, smote_k=smote_k)


def test_non_standard_cell_order():
    ds = cluster_dataset(16, 34, n_features=4, gap=1.0, seed=8)
    s1, s2, s3 = (StrategyConfig.standard(s) for s in (1, 2, 3))
    cells = [("logreg", s3), ("knn", s1), ("knn", s3), ("logreg", s1), ("knn", s2)]
    assert_matches_oracle(ds, cells, seed=11)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(learn, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(learn, name, counting)
    return calls


def test_no_smote_without_smote_cells(monkeypatch):
    calls = count_calls(monkeypatch, "smote")
    ds = cluster_dataset(15, 30, seed=9)
    cells = [("knn", StrategyConfig.standard(1)), ("logreg", StrategyConfig.standard(1))]
    run_strategies(ds, cells, seed=3)
    assert calls == []


def test_pipeline_runs_smote_once_per_outer_fold(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, "smote")
    features = tmp_path / "features.csv"
    make_features_csv(features, n_pos=14, n_neg=26, gap=0.25, seed=4)
    assert main(["pipeline", str(features), "--out", str(tmp_path / "out")]) in (0, 3)
    assert len(calls) == OUTER_FOLDS


def test_eight_neighbour_searches_per_outer_fold(monkeypatch):
    """SMOTE's, one per fit set for all its k-NN cells, and one per inner
    grid-search fold."""
    calls = count_calls(monkeypatch, "_knn")
    ds = cluster_dataset(18, 42, n_features=5, gap=1.2, seed=5)
    run_strategies(ds, STANDARD_CELLS, seed=5, map=map)
    assert len(calls) == OUTER_FOLDS * (1 + 2 + INNER_FOLDS) == 80


def cv_auc_oracle(ds, mask, k_folds, seed):
    plan = stratified_kfold(ds.labels, k_folds, seed=seed)
    aucs = []
    for fold in range(k_folds):
        test = plan.assignments == fold
        train = Dataset(
            ds.features[~test][:, mask],
            ds.labels[~test],
            [ds.sample_ids[i] for i in np.flatnonzero(~test)],
        )
        fit, predict = TRAINERS["logreg"]
        model = fit(train.features, train.labels, **MODEL_DEFAULTS["logreg"])
        scores = predict(model, ds.features[test][:, mask])
        aucs.append(rank_auc(ds.labels[test], scores))
    return float(np.mean(aucs))


def rfecv_oracle(ds, step, k_folds, seed):
    d = ds.features.shape[1]
    mask = np.ones(d, dtype=bool)
    curve = []
    best_mask, best_score = None, None
    while True:
        size = int(mask.sum())
        score = cv_auc_oracle(ds, mask, k_folds, seed)
        curve.append((size, score))
        if (
            best_score is None
            or score > best_score
            or (score == best_score and size < int(best_mask.sum()))
        ):
            best_mask, best_score = mask.copy(), score
        if size <= step:
            break
        sub = Dataset(ds.features[:, mask], ds.labels, ds.sample_ids)
        importance = np.abs(learn.train_logreg(sub.features, sub.labels).weights[:-1])
        drop_local = np.argsort(importance, kind="stable")[:step]
        active = np.flatnonzero(mask)
        mask = mask.copy()
        mask[active[drop_local]] = False
        if not mask.any():
            break
    return best_mask, curve


@pytest.mark.parametrize("k_folds", [3, 5])
@pytest.mark.parametrize("step", [1, 2, 5])
@pytest.mark.parametrize("seed", [12, 13])
def test_rfecv_matches_per_size_plan_loop(seed, step, k_folds):
    ds = cluster_dataset(17, 28, n_features=11, gap=0.6, seed=seed)
    mask, curve = rfecv(ds, step=step, k_folds=k_folds, seed=seed)
    want_mask, want_curve = rfecv_oracle(ds, step, k_folds, seed)
    assert np.array_equal(mask, want_mask)
    assert [(size, auc.hex()) for size, auc in curve] == [
        (size, auc.hex()) for size, auc in want_curve
    ]


@pytest.mark.parametrize("k", [2, 3, 10])
def test_stratified_splits_partition_rows_by_plan(k):
    labels = np.random.default_rng(k).permutation([1] * 13 + [0] * 24)
    assignments = stratified_kfold(labels, k, seed=5).assignments
    splits = stratified_splits(labels, k, seed=5)
    assert len(splits) == k
    for fold, (train_idx, test_idx) in enumerate(splits):
        np.testing.assert_array_equal(test_idx, np.flatnonzero(assignments == fold))
        assert np.all(np.diff(train_idx) > 0) and np.all(np.diff(test_idx) > 0)
        np.testing.assert_array_equal(
            np.sort(np.concatenate([train_idx, test_idx])), np.arange(labels.size)
        )
    tests = np.concatenate([test_idx for _, test_idx in splits])
    np.testing.assert_array_equal(np.sort(tests), np.arange(labels.size))
