"""The fold-major training loop against the per-strategy loop it replaced.

`per_strategy_oracle` is the former body of `run_strategy`: one full
pass over the outer folds per (model, strategy) cell, each with its own
fold plan, split and SMOTE call. `run_strategies` must give the same
scores and thresholds, bit for bit, for every cell.
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
    balance_with_smote,
    run_strategies,
    stratified_kfold,
)
from coughrank.metrics import PredictionSet, threshold_sweep

from test_cli import make_features_csv
from test_learn import cluster_dataset

STANDARD_CELLS = [
    (model, StrategyConfig.standard(s)) for s in (1, 2, 3) for model in ("knn", "logreg")
]


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
            params = learn._grid_search(
                model_name, MODEL_GRIDS[model_name], fit_set, seed + fold
            )
        else:
            params = MODEL_DEFAULTS[model_name]
        fit, predict = learn._TRAINERS[model_name]
        model = fit(fit_set, **params)
        oof_scores[test_mask] = predict(model, ds.features[test_mask])
        train_preds = PredictionSet(
            model_name, str(cfg.id), ids_tr, y_tr, np.clip(predict(model, X_tr), 0.0, 1.0)
        )
        thresholds.append(threshold_sweep(train_preds, objective=threshold_objective))
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


def count_smote_calls(monkeypatch):
    calls = []
    original = learn.smote

    def counting_smote(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(learn, "smote", counting_smote)
    return calls


def test_no_smote_without_smote_cells(monkeypatch):
    calls = count_smote_calls(monkeypatch)
    ds = cluster_dataset(15, 30, seed=9)
    cells = [("knn", StrategyConfig.standard(1)), ("logreg", StrategyConfig.standard(1))]
    run_strategies(ds, cells, seed=3)
    assert calls == []


def test_pipeline_runs_smote_once_per_outer_fold(tmp_path, monkeypatch):
    calls = count_smote_calls(monkeypatch)
    features = tmp_path / "features.csv"
    make_features_csv(features, n_pos=14, n_neg=26, gap=0.25, seed=4)
    assert main(["pipeline", str(features), "--out", str(tmp_path / "out")]) in (0, 3)
    assert len(calls) == OUTER_FOLDS
