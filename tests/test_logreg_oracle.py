"""Newton's-method logistic regression against the gradient descent it
replaced, kept here as an oracle.

`gradient_descent_oracle` is the former body of `train_logreg`:
backtracking gradient descent with a growing step, at most 500
iterations. On every set and penalty Newton's fit must converge, pass
the stop test at its own weights, reach a penalized loss no higher than
the oracle's, and rank held-out rows as the oracle does wherever the
oracle converged.

A fit on a prebuilt `_Design`, as the grid search shares one per inner
fold, is the fit on the raw rows bit for bit, and leaves the design as
it was.

The warm start is held to the cold fit: started from a neighbouring
penalty's weights, a fit must converge, pass the stop test and reach the
cold fit's penalized loss to 1e-9 relative, and the strategy-3 grid
search must keep its iteration saving and its choice.
"""

import numpy as np
import pytest

import coughrank.learn as learn
from coughrank.learn import (
    LOGREG_TOL,
    MODEL_GRIDS,
    Dataset,
    LogregModel,
    _Design,
    _Standardizer,
    _grid_search,
    balance_with_smote,
    logistic_objective,
    predict_logreg,
    stratified_kfold,
    train_logreg,
)
from coughrank.metrics import rank_auc

from test_fold_major import grid_search_oracle
from test_learn import cluster_dataset

L2_VALUES = (0.01, 0.1, 1.0, 10.0, 1e6)


def gradient_descent_oracle(train, l2_strength=1.0, max_iter=500, tol=1e-6):
    """Fit L2-penalized logistic regression by gradient descent.

    Uses backtracking line search on the penalized negative
    log-likelihood. Non-convergence within max_iter is reported on the
    returned model, never raised.
    """
    y = train.labels
    if len(np.unique(y)) < 2:
        raise ValueError("both classes required to fit logistic regression")
    scaler = _Standardizer(train.features)
    X = scaler(train.features)
    w = np.zeros(X.shape[1] + 1)
    loss, grad = logistic_objective(w, X, y, l2_strength)
    step = 1.0 / max(1.0, np.linalg.norm(grad))
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        trial = w - step * grad
        trial_loss, trial_grad = logistic_objective(trial, X, y, l2_strength)
        if trial_loss <= loss - 1e-12:
            w, loss, grad = trial, trial_loss, trial_grad
            step *= 1.2
        else:
            step *= 0.5
            if step < 1e-12:
                break
            continue
        if np.linalg.norm(grad) < tol * max(1.0, abs(loss)):
            converged = True
            break
    return LogregModel(weights=w, scaler=scaler, converged=converged, n_iter=it)


def smote_fold(seed=3):
    """One outer SMOTE fit set of a 300 x 193 table shaped like the
    pipeline benchmark's: 100 : 200 classes, a 0.4-sd class shift spread
    over every column, noise from 8 shared factors, 8 label pairs
    swapped, and column scales from 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    n_pos, n_neg, d = 100, 200, 193
    n = n_pos + n_neg
    y = np.array([1] * n_pos + [0] * n_neg)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    X = rng.normal(size=(n, d)) + rng.normal(size=(n, 8)) @ rng.normal(size=(8, d))
    X += 0.4 * np.sqrt(d) * y[:, None] * direction
    swap = np.concatenate(
        [rng.choice(n_pos, 8, replace=False), n_pos + rng.choice(n_neg, 8, replace=False)]
    )
    y[swap] = 1 - y[swap]
    X *= 10.0 ** rng.uniform(-3, 3, d)
    test = stratified_kfold(y, learn.OUTER_FOLDS, seed=seed).assignments == 0
    X_fit, y_fit = balance_with_smote(X[~test], y[~test], seed=seed)
    return Dataset(X_fit, y_fit, [f"f{i}" for i in range(len(y_fit))]), X[test], y[test]


def separable():
    train = cluster_dataset(40, 40, n_features=5, gap=3.0, seed=21)
    held_out = cluster_dataset(20, 20, n_features=5, gap=3.0, seed=22)
    return train, held_out.features, held_out.labels


def constant_column():
    train, X_te, y_te = separable()

    def pad(X):
        return np.hstack([X, np.full((X.shape[0], 1), 2.5)])

    return Dataset(pad(train.features), train.labels, train.sample_ids), pad(X_te), y_te


def overlapping():
    train = cluster_dataset(30, 45, gap=0.7, seed=23)
    held_out = cluster_dataset(30, 45, gap=0.7, seed=24)
    return train, held_out.features, held_out.labels


SETS = {
    "smote_fold": smote_fold,
    "separable": separable,
    "constant_column": constant_column,
    "overlapping": overlapping,
}


@pytest.mark.parametrize("l2", L2_VALUES)
@pytest.mark.parametrize("set_name", sorted(SETS))
def test_newton_against_gradient_descent(set_name, l2):
    train, X_te, y_te = SETS[set_name]()
    newton = train_logreg(train.features, train.labels, l2_strength=l2)
    oracle = gradient_descent_oracle(train, l2_strength=l2)
    assert newton.converged and 1 <= newton.n_iter <= learn.LOGREG_MAX_ITER
    X = newton.scaler(train.features)
    newton_loss, grad = logistic_objective(newton.weights, X, train.labels, l2)
    oracle_loss, _ = logistic_objective(oracle.weights, X, train.labels, l2)
    assert np.linalg.norm(grad) < LOGREG_TOL * max(1.0, abs(newton_loss))
    # Both fits stop on the same relative gradient test, so where the
    # oracle also converged the two losses may differ in the last digits
    # either way; the slack is far below any loss the oracle leaves
    # behind when it does not converge.
    assert newton_loss <= oracle_loss + 1e-9 * max(1.0, abs(oracle_loss))
    if oracle.converged:
        newton_auc = rank_auc(y_te, predict_logreg(newton, X_te))
        oracle_auc = rank_auc(y_te, predict_logreg(oracle, X_te))
        assert abs(newton_auc - oracle_auc) <= 1e-6


@pytest.mark.parametrize("l2", L2_VALUES)
@pytest.mark.parametrize("set_name", sorted(SETS))
def test_design_fit_is_the_raw_fit(set_name, l2):
    train, _, _ = SETS[set_name]()
    design = _Design(train.features)
    kept = design.X.copy(), design.Xa.copy()
    warm = train_logreg(train.features, train.labels, l2_strength=10 * l2).weights
    for init in (None, warm):
        raw = train_logreg(train.features, train.labels, l2_strength=l2, init=init)
        shared = train_logreg(design, train.labels, l2_strength=l2, init=init)
        assert shared.weights.tobytes() == raw.weights.tobytes()
        assert (shared.n_iter, shared.converged) == (raw.n_iter, raw.converged)
    assert design.X.tobytes() == kept[0].tobytes() and design.Xa.tobytes() == kept[1].tobytes()


@pytest.mark.parametrize("set_name", sorted(SETS))
def test_design_is_one_buffer(set_name):
    """X is Xa without its ones column, as a view, and both hold the rows
    standardized and stacked as they were when they were two arrays."""
    train, _, _ = SETS[set_name]()
    design = _Design(train.features)
    scaled = (train.features - design.scaler.mean) / design.scaler.std
    stacked = np.hstack([scaled, np.ones((scaled.shape[0], 1))])
    assert np.shares_memory(design.X, design.Xa)
    assert design.Xa.tobytes() == stacked.tobytes() and design.X.tobytes() == scaled.tobytes()


def test_iteration_cap_reported_not_raised(monkeypatch):
    monkeypatch.setattr(learn, "LOGREG_MAX_ITER", 1)
    train, _, _ = overlapping()
    model = train_logreg(train.features, train.labels, l2_strength=0.01)
    assert (model.converged, model.n_iter) == (False, 1)


@pytest.mark.parametrize("l2", [0.0, -1.0])
def test_non_positive_penalty_rejected(l2):
    train, _, _ = separable()
    with pytest.raises(ValueError, match="l2_strength"):
        train_logreg(train.features, train.labels, l2_strength=l2)


def penalized_loss_and_stop(model, train, l2):
    """The fit's penalized loss, and whether its gradient passes the stop test."""
    X = model.scaler(train.features)
    loss, grad = logistic_objective(model.weights, X, train.labels, l2)
    return loss, np.linalg.norm(grad) < LOGREG_TOL * max(1.0, abs(loss))


NEIGHBOURS = list(zip(L2_VALUES, L2_VALUES[1:])) + list(zip(L2_VALUES[1:], L2_VALUES))


@pytest.mark.parametrize("l2, from_l2", NEIGHBOURS)
@pytest.mark.parametrize("set_name", sorted(SETS))
def test_warm_start_reaches_cold_fit(set_name, l2, from_l2, monkeypatch):
    train, _, _ = SETS[set_name]()
    init = train_logreg(train.features, train.labels, l2_strength=from_l2).weights
    kept = init.copy()
    cold = train_logreg(train.features, train.labels, l2_strength=l2)
    starts = []
    objective = learn.logistic_objective

    def spy(w, *args):
        starts.append(w.copy())
        return objective(w, *args)

    monkeypatch.setattr(learn, "logistic_objective", spy)
    warm = train_logreg(train.features, train.labels, l2_strength=l2, init=init)
    monkeypatch.undo()
    assert np.array_equal(starts[0], kept)
    assert np.array_equal(init, kept)
    assert warm.converged and 1 <= warm.n_iter <= learn.LOGREG_MAX_ITER
    warm_loss, stops = penalized_loss_and_stop(warm, train, l2)
    cold_loss, _ = penalized_loss_and_stop(cold, train, l2)
    assert stops
    assert abs(warm_loss - cold_loss) <= 1e-9 * max(1.0, abs(cold_loss))


@pytest.mark.parametrize("zeros", [False, True], ids=["none", "zeros"])
def test_zero_start_is_the_cold_fit(zeros):
    train, _, _ = overlapping()
    d = train.features.shape[1]
    init = np.zeros(d + 1) if zeros else None
    cold = train_logreg(train.features, train.labels, l2_strength=0.1)
    got = train_logreg(train.features, train.labels, l2_strength=0.1, init=init)
    assert np.array_equal(got.weights, cold.weights)
    assert (got.converged, got.n_iter) == (cold.converged, cold.n_iter)
    if zeros:
        assert np.array_equal(init, np.zeros(d + 1))


def test_warm_grid_search_iterations(monkeypatch):
    # The same inner folds fitted cold take 160 Newton iterations.
    train, _, _ = smote_fold(3)
    assert train.features.shape == (360, 193)
    fits = []
    fit = learn.train_logreg

    def counting(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(learn, "train_logreg", counting)
    grid = MODEL_GRIDS["logreg"]
    params = _grid_search("logreg", grid, train.features, train.labels, 7)
    monkeypatch.undo()
    assert len(fits) == 20 and all(model.converged for model in fits)
    assert sum(model.n_iter for model in fits) <= 110
    assert params == grid_search_oracle("logreg", grid, train, 7)
