"""Newton's-method logistic regression against the gradient descent it
replaced, kept here as an oracle.

`gradient_descent_oracle` is the former body of `train_logreg`:
backtracking gradient descent with a growing step, at most 500
iterations. On every set and penalty Newton's fit must converge, pass
the stop test at its own weights, reach a penalized loss no higher than
the oracle's, and rank held-out rows as the oracle does wherever the
oracle converged.
"""

import numpy as np
import pytest

import coughrank.learn as learn
from coughrank.learn import (
    LOGREG_TOL,
    Dataset,
    LogregModel,
    _Standardizer,
    balance_with_smote,
    logistic_objective,
    predict_logreg,
    stratified_kfold,
    train_logreg,
)
from coughrank.metrics import rank_auc

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
