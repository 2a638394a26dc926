"""Training machinery: stratified CV, SMOTE, two reference classifiers,
nested grid search and recursive feature elimination.

Only k-NN and L2 logistic regression are trained here; predictions of
any other classifier enter the pipeline through the predictions.csv
ingestion format.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import PredictionSet, rank_auc, threshold_sweep

DEFAULT_SEED = 42
OUTER_FOLDS = 10
INNER_FOLDS = 5

MODEL_GRIDS = {
    "knn": [{"n_neighbors": k} for k in (5, 6, 7, 8)],
    "logreg": [{"l2_strength": c} for c in (0.01, 0.1, 1.0, 10.0)],
}
MODEL_DEFAULTS = {
    "knn": {"n_neighbors": 5},
    "logreg": {"l2_strength": 1.0},
}
# Size of the query-block x train x feature difference tensor of one
# k-NN distance block; with its squared copy it stays within a 2 MiB L2.
_KNN_BLOCK_BYTES = 2**20


@dataclass
class Dataset:
    """Feature matrix, binary labels and sample identifiers."""

    features: np.ndarray
    labels: np.ndarray
    sample_ids: list

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.features.ndim != 2:
            raise ValueError("features must be 2-D")
        n = self.features.shape[0]
        if self.labels.shape != (n,) or len(self.sample_ids) != n:
            raise ValueError("features, labels and ids must align")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if not set(np.unique(self.labels)) <= {0, 1}:
            raise ValueError("labels must be binary 0/1")


@dataclass
class FoldPlan:
    k: int
    assignments: np.ndarray
    seed: int


@dataclass
class StrategyConfig:
    """One of the three training regimes.

    1: plain stratified CV, fixed hyper-parameters.
    2: SMOTE on the training folds, fixed hyper-parameters.
    3: SMOTE plus nested inner-CV grid search.
    """

    id: int
    use_smote: bool
    threshold_moving: bool = True
    hyperparam_mode: str = "fixed"

    @classmethod
    def standard(cls, strategy_id):
        if strategy_id == 1:
            return cls(1, use_smote=False)
        if strategy_id == 2:
            return cls(2, use_smote=True)
        if strategy_id == 3:
            return cls(3, use_smote=True, hyperparam_mode="nested_grid")
        raise ValueError(f"unknown strategy id {strategy_id}")


def stratified_kfold(labels, k, seed=DEFAULT_SEED):
    """Deterministic stratified fold assignment.

    Within each class, shuffled members are dealt cyclically over the
    folds, so per-fold class counts differ from the proportional share
    by less than 1.
    """
    labels = np.asarray(labels, dtype=int)
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    assignments = np.empty(labels.size, dtype=int)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        if idx.size < k:
            raise ValueError(f"class {cls} has fewer than {k} members")
        rng.shuffle(idx)
        assignments[idx] = np.arange(idx.size) % k
    return FoldPlan(k=k, assignments=assignments, seed=seed)


def smote(minority, target_count, k_neighbors=5, seed=DEFAULT_SEED):
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


def balance_with_smote(features, labels, k_neighbors=5, seed=DEFAULT_SEED):
    """Oversample the minority class up to the majority count."""
    labels = np.asarray(labels, dtype=int)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == n_neg:
        return features, labels
    minority_label = 1 if n_pos < n_neg else 0
    target = max(n_pos, n_neg)
    minority = features[labels == minority_label]
    synth = smote(minority, target, k_neighbors=k_neighbors, seed=seed)
    return (
        np.vstack([features, synth]),
        np.concatenate([labels, np.full(len(synth), minority_label)]),
    )


class _Standardizer:
    """Train-fold mean/std scaling; constant columns pass through."""

    def __init__(self, X):
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.std = np.where(std > 0, std, 1.0)

    def __call__(self, X):
        return (X - self.mean) / self.std


@dataclass
class KnnModel:
    train_features: np.ndarray
    train_labels: np.ndarray
    n_neighbors: int
    scaler: _Standardizer


def train_knn(train, n_neighbors=5):
    """Fit a k-nearest-neighbor scorer on standardized features."""
    if train.features.shape[0] == 0:
        raise ValueError("empty training set")
    if n_neighbors > train.features.shape[0]:
        raise ValueError("n_neighbors exceeds training set size")
    scaler = _Standardizer(train.features)
    return KnnModel(
        train_features=scaler(train.features),
        train_labels=train.labels,
        n_neighbors=n_neighbors,
        scaler=scaler,
    )


def _nearest_neighbors(model, features, k):
    """Indices of the k nearest training points of each query, nearest first.

    Distances are computed a block of query rows at a time, so the
    difference tensor stays near _KNN_BLOCK_BYTES; each row's distances
    and their stable order do not depend on the block size.
    """
    X = model.scaler(np.asarray(features, dtype=np.float64))
    T = model.train_features
    rows = max(1, _KNN_BLOCK_BYTES // T.nbytes)
    nearest = np.empty((X.shape[0], k), dtype=np.intp)
    for start in range(0, X.shape[0], rows):
        Xb = X[start : start + rows]
        dists = np.linalg.norm(Xb[:, None, :] - T[None], axis=2)
        nearest[start : start + rows] = np.argsort(dists, axis=1, kind="stable")[:, :k]
    return nearest


def predict_knn(model, features):
    """Score = fraction of the k nearest training points labeled positive."""
    nearest = _nearest_neighbors(model, features, model.n_neighbors)
    return model.train_labels[nearest].mean(axis=1)


def logistic_objective(w, X, y, l2_strength):
    """Penalized negative log-likelihood and its gradient.

    The intercept (last weight) is not penalized.
    """
    z = X @ w[:-1] + w[-1]
    # log(1 + exp(z)) computed stably
    log1pexp = np.logaddexp(0.0, z)
    nll = np.sum(log1pexp - y * z) + 0.5 * l2_strength * np.sum(w[:-1] ** 2)
    p = 1.0 / (1.0 + np.exp(-z))
    grad_w = X.T @ (p - y) + l2_strength * w[:-1]
    grad_b = np.sum(p - y)
    return nll, np.concatenate([grad_w, [grad_b]])


@dataclass
class LogregModel:
    weights: np.ndarray
    scaler: _Standardizer
    converged: bool
    n_iter: int


def train_logreg(train, l2_strength=1.0, max_iter=500, tol=1e-6):
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


def predict_logreg(model, features):
    """Logistic scores of the fitted linear predictor."""
    X = model.scaler(np.asarray(features, dtype=np.float64))
    z = X @ model.weights[:-1] + model.weights[-1]
    return 1.0 / (1.0 + np.exp(-z))


_TRAINERS = {
    "knn": (train_knn, predict_knn),
    "logreg": (train_logreg, predict_logreg),
}


def _fit_predict(model_name, params, train, test_features):
    fit, predict = _TRAINERS[model_name]
    return predict(fit(train, **params), test_features)


def _grid_search(model_name, grid, train, seed):
    """Inner stratified CV over the grid, selecting on mean AUC.

    For k-NN one neighbour search per inner fold, at the largest k of
    the grid, scores every k.
    """
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
            model = train_knn(inner_train, n_neighbors=k_max)
            neighbor_labels = model.train_labels[
                _nearest_neighbors(model, test_features, k_max)
            ]
            for fold_aucs, params in zip(aucs, grid):
                scores = neighbor_labels[:, : params["n_neighbors"]].mean(axis=1)
                fold_aucs.append(rank_auc(test_labels, scores))
        else:
            for fold_aucs, params in zip(aucs, grid):
                scores = _fit_predict(model_name, params, inner_train, test_features)
                fold_aucs.append(rank_auc(test_labels, scores))
    best = None
    for fold_aucs, params in zip(aucs, grid):
        mean_auc = float(np.mean(fold_aucs))
        if best is None or mean_auc > best[0]:
            best = (mean_auc, params)
    return best[1]


def run_strategy(
    ds,
    model_name,
    cfg,
    seed=DEFAULT_SEED,
    smote_k=5,
    threshold_grid=None,
    threshold_objective="f1",
):
    """Out-of-fold predictions for one model under one training strategy.

    Outer 10-fold stratified CV; SMOTE is applied to the training
    portion only. Strategy 3 picks hyper-parameters per outer fold by
    inner 5-fold grid search on AUC. The decision threshold is chosen
    on training-fold predictions and averaged over folds.
    """
    if model_name not in _TRAINERS:
        raise ValueError(f"unknown model {model_name!r}")
    plan = stratified_kfold(ds.labels, OUTER_FOLDS, seed=seed)
    n = ds.features.shape[0]
    oof_scores = np.zeros(n)
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
        if cfg.hyperparam_mode == "nested_grid":
            params = _grid_search(
                model_name, MODEL_GRIDS[model_name], fit_set, seed + fold
            )
        else:
            params = MODEL_DEFAULTS[model_name]
        fit, predict = _TRAINERS[model_name]
        model = fit(fit_set, **params)
        oof_scores[test_mask] = predict(model, ds.features[test_mask])
        if cfg.threshold_moving:
            train_preds = PredictionSet(
                model_name,
                str(cfg.id),
                ids_tr,
                y_tr,
                np.clip(predict(model, X_tr), 0.0, 1.0),
            )
            kwargs = {"objective": threshold_objective}
            if threshold_grid is not None:
                kwargs["grid"] = threshold_grid
            thresholds.append(threshold_sweep(train_preds, **kwargs))
    threshold = float(np.mean(thresholds)) if thresholds else 0.5
    order = np.argsort(np.asarray(ds.sample_ids, dtype=object), kind="stable")
    return PredictionSet(
        model_name=model_name,
        strategy_id=str(cfg.id),
        sample_ids=[ds.sample_ids[i] for i in order],
        true_labels=ds.labels[order],
        scores=np.clip(oof_scores[order], 0.0, 1.0),
        threshold=threshold,
    )


def _logreg_importance(ds):
    model = train_logreg(ds)
    return np.abs(model.weights[:-1])


def _cv_auc(ds, mask, model_name, k_folds, seed):
    plan = stratified_kfold(ds.labels, k_folds, seed=seed)
    aucs = []
    for fold in range(k_folds):
        test = plan.assignments == fold
        train = Dataset(
            ds.features[~test][:, mask],
            ds.labels[~test],
            [ds.sample_ids[i] for i in np.flatnonzero(~test)],
        )
        scores = _fit_predict(
            model_name, MODEL_DEFAULTS[model_name], train, ds.features[test][:, mask]
        )
        aucs.append(rank_auc(ds.labels[test], scores))
    return float(np.mean(aucs))


def rfecv(ds, estimator="logreg", step=1, k_folds=INNER_FOLDS, seed=DEFAULT_SEED):
    """Recursive feature elimination with cross-validated scoring.

    Repeatedly drops the `step` lowest-importance features (|coefficient|
    of a logistic fit), recording mean CV AUC at each size. Returns the
    boolean mask with the best mean AUC (smallest size on ties) and the
    (n_features, mean_auc) curve.
    """
    if estimator != "logreg":
        raise ValueError("only the logistic-importance estimator is bundled")
    d = ds.features.shape[1]
    if step < 1 or step >= d:
        raise ValueError("require 1 <= step < number of features")
    mask = np.ones(d, dtype=bool)
    curve = []
    best_mask, best_score = None, None
    while True:
        size = int(mask.sum())
        score = _cv_auc(ds, mask, estimator, k_folds, seed)
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
        importance = _logreg_importance(sub)
        drop_local = np.argsort(importance, kind="stable")[:step]
        active = np.flatnonzero(mask)
        mask = mask.copy()
        mask[active[drop_local]] = False
        if not mask.any():
            break
    return best_mask, curve
