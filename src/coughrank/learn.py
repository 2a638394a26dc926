"""Training machinery: stratified CV, SMOTE, two reference classifiers,
nested grid search and recursive feature elimination.

Only k-NN and L2 logistic regression are trained here; predictions of
any other classifier enter the pipeline through the predictions.csv
ingestion format.
"""

from dataclasses import dataclass

import numpy as np

from . import InputError
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
# Bytes of one k-NN query block's Gram rows (rows x n_train float64),
# and of one chunk of its gathered candidate differences (pairs x d
# float64).
_KNN_BLOCK_BYTES = 2**18
# Newton's method for logistic regression: the iteration cap, the
# relative gradient tolerance, the Armijo fraction and how often one
# step may be halved.
LOGREG_MAX_ITER = 50
LOGREG_TOL = 1e-6
_ARMIJO = 1e-4
_MAX_HALVINGS = 30


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
    assignments: np.ndarray


@dataclass
class StrategyConfig:
    """One of the three training regimes.

    1: plain stratified CV, fixed hyper-parameters.
    2: SMOTE on the training folds, fixed hyper-parameters.
    3: SMOTE plus nested inner-CV grid search.
    """

    id: int

    @property
    def use_smote(self):
        return self.id != 1

    @classmethod
    def standard(cls, strategy_id):
        if strategy_id not in (1, 2, 3):
            raise ValueError(f"unknown strategy id {strategy_id}")
        return cls(strategy_id)


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
    return FoldPlan(assignments)


def stratified_splits(labels, k, seed=DEFAULT_SEED):
    """(train_idx, test_idx) of each fold of stratified_kfold, in order; both sorted."""
    assignments = stratified_kfold(labels, k, seed=seed).assignments
    return [
        (np.flatnonzero(assignments != fold), np.flatnonzero(assignments == fold))
        for fold in range(k)
    ]


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
    # a row is among its own k + 1 nearest unless k + 1 exact duplicates
    # of lower index come first; then it keeps the first k of those
    nearest = _knn(minority, minority, k_neighbors + 1)
    is_self = nearest == np.arange(m)[:, None]
    is_self[~is_self.any(axis=1), -1] = True
    neighbors = nearest[~is_self].reshape(m, k_neighbors)
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
    """Train-fold mean/std scaling (into `out` if given); constant columns pass through."""

    def __init__(self, X):
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.std = np.where(std > 0, std, 1.0)

    def __call__(self, X, out=None):
        Z = np.subtract(X, self.mean, out=out)
        return np.divide(Z, self.std, out=Z)


class _Design:
    """A scaler fitted to training rows and those rows scaled, with a ones column
    for the intercept (Xa) and without (X, its view): what logistic fits share."""

    def __init__(self, X):
        self.scaler = _Standardizer(X)
        self.Xa = np.ones((X.shape[0], X.shape[1] + 1))
        self.X = self.scaler(X, out=self.Xa[:, :-1])


@dataclass
class KnnModel:
    train_features: np.ndarray
    train_labels: np.ndarray
    n_neighbors: int
    scaler: _Standardizer


def train_knn(X, y, n_neighbors=5):
    """Fit a k-nearest-neighbor scorer on standardized features."""
    if not 1 <= n_neighbors <= X.shape[0]:
        raise ValueError("require 1 <= n_neighbors <= training set size")
    scaler = _Standardizer(X)
    return KnnModel(
        train_features=scaler(X),
        train_labels=y,
        n_neighbors=n_neighbors,
        scaler=scaler,
    )


def _knn(T, X, k):
    """Indices of the k nearest rows of T to each row of X, nearest first.

    Exact: each row of X gets the first k of a stable sort of its
    distances np.linalg.norm(x - T, axis=-1), so ties go to the lower
    index. A Gram-matrix screen picks the candidates a block of query
    rows at a time, and only the candidates are measured exactly.
    """
    n, d = T.shape
    # Rounding bound (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., 3.1): u = 2**-53, gamma_m = m u / (1 - m u).
    # For a query x and a training row t let D = |x - t|^2 and
    # S = |x|^2 + |t|^2 <= M, the largest S of the query.
    # - The screen g = (|x|^2 + |t|^2) - 2 x.t: |x|^2, |t|^2 and x.t
    #   err by at most gamma_d |x|^2, gamma_d |t|^2 and gamma_d |x||t|
    #   in any summation order, 2|x||t| <= S, and the two additions
    #   round once each, so |g - D| <= 2 gamma_{d+2} S <= 2 gamma M.
    # - The exact distance r = fl(sqrt(sum fl(x_l - t_l)^2)) takes d + 4
    #   roundings into r^2, so r^2 = D (1 + theta), |theta| <= gamma_{d+4}
    #   =: gamma.
    # Let g_k be the query's k-th smallest g. Its k rows with g <= g_k have
    # r^2 <= (g_k + 2 gamma M)(1 + gamma); a row with g > g_k + tau has
    # r^2 > (g_k + tau - 2 gamma M)(1 - gamma). Every g <= D + 2 gamma M
    # and D <= 2S, so g_k <= 2M (1 + gamma), and the second bound is the
    # larger once tau (1 - gamma) >= 4 gamma M (2 + gamma). Then that
    # row's r is strictly larger than the k others', so it is not among
    # the first k. tau = 16 gamma M leaves room for the rounding of
    # g_k + tau and of M itself.
    du = (d + 4) * np.finfo(np.float64).eps / 2
    gamma = du / (1.0 - du)
    sq_t = np.einsum("ij,ij->i", T, T)
    rows = max(1, _KNN_BLOCK_BYTES // (8 * n))
    pairs = max(1, _KNN_BLOCK_BYTES // (8 * d))
    nearest = np.empty((X.shape[0], k), dtype=np.intp)
    for start in range(0, X.shape[0], rows):
        Xb = X[start : start + rows]
        sq_x = np.einsum("ij,ij->i", Xb, Xb)
        g = Xb @ T.T
        g *= -2.0
        g += sq_x[:, None] + sq_t
        g_k = np.partition(g, k - 1, axis=1)[:, k - 1]
        tau = 16.0 * gamma * (sq_x + sq_t.max())
        qi, ti = np.nonzero(g <= (g_k + tau)[:, None])
        dist = np.empty(qi.size)
        for s in range(0, qi.size, pairs):
            q, t = qi[s : s + pairs], ti[s : s + pairs]
            diff = Xb[q]  # np.linalg.norm(Xb[q] - T[t], axis=-1) in one buffer
            diff -= T[t]
            diff *= diff
            dist[s : s + pairs] = np.sqrt(np.add.reduce(diff, axis=-1))
        # qi is sorted, so each query's candidates stay together in order
        ti = ti[np.lexsort((ti, dist, qi))]
        first = np.searchsorted(qi, np.arange(Xb.shape[0]))
        nearest[start : start + rows] = ti[first[:, None] + np.arange(k)]
    return nearest


def predict_knn(model, features):
    """Score = fraction of the k nearest training points labeled positive."""
    return _knn_scores(model, features, [model.n_neighbors])[0]


def _knn_scores(model, queries, ks):
    """The k-NN score of each query for each k in ks (k <= len(training set)).

    One search at max(ks) serves every k: `_knn` is a stable sort by
    distance, so the first k of its max(ks) neighbours are the k nearest.
    """
    X = model.scaler(np.asarray(queries, dtype=np.float64))
    neighbor_labels = model.train_labels[_knn(model.train_features, X, max(ks))]
    return [neighbor_labels[:, :k].mean(axis=1) for k in ks]


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


def train_logreg(X, y, l2_strength=1.0, init=None):
    """Fit L2-penalized logistic regression by Newton's method.

    `X` is the raw rows or, for fits that share them, their `_Design`.
    The fit starts from `init`, d + 1 weights on the standardized
    features with the intercept last (copied, never changed; None starts
    from zero), so it can resume from the solution of a nearby penalty.
    Each step solves the penalized Hessian system, Xa' diag(p(1-p)) Xa
    plus l2_strength on the weight diagonal (the intercept is not
    penalized), and backtracks until the objective falls by the Armijo
    fraction (Hastie, Tibshirani & Friedman, ESL 2nd ed., 4.4.1). The
    fit stops once |grad| < LOGREG_TOL * max(1, |loss|); if that does
    not happen within LOGREG_MAX_ITER steps, or no step lowers the
    objective, the returned model says so and nothing is raised.
    """
    if not l2_strength > 0:
        raise ValueError("l2_strength must be positive")
    if len(np.unique(y)) < 2:
        raise ValueError("both classes required to fit logistic regression")
    design = X if isinstance(X, _Design) else _Design(X)
    X, Xa = design.X, design.Xa
    w = np.zeros(Xa.shape[1]) if init is None else np.array(init, dtype=np.float64)
    loss, grad = logistic_objective(w, X, y, l2_strength)
    B = np.empty_like(Xa)
    converged = False
    for it in range(1, LOGREG_MAX_ITER + 1):
        # sqrt(p(1-p)) as r/(1+r^2) with r = exp(-|z|/2), which keeps its
        # digits where p rounds to 1; B'B is one symmetric product
        r = np.exp(-0.5 * np.abs(Xa @ w))
        np.multiply(Xa, (r / (1.0 + r * r))[:, None], out=B)
        hessian = B.T @ B
        hessian.reshape(-1)[: -1 : Xa.shape[1] + 1] += l2_strength  # weights' diagonal
        step = np.linalg.solve(hessian, grad)
        slope = grad @ step
        for halvings in range(_MAX_HALVINGS):
            t = 0.5**halvings
            trial = w - t * step
            trial_loss, trial_grad = logistic_objective(trial, X, y, l2_strength)
            if trial_loss <= loss - _ARMIJO * t * slope:
                break
        else:
            break
        w, loss, grad = trial, trial_loss, trial_grad
        if np.linalg.norm(grad) < LOGREG_TOL * max(1.0, abs(loss)):
            converged = True
            break
    return LogregModel(weights=w, scaler=design.scaler, converged=converged, n_iter=it)


def predict_logreg(model, features):
    """Logistic scores of the fitted linear predictor."""
    X = model.scaler(np.asarray(features, dtype=np.float64))
    z = X @ model.weights[:-1] + model.weights[-1]
    return 1.0 / (1.0 + np.exp(-z))


def _grid_search(model_name, grid, X, y, seed):
    """Inner stratified CV over the grid, selecting on mean AUC; the
    first best in grid order wins.

    For k-NN one `_knn_scores` search per inner fold, at the largest k
    of the grid, scores every k. For logistic regression each inner fold
    fits the grid from the strongest penalty to the weakest, each fit
    starting from the weights of the one before, on one `_Design` of its
    rows (the pathwise warm start of glmnet: Friedman, Hastie & Tibshirani,
    J. Stat. Softw. 33 (2010)).
    """
    aucs = [[] for _ in grid]
    for tr, te in stratified_splits(y, INNER_FOLDS, seed):
        X_tr, y_tr, X_te, y_te = X[tr], y[tr], X[te], y[te]
        if model_name == "knn":
            ks = [params["n_neighbors"] for params in grid]
            model = train_knn(X_tr, y_tr, max(ks))
            for fold_aucs, scores in zip(aucs, _knn_scores(model, X_te, ks)):
                fold_aucs.append(rank_auc(y_te, scores))
        else:
            design, w = _Design(X_tr), None
            path = sorted(range(len(grid)), key=lambda i: grid[i]["l2_strength"], reverse=True)
            for i in path:
                model = train_logreg(design, y_tr, init=w, **grid[i])
                w = model.weights
                aucs[i].append(rank_auc(y_te, predict_logreg(model, X_te)))
    mean_aucs = [float(np.mean(fold_aucs)) for fold_aucs in aucs]
    return grid[mean_aucs.index(max(mean_aucs))]


def run_strategies(ds, cells, seed=DEFAULT_SEED, smote_k=5, threshold_objective="f1", map=map):
    """Out-of-fold predictions for each (model_name, StrategyConfig) cell.

    One pass over the outer 10-fold stratified CV serves every cell. Each fold
    makes its split and, if a cell uses SMOTE, the SMOTE balance of its training
    rows; picks every cell's hyper-parameters (strategy 3: inner 5-fold grid search
    on AUC); searches each fit set once for its k-NN cells; then fits logistic cells
    and chooses thresholds on training-fold predictions cell by cell, so any cell's
    search error precedes an earlier cell's undefined objective (InputError). Thresholds
    are averaged over folds. Returns one PredictionSet per cell, in `cells` order.

    Folds share no state (fold f draws from seed + f): `map`, e.g. a thread pool's, may
    run them at once; results and the first fold's error are taken in fold order.
    """
    for model_name, _ in cells:
        if model_name not in MODEL_GRIDS:
            raise ValueError(f"unknown model {model_name!r}")

    def train_fold(fold, tr, te):
        """(test-fold scores, threshold) of each cell."""
        X_tr, y_tr, X_te = ds.features[tr], ds.labels[tr], ds.features[te]
        fit_sets = {False: (X_tr, y_tr)}
        if any(cfg.use_smote for _, cfg in cells):
            fit_sets[True] = balance_with_smote(
                X_tr, y_tr, k_neighbors=smote_k, seed=seed + fold
            )
        params = [
            _grid_search(name, MODEL_GRIDS[name], *fit_sets[cfg.use_smote], seed + fold)
            if cfg.id == 3
            else MODEL_DEFAULTS[name]
            for name, cfg in cells
        ]
        # one search of all of ds per fit set: train and test rows are its slices
        scores = {}  # cell -> (training-row scores, test-row scores)
        for smoted, fit in fit_sets.items():
            cs = [c for c, (n, cfg) in enumerate(cells) if n == "knn" and cfg.use_smote == smoted]
            if cs:
                ks = [params[c]["n_neighbors"] for c in cs]
                all_rows = _knn_scores(train_knn(*fit, max(ks)), ds.features, ks)
                scores.update((c, (row[tr], row[te])) for c, row in zip(cs, all_rows))
        results = []
        for c, (model_name, cfg) in enumerate(cells):
            if model_name == "logreg":
                # two products, not one of all rows as for k-NN: BLAS may sum a row
                # differently by its place in the block; the k-NN search is exact
                model = train_logreg(*fit_sets[cfg.use_smote], **params[c])
                scores[c] = predict_logreg(model, X_tr), predict_logreg(model, X_te)
            train_scores, test_scores = scores[c]
            try:
                threshold = threshold_sweep(y_tr, train_scores, threshold_objective)
            except ValueError as exc:
                raise InputError(f"model {model_name!r} in strategy {cfg.id}: {exc}") from exc
            results.append((test_scores, threshold))
        return results

    splits = stratified_splits(ds.labels, OUTER_FOLDS, seed)
    folds = list(map(train_fold, range(OUTER_FOLDS), *zip(*splits)))
    oof_scores = np.zeros((len(cells), ds.features.shape[0]))
    for (_, te), results in zip(splits, folds):
        oof_scores[:, te] = [scores for scores, _ in results]
    thresholds = [[results[c][1] for results in folds] for c in range(len(cells))]
    order = np.argsort(np.asarray(ds.sample_ids, dtype=object), kind="stable")
    return [
        PredictionSet(
            model_name=model_name,
            strategy_id=str(cfg.id),
            sample_ids=[ds.sample_ids[i] for i in order],
            true_labels=ds.labels[order],
            scores=np.clip(scores[order], 0.0, 1.0),
            threshold=float(np.mean(cell_thresholds)),
        )
        for (model_name, cfg), scores, cell_thresholds in zip(cells, oof_scores, thresholds)
    ]


def run_strategy(
    ds, model_name, cfg, seed=DEFAULT_SEED, smote_k=5, threshold_objective="f1"
):
    """Out-of-fold predictions for one model under one training strategy."""
    cells = [(model_name, cfg)]
    return run_strategies(ds, cells, seed, smote_k, threshold_objective)[0]


def rfecv(ds, step=1, k_folds=INNER_FOLDS, seed=DEFAULT_SEED):
    """Recursive feature elimination with cross-validated scoring.

    Repeatedly drops the `step` lowest-importance features (|coefficient|
    of a logistic fit), recording mean CV AUC at each size. Returns the
    boolean mask with the best mean AUC (smallest size on ties) and the
    (n_features, mean_auc) curve.
    """
    d = ds.features.shape[1]
    if step < 1 or step >= d:
        raise ValueError("require 1 <= step < number of features")
    y = ds.labels
    splits = stratified_splits(y, k_folds, seed)
    mask = np.ones(d, dtype=bool)
    curve = []
    best_mask, best_score = None, None
    while True:
        size = int(mask.sum())
        X = ds.features[:, mask]
        aucs = [
            rank_auc(y[te], predict_logreg(train_logreg(X[tr], y[tr]), X[te]))
            for tr, te in splits
        ]
        score = float(np.mean(aucs))
        curve.append((size, score))
        if best_score is None or score >= best_score:  # sizes fall: a tie goes to the smaller
            best_mask, best_score = mask.copy(), score
        if size <= step:
            break
        importance = np.abs(train_logreg(X, y).weights[:-1])
        drop_local = np.argsort(importance, kind="stable")[:step]
        active = np.flatnonzero(mask)
        mask = mask.copy()
        mask[active[drop_local]] = False
    return best_mask, curve
