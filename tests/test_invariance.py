"""Invariances that entropy weights and TOPSIS promise (Hwang & Yoon,
*Multiple Attribute Decision Making*, 1981), as hypothesis properties.

- The ranking depends on the set of models, not on the order in which
  they are listed: `ensemble.rank` is bitwise the same under any row
  permutation of its matrices, and `pipeline` writes byte-identical CSVs
  however the groups and rows of its external file are laid out.
- TOPSIS normalises each column by its Euclidean norm, so scaling one
  column by a positive factor leaves the closeness unchanged; entropy
  weights standardise each column by min-max, so a positive affine map of
  one column leaves the weights unchanged. Both hold up to rounding. The
  bound is stated in ulps of 1 (closeness and weights lie in [0, 1]) times
  the condition number kappa = max|x| / (max x - min x) of the column, since
  rounding an entry by one ulp of the column's largest value moves its
  standardised or normalised position by kappa ulps.
- A model that is best on every criterion has closeness 1 in every
  strategy and wins both ensembles.

Criterion values are drawn as multiples of 1e-6 in [0, 1]: every criterion
is a rate or an AUC, which `evaluate` writes to 9 significant digits.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coughrank import cli
from coughrank.ensemble import rank
from coughrank.mcdm import entropy_weights, topsis
from coughrank.metrics import DEFAULT_CRITERIA, DecisionMatrix

from conftest import MODELS, load_fixture_matrix
from test_cli import make_external_csv, make_features_csv

CRITERIA = list(DEFAULT_CRITERIA)
EPS = np.finfo(np.float64).eps
# |closeness change| <= TOPSIS_ULPS * kappa * EPS under column scaling
TOPSIS_ULPS = 4
# |weight change| <= ENTROPY_ULPS * kappa * EPS under a column's affine map
ENTROPY_ULPS = 16
GRID = 10**6


def kappa(*columns):
    """The largest condition number max|x| / (max x - min x) of `columns`."""
    return max(np.max(np.abs(c)) / (c.max() - c.min()) for c in columns)


def grid_rows(m, low=0, high=GRID):
    """m rows of integer criterion values in low .. high, in grid steps."""
    row = st.lists(st.integers(low, high), min_size=len(CRITERIA), max_size=len(CRITERIA))
    return st.lists(row, min_size=m, max_size=m).map(np.array)


@st.composite
def decision_matrices(draw):
    m = draw(st.integers(2, 12))
    values = draw(grid_rows(m)) / GRID
    return DecisionMatrix([f"model{i:02d}" for i in range(m)], CRITERIA, values)


def permuted(dm, order):
    return DecisionMatrix([dm.alternatives[i] for i in order], dm.criteria, dm.values[order])


def assert_rankings_equal(a, b):
    assert list(a.matrices) == list(b.matrices)
    for key in a.matrices:
        assert a.matrices[key].alternatives == b.matrices[key].alternatives
        np.testing.assert_array_equal(a.matrices[key].values, b.matrices[key].values)
        np.testing.assert_array_equal(a.weights[key].weights, b.weights[key].weights)
        for field in ("ideal_best", "ideal_worst", "s_plus", "s_minus", "closeness", "ranks"):
            np.testing.assert_array_equal(getattr(a.topsis[key], field), getattr(b.topsis[key], field))
    assert (a.closeness.models, a.closeness.strategies) == (b.closeness.models, b.closeness.strategies)
    np.testing.assert_array_equal(a.closeness.closeness, b.closeness.closeness)
    for field in ("soft_scores", "soft_ranks", "hard_points", "hard_totals", "hard_ranks"):
        np.testing.assert_array_equal(getattr(a.ensemble, field), getattr(b.ensemble, field))
    assert a.ensemble.models == b.ensemble.models
    assert (a.ensemble.soft_best, a.ensemble.hard_best) == (b.ensemble.soft_best, b.ensemble.hard_best)
    assert a.degenerate == b.degenerate


@pytest.mark.parametrize("category", ["asymptomatic", "symptomatic"])
@given(orders=st.lists(st.permutations(range(len(MODELS))), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_rank_is_bitwise_the_same_under_row_permutations(category, orders):
    matrices = {str(s): load_fixture_matrix(category, s) for s in (1, 2, 3)}
    shuffled = {k: permuted(dm, order) for (k, dm), order in zip(matrices.items(), orders)}
    assert_rankings_equal(rank(shuffled), rank(matrices))


@given(
    dm=decision_matrices(),
    column=st.integers(0, len(CRITERIA) - 1),
    factor=st.one_of(
        st.floats(-3, 3).map(lambda e: 10.0**e),
        # squares of these overflow or go subnormal unless the column is rescaled
        st.sampled_from([2.0**600, 2.0**-600, 1e160, 1e-160]),
    ),
)
@settings(max_examples=300, deadline=None)
def test_topsis_closeness_is_unchanged_by_scaling_one_column(dm, column, factor):
    x = dm.values[:, column]
    assume(x.max() > x.min())
    weights = entropy_weights(dm)
    values = dm.values.copy()
    values[:, column] *= factor
    scaled = topsis(DecisionMatrix(dm.alternatives, dm.criteria, values), weights)
    change = np.max(np.abs(scaled.closeness - topsis(dm, weights).closeness))
    assert change <= TOPSIS_ULPS * kappa(x) * EPS


@given(
    dm=decision_matrices(),
    column=st.integers(0, len(CRITERIA) - 1),
    log_scale=st.floats(-3, 3),
    shift=st.floats(-1000, 1000),
)
@settings(max_examples=300, deadline=None)
def test_entropy_weights_are_unchanged_by_an_affine_map_of_one_column(dm, column, log_scale, shift):
    x = dm.values[:, column]
    values = dm.values.copy()
    values[:, column] = 10.0**log_scale * x + shift
    y = values[:, column]
    assume(x.max() > x.min() and y.max() > y.min())
    mapped = entropy_weights(DecisionMatrix(dm.alternatives, dm.criteria, values))
    change = np.max(np.abs(mapped.weights - entropy_weights(dm).weights))
    assert change <= ENTROPY_ULPS * kappa(x, y) * EPS


@st.composite
def matrices_with_a_dominant_model(draw):
    """A model name and three matrices in which that model is strictly best
    on every criterion: above every other model on each benefit criterion,
    below on each cost one, by at least one grid step. (A rival one ulp
    behind on every criterion also gets closeness 1.0 in floating point,
    and the tie then breaks by name.)"""
    m = draw(st.integers(2, 10))
    names = draw(st.permutations([f"model{i:02d}" for i in range(m)]))
    matrices = {}
    for strategy in ("1", "2", "3"):
        others = draw(grid_rows(m - 1, 1, GRID - 1))
        best = [
            draw(
                st.integers(0, column.min() - 1)
                if c.direction == "cost"
                else st.integers(column.max() + 1, GRID)
            )
            for column, c in zip(others.T, CRITERIA)
        ]
        rows = np.vstack([best, others]) / GRID
        order = draw(st.permutations(range(m)))
        matrices[strategy] = permuted(DecisionMatrix(names, CRITERIA, rows), order)
    return names[0], matrices


@given(case=matrices_with_a_dominant_model())
@settings(max_examples=100, deadline=None)
def test_a_model_best_on_every_criterion_wins_both_ensembles(case):
    best, matrices = case
    ranking = rank(matrices)
    row = ranking.closeness.models.index(best)
    np.testing.assert_array_equal(ranking.closeness.closeness[row], [1.0, 1.0, 1.0])
    assert (ranking.ensemble.soft_best, ranking.ensemble.hard_best) == (best, best)


@pytest.fixture(scope="module")
def pipeline_reference(tmp_path_factory):
    """A real pipeline run on the small test_cli inputs, and the prediction
    sets its training returned."""
    tmp = tmp_path_factory.mktemp("layout")
    features, external = tmp / "features.csv", tmp / "external.csv"
    ids, labels = make_features_csv(features, n_pos=10, n_neg=10)
    make_external_csv(external, ids, labels, n_models=4)
    real, trained = cli.run_strategies, []

    def run_strategies(*args, **kwargs):
        trained.extend(real(*args, **kwargs))
        return trained

    argv = ["pipeline", str(features), "--external", str(external), "--out", str(tmp / "out")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_strategies", run_strategies)
        assert cli.main(argv) == 0
    return features, external, tmp / "out", trained


def outputs(out):
    """Every CSV `out` holds, and report.json without its manifest (whose
    input digest of the external file differs with its layout)."""
    report = json.loads((out / "report.json").read_text())
    del report["manifest"]
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}, report


@given(layout=st.randoms(use_true_random=False), interleave=st.booleans())
@settings(max_examples=15, deadline=None)
def test_pipeline_outputs_do_not_depend_on_the_external_layout(
    pipeline_reference, tmp_path_factory, layout, interleave
):
    """Groups in any order, rows shuffled within each group and, if
    `interleave`, groups mixed row by row. Training reads only
    features.csv, so its prediction sets are reused from the reference run."""
    features, external, reference, trained = pipeline_reference
    header, *rows = external.read_text().splitlines(keepends=True)
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row.split(",")[:2]), []).append(row)
    keys = list(groups)
    layout.shuffle(keys)
    rows = []
    for key in keys:
        layout.shuffle(groups[key])
        rows += groups[key]
    if interleave:
        layout.shuffle(rows)
    tmp = tmp_path_factory.mktemp("shuffled")
    (tmp / "external.csv").write_text(header + "".join(rows))
    argv = ["pipeline", str(features), "--external", str(tmp / "external.csv"), "--out", str(tmp / "out")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_strategies", lambda *args, **kwargs: trained)
        assert cli.main(argv) == 0
    assert outputs(tmp / "out") == outputs(reference)
