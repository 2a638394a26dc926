import numpy as np
import pytest

from coughrank.ensemble import (
    TIE_DECIMALS,
    ClosenessTable,
    RankError,
    fuse,
    hard_points,
    rank,
    soft_ensemble,
)
from coughrank.mcdm import entropy_weights, topsis
from coughrank.metrics import DecisionMatrix

from conftest import MODELS, load_fixture_matrix
from test_acceptance import category_closeness

# Published closeness values per strategy (columns) and model (rows)
ASYMPTOMATIC = np.array([
    [1.000, 0.806, 0.701],
    [0.478, 0.370, 0.535],
    [0.871, 0.683, 0.867],
    [0.483, 0.256, 0.422],
    [0.579, 0.428, 0.614],
    [0.690, 0.699, 0.736],
    [0.314, 0.351, 0.807],
    [0.267, 0.357, 0.132],
    [0.561, 0.405, 0.262],
    [0.920, 0.806, 0.736],
])
SYMPTOMATIC = np.array([
    [0.947, 0.790, 0.772],
    [0.515, 0.484, 0.647],
    [0.717, 0.675, 0.837],
    [0.515, 0.427, 0.743],
    [0.784, 0.643, 0.596],
    [0.693, 0.694, 0.672],
    [0.514, 0.626, 0.915],
    [0.692, 0.440, 0.589],
    [0.457, 0.511, 0.362],
    [0.176, 0.467, 0.662],
])


def cluster_points_oracle(ct, tie_eps=0.0):
    """The former hard_points: a tied cluster per run of rounded values
    within tie_eps, each member taking the cluster's best point."""
    m, t = ct.closeness.shape
    points = np.zeros((m, t), dtype=int)
    rounded = np.round(ct.closeness, TIE_DECIMALS)
    for j in range(t):
        col = rounded[:, j]
        order = np.argsort(-col, kind="stable")
        cluster_of = np.empty(m, dtype=int)
        clusters = []
        for idx in order:
            if clusters and clusters[-1][-1] - col[idx] <= tie_eps:
                clusters[-1].append(col[idx])
            else:
                clusters.append([col[idx]])
            cluster_of[idx] = len(clusters) - 1
        # competition rank of each cluster = 1 + members in better clusters
        sizes = [len(c) for c in clusters]
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        points[:, j] = m - starts[cluster_of]
    return points


def table(values):
    return ClosenessTable(models=list(MODELS), strategies=["1", "2", "3"], closeness=values)


class TestSoftEnsemble:
    def test_published_asymptomatic_averages(self):
        scores, ranks = soft_ensemble(table(ASYMPTOMATIC))
        assert scores[0] == pytest.approx((1.0 + 0.806 + 0.701) / 3, abs=1e-12)
        assert scores[9] == pytest.approx(0.821, abs=5e-4)
        assert ranks[0] == 1  # Extra-Trees
        assert ranks[9] == 2  # HGBoost
        assert ranks[2] == 3  # RF

    def test_published_symptomatic_ranks(self):
        _, ranks = soft_ensemble(table(SYMPTOMATIC))
        assert ranks[0] == 1  # Extra-Trees
        assert ranks[2] == 2  # RF

    def test_single_strategy_matches_topsis_order(self):
        ct = ClosenessTable(["a", "b", "c"], ["1"], np.array([[0.2], [0.9], [0.5]]))
        _, ranks = soft_ensemble(ct)
        np.testing.assert_array_equal(ranks, [3, 1, 2])

    def test_all_equal_all_rank_one(self):
        ct = ClosenessTable(["a", "b"], ["1", "2"], np.full((2, 2), 0.4))
        scores, ranks = soft_ensemble(ct)
        assert np.all(scores == 0.4)
        np.testing.assert_array_equal(ranks, [1, 1])


class TestHardPoints:
    def test_published_asymptomatic_strategy2_column(self):
        # the two 0.806 values both take 10 points, the next value 8
        points = hard_points(table(ASYMPTOMATIC))
        np.testing.assert_array_equal(
            points[:, 1], [10, 4, 7, 1, 6, 8, 2, 3, 5, 10]
        )

    def test_published_symptomatic_strategy1_column(self):
        # 0.693 and 0.692 share 7 points under 2-decimal rounding
        points = hard_points(table(SYMPTOMATIC))
        np.testing.assert_array_equal(
            points[:, 0], [10, 5, 8, 5, 9, 7, 3, 7, 2, 1]
        )
        assert points[5, 0] == points[7, 0] == 7

    def test_strictly_decreasing_column(self):
        ct = ClosenessTable(
            ["a", "b", "c", "d"], ["1"], np.array([[0.9], [0.7], [0.5], [0.3]])
        )
        np.testing.assert_array_equal(hard_points(ct)[:, 0], [4, 3, 2, 1])

    def test_two_decimal_rounding_merges_near_ties(self):
        # 0.693 and 0.692 both round to 0.69 and share the point value
        ct = ClosenessTable(
            ["a", "b", "c"], ["1"], np.array([[0.693], [0.692], [0.5]])
        )
        points = hard_points(ct)[:, 0]
        assert points[0] == points[1] == 3
        assert points[2] == 1

    def test_matches_cluster_oracle_on_heavy_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            m, t = int(rng.integers(2, 161)), int(rng.integers(1, 4))
            levels = int(rng.integers(1, 40))
            # few distinct 2-decimal values, some nudged to round back onto them
            values = rng.integers(0, levels + 1, (m, t)) / 100.0
            values += rng.choice([0.0, 0.0, -0.004, 0.003, 0.005], (m, t))
            ct = ClosenessTable(
                [f"m{i}" for i in range(m)],
                [str(j) for j in range(t)],
                np.clip(values, 0.0, 1.0),
            )
            np.testing.assert_array_equal(hard_points(ct), cluster_points_oracle(ct))

    def test_points_bounds_and_tie_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m, t = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            ct = ClosenessTable(
                [f"m{i}" for i in range(m)],
                [str(j) for j in range(t)],
                rng.uniform(0, 1, (m, t)),
            )
            points = hard_points(ct)
            assert points.max() <= m and points.min() >= 1
            rounded = np.round(ct.closeness, 2)
            for j in range(t):
                assert points[:, j].max() == m
                for i in range(m):
                    for k in range(m):
                        if rounded[i, j] == rounded[k, j]:
                            assert points[i, j] == points[k, j]


class TestHardEnsemble:
    def test_published_asymptomatic_totals(self):
        result = fuse(table(ASYMPTOMATIC))
        totals, ranks = result.hard_totals, result.hard_ranks
        # SVM rounds to 0.48 in strategy 1, tying AdaBoost at 4 points
        expected_totals = [26, 12, 25, 8, 17, 23, 13, 5, 12, 27]
        np.testing.assert_array_equal(totals, expected_totals)
        assert ranks[9] == 1  # HGBoost
        assert ranks[0] == 2  # Extra-Trees
        assert ranks[2] == 3  # RF

    def test_published_symptomatic_totals(self):
        result = fuse(table(SYMPTOMATIC))
        totals, ranks = result.hard_totals, result.hard_ranks
        expected_totals = [28, 13, 25, 13, 19, 22, 19, 11, 8, 9]
        np.testing.assert_array_equal(totals, expected_totals)
        assert ranks[0] == 1  # Extra-Trees

    def test_single_strategy_distinct_matches_soft(self):
        rng = np.random.default_rng(1)
        values = np.round(rng.permutation(10) / 10.0 + 0.04, 3).reshape(-1, 1)
        ct = ClosenessTable([f"m{i}" for i in range(10)], ["1"], values)
        _, soft_ranks = soft_ensemble(ct)
        np.testing.assert_array_equal(soft_ranks, fuse(ct).hard_ranks)


class TestFuse:
    def test_winners_match_published_tables(self):
        asym = fuse(table(ASYMPTOMATIC))
        assert asym.soft_best == "Extra-Trees"
        assert asym.hard_best == "HGBoost"
        symp = fuse(table(SYMPTOMATIC))
        assert symp.soft_best == "Extra-Trees"
        assert symp.hard_best == "Extra-Trees"

    def test_adding_all_tied_strategy_keeps_rankings(self):
        base = fuse(table(ASYMPTOMATIC))
        extended = ClosenessTable(
            list(MODELS),
            ["1", "2", "3", "4"],
            np.hstack([ASYMPTOMATIC, np.full((10, 1), 0.5)]),
        )
        ext = fuse(extended)
        np.testing.assert_array_equal(base.hard_ranks, ext.hard_ranks)
        np.testing.assert_array_equal(base.soft_ranks, ext.soft_ranks)
        assert ext.soft_best == base.soft_best
        assert ext.hard_best == base.hard_best

    def test_model_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        perm = rng.permutation(10)
        permuted = ClosenessTable(
            [MODELS[i] for i in perm], ["1", "2", "3"], ASYMPTOMATIC[perm]
        )
        base = fuse(table(ASYMPTOMATIC))
        shuffled = fuse(permuted)
        assert shuffled.soft_best == base.soft_best
        assert shuffled.hard_best == base.hard_best
        np.testing.assert_array_equal(shuffled.hard_totals, base.hard_totals[perm])


class TestClosenessTableValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ClosenessTable(["a"], ["1", "2"], np.zeros((2, 1)))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ClosenessTable(["a", "b"], ["1"], np.array([[1.2], [0.1]]))


def fixture_matrices(category):
    return {str(s): load_fixture_matrix(category, s) for s in (1, 2, 3)}


def name_sorted(dm):
    """`dm` with its rows in model-name order."""
    rows = sorted(range(len(dm.alternatives)), key=lambda i: dm.alternatives[i])
    return DecisionMatrix([dm.alternatives[i] for i in rows], dm.criteria, dm.values[rows])


class TestRank:
    @pytest.mark.parametrize("category", ["asymptomatic", "symptomatic"])
    def test_equals_the_acceptance_chain_bitwise(self, category):
        """The hand chain of test_acceptance.category_closeness, run on the
        fixture rows in model-name order."""
        ranking = rank(fixture_matrices(category))
        ordered = {k: name_sorted(dm) for k, dm in fixture_matrices(category).items()}
        models = sorted(MODELS)
        oracle = ClosenessTable(
            models, ["1", "2", "3"], np.column_stack([topsis(dm).closeness for dm in ordered.values()])
        )
        expected = fuse(oracle)
        for key, dm in ordered.items():
            weights = entropy_weights(dm).weights
            np.testing.assert_array_equal(ranking.weights[key].weights, weights)
        np.testing.assert_array_equal(ranking.closeness.closeness, oracle.closeness)
        np.testing.assert_array_equal(ranking.ensemble.soft_scores, expected.soft_scores)
        np.testing.assert_array_equal(ranking.ensemble.hard_points, expected.hard_points)
        assert ranking.closeness.models == models == ranking.ensemble.models
        assert ranking.closeness.strategies == ["1", "2", "3"]
        assert (ranking.ensemble.soft_best, ranking.ensemble.hard_best) == (
            expected.soft_best,
            expected.hard_best,
        )
        assert not ranking.degenerate
        # the verdicts of the published fixture order
        published = fuse(category_closeness(category))
        assert (published.soft_best, published.hard_best) == (expected.soft_best, expected.hard_best)

    def test_models_come_out_in_name_order(self):
        matrices = fixture_matrices("symptomatic")
        rng = np.random.default_rng(4)
        for key, dm in matrices.items():
            order = rng.permutation(len(MODELS))
            matrices[key] = DecisionMatrix(
                [dm.alternatives[i] for i in order], dm.criteria, dm.values[order]
            )
        given = {k: (list(dm.alternatives), dm.values.copy()) for k, dm in matrices.items()}
        ranking = rank(matrices)
        models = sorted(MODELS)
        assert ranking.closeness.models == models == ranking.ensemble.models
        for key, dm in ranking.matrices.items():
            assert dm.alternatives == models
            np.testing.assert_array_equal(dm.values, name_sorted(matrices[key]).values)
            np.testing.assert_array_equal(
                ranking.closeness.closeness[:, int(key) - 1], topsis(dm).closeness
            )
        for key, dm in matrices.items():
            assert dm.alternatives == given[key][0]
            np.testing.assert_array_equal(dm.values, given[key][1])
        assert list(ranking.matrices) == list(ranking.weights) == list(ranking.topsis)

    @pytest.mark.parametrize("fault", ["lacks", "adds"])
    def test_model_set_mismatch_names_its_key(self, fault):
        matrices = fixture_matrices("asymptomatic")
        dm = matrices["2"]
        if fault == "lacks":
            names, values = dm.alternatives[1:], dm.values[1:]
            message = "'Extra-Trees' is missing here"
        else:
            names, values = dm.alternatives + ["extra"], np.vstack([dm.values, dm.values[:1]])
            message = "'extra' is not in the first matrix"
        matrices["2"] = DecisionMatrix(names, dm.criteria, values)
        with pytest.raises(RankError) as err:
            rank(matrices)
        assert err.value.strategy == "2"
        assert str(err.value) == f"matrices disagree on the model set: {message}"

    def test_all_constant_matrix_names_its_key(self):
        matrices = fixture_matrices("asymptomatic")
        dm = matrices["3"]
        matrices["3"] = DecisionMatrix(
            dm.alternatives, dm.criteria, np.tile(dm.values[0], (len(MODELS), 1))
        )
        with pytest.raises(RankError) as err:
            rank(matrices)
        assert err.value.strategy == "3"
        assert isinstance(err.value, ValueError)
        assert str(err.value) == "all criteria are constant; weights undefined"
