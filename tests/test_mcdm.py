import math
import warnings

import numpy as np
import pytest

from coughrank.mcdm import (
    competition_ranks,
    entropy_weights,
    ideal_solutions,
    topsis,
    vector_normalize,
)
from coughrank.metrics import CriterionSpec, DecisionMatrix

from conftest import MODELS, load_fixture_matrix

# Published entropy weights, one row per (category, strategy)
PUBLISHED_WEIGHTS = {
    ("asymptomatic", 1): [0.10, 0.06, 0.13, 0.06, 0.11, 0.07, 0.25, 0.22],
    ("asymptomatic", 2): [0.13, 0.19, 0.14, 0.09, 0.09, 0.18, 0.09, 0.10],
    ("asymptomatic", 3): [0.10, 0.10, 0.09, 0.08, 0.12, 0.11, 0.19, 0.21],
    ("symptomatic", 1): [0.13, 0.13, 0.11, 0.10, 0.09, 0.12, 0.15, 0.16],
    ("symptomatic", 2): [0.09, 0.16, 0.14, 0.09, 0.10, 0.08, 0.15, 0.18],
    ("symptomatic", 3): [0.07, 0.09, 0.10, 0.07, 0.09, 0.07, 0.15, 0.37],
}

# Published closeness columns, model order as in MODELS
PUBLISHED_CLOSENESS = {
    ("asymptomatic", 1): [1.0, 0.478, 0.871, 0.483, 0.579, 0.690, 0.314, 0.267, 0.561, 0.920],
    ("asymptomatic", 2): [0.806, 0.370, 0.683, 0.256, 0.428, 0.699, 0.351, 0.357, 0.405, 0.806],
    ("asymptomatic", 3): [0.701, 0.535, 0.867, 0.422, 0.614, 0.736, 0.807, 0.132, 0.262, 0.736],
    ("symptomatic", 1): [0.947, 0.515, 0.717, 0.515, 0.784, 0.693, 0.514, 0.692, 0.457, 0.176],
    ("symptomatic", 2): [0.790, 0.484, 0.675, 0.427, 0.643, 0.694, 0.626, 0.440, 0.511, 0.467],
    ("symptomatic", 3): [0.772, 0.647, 0.837, 0.743, 0.596, 0.672, 0.915, 0.589, 0.362, 0.662],
}

# Published ideal best / ideal worst (criteria rows, strategies 1-3)
PUBLISHED_IDEALS = {
    "asymptomatic": {
        1: ([0.032, 0.020, 0.045, 0.023, 0.037, 0.025, 0.029, 0.057],
            [0.028, 0.016, 0.037, 0.013, 0.034, 0.016, 0.131, 0.100]),
        2: ([0.042, 0.064, 0.049, 0.030, 0.029, 0.059, 0.019, 0.026],
            [0.038, 0.059, 0.040, 0.026, 0.025, 0.053, 0.036, 0.041]),
        3: ([0.031, 0.034, 0.032, 0.025, 0.041, 0.036, 0.045, 0.058],
            [0.029, 0.032, 0.027, 0.022, 0.037, 0.032, 0.075, 0.083]),
    },
    "symptomatic": {
        1: ([0.043, 0.046, 0.036, 0.036, 0.032, 0.041, 0.0, 0.033],
            [0.036, 0.037, 0.031, 0.028, 0.026, 0.035, 0.102, 0.073]),
        2: ([0.031, 0.055, 0.046, 0.034, 0.035, 0.028, 0.0, 0.025],
            [0.026, 0.047, 0.041, 0.022, 0.028, 0.023, 0.092, 0.096]),
        3: ([0.024, 0.030, 0.034, 0.024, 0.029, 0.022, 0.0, 0.077],
            [0.019, 0.025, 0.030, 0.015, 0.024, 0.017, 0.095, 0.216]),
    },
}


def brute_force_closeness(values, cost_mask, weights=None):
    """Loop-level re-evaluation of the entropy + TOPSIS algorithm steps."""
    m, n = values.shape
    if weights is None:
        # entropy weighting, step by step
        entropies = []
        for j in range(n):
            col = [values[i][j] for i in range(m)]
            lo, hi = min(col), max(col)
            if hi == lo:
                entropies.append(1.0)
                continue
            std = [(v - lo) / (hi - lo) for v in col]
            total = sum(std)
            e = 0.0
            for v in std:
                p = v / total
                if p > 0:
                    e += p * math.log(p)
            entropies.append(-e / math.log(m))
        deficits = [1.0 - e for e in entropies]
        weights = [d / sum(deficits) for d in deficits]
    normed = []
    for j in range(n):
        norm = math.sqrt(sum(values[i][j] ** 2 for i in range(m)))
        normed.append(
            [values[i][j] / norm if norm > 0 else 0.0 for i in range(m)]
        )
    weighted = [[normed[j][i] * weights[j] for j in range(n)] for i in range(m)]
    v_plus, v_minus = [], []
    for j in range(n):
        col = [weighted[i][j] for i in range(m)]
        if cost_mask[j]:
            v_plus.append(min(col))
            v_minus.append(max(col))
        else:
            v_plus.append(max(col))
            v_minus.append(min(col))
    closeness = []
    for i in range(m):
        sp = math.sqrt(sum((weighted[i][j] - v_plus[j]) ** 2 for j in range(n)))
        sm = math.sqrt(sum((weighted[i][j] - v_minus[j]) ** 2 for j in range(n)))
        closeness.append(sm / (sp + sm) if sp + sm > 0 else 0.5)
    return closeness


def random_matrix(rng, m, n):
    values = rng.uniform(0.0, 1.0, (m, n))
    directions = rng.integers(0, 2, n)
    criteria = [
        CriterionSpec(f"c{j}", "cost" if directions[j] else "benefit")
        for j in range(n)
    ]
    return DecisionMatrix([f"a{i}" for i in range(m)], criteria, values)


class TestEntropyWeights:
    @pytest.mark.parametrize("category,strategy", PUBLISHED_WEIGHTS)
    def test_reproduces_published_weights(self, category, strategy):
        dm = load_fixture_matrix(category, strategy)
        wv = entropy_weights(dm)
        np.testing.assert_allclose(
            wv.weights, PUBLISHED_WEIGHTS[(category, strategy)], atol=0.02
        )

    def test_constant_column_weight_zero(self):
        dm = DecisionMatrix(
            ["a", "b", "c"],
            [CriterionSpec("x", "benefit"), CriterionSpec("y", "benefit")],
            np.array([[0.5, 0.1], [0.5, 0.7], [0.5, 0.4]]),
        )
        wv = entropy_weights(dm)
        assert wv.weights[0] == 0.0
        assert wv.weights[1] == pytest.approx(1.0)

    def test_symmetric_two_by_two(self):
        dm = DecisionMatrix(
            ["a", "b"],
            [CriterionSpec("x", "benefit"), CriterionSpec("y", "benefit")],
            np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        np.testing.assert_allclose(entropy_weights(dm).weights, [0.5, 0.5])

    def test_all_constant_rejected(self):
        dm = DecisionMatrix(
            ["a", "b"],
            [CriterionSpec("x", "benefit")],
            np.array([[0.3], [0.3]]),
        )
        with pytest.raises(ValueError):
            entropy_weights(dm)

    def test_weights_normalized_and_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            dm = random_matrix(rng, rng.integers(2, 8), rng.integers(1, 6))
            wv = entropy_weights(dm)
            assert np.all(wv.weights >= 0)
            assert wv.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        dm = random_matrix(rng, 5, 4)
        shifted = DecisionMatrix(
            dm.alternatives, dm.criteria, dm.values + np.array([3.0, -1.0, 0.5, 10.0])
        )
        np.testing.assert_allclose(
            entropy_weights(dm).weights, entropy_weights(shifted).weights, atol=1e-12
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        dm = random_matrix(rng, 6, 3)
        scaled = DecisionMatrix(
            dm.alternatives, dm.criteria, dm.values * np.array([2.0, 7.5, 0.1])
        )
        np.testing.assert_allclose(
            entropy_weights(dm).weights, entropy_weights(scaled).weights, atol=1e-12
        )

    def test_column_spanning_beyond_float_range(self):
        # max - min of the first column is 2e308, past the largest float;
        # every column has the same min-max shape, so all weights are 1/8
        values = np.column_stack([[1e308, -1e308, 0.0]] + [[0.5, 0.4, 0.3]] * 7)
        criteria = [CriterionSpec(f"c{j}", "benefit") for j in range(8)]
        names = ["a", "b", "c"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = entropy_weights(DecisionMatrix(names, criteria, values)).weights
        rescaled = values / np.array([1e300] + [1.0] * 7)
        want = entropy_weights(DecisionMatrix(names, criteria, rescaled)).weights
        assert np.array_equal(got, want)
        np.testing.assert_allclose(got, 0.125, rtol=1e-12)


class TestIdealSolutions:
    @pytest.mark.parametrize("category", ["asymptomatic", "symptomatic"])
    @pytest.mark.parametrize("strategy", [1, 2, 3])
    def test_reproduces_published_ideals(self, category, strategy):
        dm = load_fixture_matrix(category, strategy)
        result = topsis(dm)
        v_plus, v_minus = PUBLISHED_IDEALS[category][strategy]
        np.testing.assert_allclose(result.ideal_best, v_plus, atol=0.005)
        np.testing.assert_allclose(result.ideal_worst, v_minus, atol=0.005)

    def test_single_alternative_degenerates_to_row(self):
        row = np.array([[0.3, 0.7, 0.1]])
        v_plus, v_minus = ideal_solutions(row, [False, True, False])
        np.testing.assert_array_equal(v_plus, row[0])
        np.testing.assert_array_equal(v_minus, row[0])

    def test_negation_symmetry(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            W = rng.uniform(-1, 1, (4, 3))
            benefit = np.zeros(3, bool)
            v_plus, v_minus = ideal_solutions(W, benefit)
            f_plus, f_minus = ideal_solutions(-W, ~benefit)
            np.testing.assert_allclose(f_plus, -v_plus)
            np.testing.assert_allclose(f_minus, -v_minus)


class TestTopsis:
    def test_reproduces_published_closeness_and_ranks(self):
        for (category, strategy), expected in PUBLISHED_CLOSENESS.items():
            dm = load_fixture_matrix(category, strategy)
            result = topsis(dm)
            np.testing.assert_allclose(result.closeness, expected, atol=0.05)

    def test_asymptomatic_strategy1_full_detail(self):
        dm = load_fixture_matrix("asymptomatic", 1)
        result = topsis(dm)
        # Extra-Trees attains the ideal best on every criterion
        assert result.closeness[0] == pytest.approx(1.0, abs=1e-9)
        expected_order = [
            "Extra-Trees", "HGBoost", "RF", "XGBoost", "MLP",
            "k-NN", "AdaBoost", "SVM", "GBoost", "LR",
        ]
        got_order = [MODELS[i] for i in np.argsort(-result.closeness)]
        assert got_order == expected_order

    def test_dominance(self):
        dm = DecisionMatrix(
            ["good", "bad"],
            [CriterionSpec("b", "benefit"), CriterionSpec("c", "cost")],
            np.array([[0.9, 0.1], [0.5, 0.4]]),
        )
        result = topsis(dm)
        assert result.closeness[0] == pytest.approx(1.0)
        assert result.closeness[1] == pytest.approx(0.0)

    def test_three_by_two_hand_case(self):
        from coughrank.mcdm import WeightVector

        dm = DecisionMatrix(
            ["a", "b", "c"],
            [CriterionSpec("x", "benefit"), CriterionSpec("y", "benefit")],
            np.array([[1.0, 1.0], [0.0, 0.0], [0.5, 0.5]]),
        )
        result = topsis(dm, WeightVector(np.array([0.5, 0.5])))
        np.testing.assert_allclose(result.closeness, [1.0, 0.0, 0.5], atol=1e-12)

    def test_all_identical_flagged(self):
        dm = DecisionMatrix(
            ["a", "b"],
            [CriterionSpec("x", "benefit")],
            np.array([[0.4], [0.4]]),
        )
        from coughrank.mcdm import WeightVector

        result = topsis(dm, WeightVector(np.array([1.0])))
        assert result.degenerate
        np.testing.assert_array_equal(result.closeness, [0.5, 0.5])

    def test_brute_force_oracle_small_matrices(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 4))
            dm = random_matrix(rng, m, n)
            try:
                result = topsis(dm)
            except ValueError:
                # all columns constant; oracle has no answer either
                continue
            oracle = brute_force_closeness(dm.values, dm.cost_mask)
            np.testing.assert_allclose(result.closeness, oracle, atol=1e-12)

    def test_column_scaling_leaves_closeness(self):
        rng = np.random.default_rng(11)
        dm = random_matrix(rng, 6, 4)
        scaled = DecisionMatrix(
            dm.alternatives, dm.criteria, dm.values * np.array([3.0, 0.2, 1.0, 9.0])
        )
        np.testing.assert_allclose(
            topsis(dm).closeness, topsis(scaled).closeness, atol=1e-12
        )

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        dm = random_matrix(rng, 7, 3)
        perm = rng.permutation(7)
        permuted = DecisionMatrix(
            [dm.alternatives[i] for i in perm], dm.criteria, dm.values[perm]
        )
        wv = entropy_weights(dm)
        np.testing.assert_allclose(
            topsis(permuted, wv).closeness, topsis(dm, wv).closeness[perm], atol=1e-12
        )

    def test_weight_length_mismatch(self):
        from coughrank.mcdm import WeightVector

        dm = load_fixture_matrix("asymptomatic", 1)
        with pytest.raises(ValueError):
            topsis(dm, WeightVector(np.array([0.5, 0.5])))


def competition_ranks_oracle(scores):
    """The former per-element loop: 1 + the number of strictly higher scores."""
    scores = np.asarray(scores, dtype=np.float64)
    ranks = np.empty(scores.size, dtype=int)
    for i, s in enumerate(scores):
        better = scores > s
        ranks[i] = 1 + int(better.sum())
    return ranks


class TestCompetitionRanks:
    def test_distinct(self):
        np.testing.assert_array_equal(
            competition_ranks(np.array([0.3, 0.9, 0.5])), [3, 1, 2]
        )

    def test_ties_share_better_rank(self):
        np.testing.assert_array_equal(
            competition_ranks(np.array([0.9, 0.9, 0.5, 0.1])), [1, 1, 3, 4]
        )

    def test_matches_loop_oracle_on_heavy_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            m, t = int(rng.integers(2, 161)), int(rng.integers(1, 4))
            # closeness-like columns with few distinct values, and their
            # integer row sums as the hard ensemble ranks them
            table = rng.integers(0, int(rng.integers(1, 40)) + 1, (m, t)) / 100.0
            for scores in [*table.T, table.mean(axis=1), (table * 100).astype(int).sum(axis=1)]:
                np.testing.assert_array_equal(
                    competition_ranks(scores), competition_ranks_oracle(scores)
                )


def test_vector_normalize_zero_column():
    X = np.array([[0.0, 1.0], [0.0, 2.0]])
    out = vector_normalize(X)
    np.testing.assert_array_equal(out[:, 0], 0.0)
    assert np.sqrt((out[:, 1] ** 2).sum()) == pytest.approx(1.0)
