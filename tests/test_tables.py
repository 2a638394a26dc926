import numpy as np
import pytest

from coughrank.audio import FEATURE_COLUMNS
from coughrank.ensemble import ClosenessTable
from coughrank.metrics import DEFAULT_CRITERIA, PredictionSet
from coughrank.tables import (
    fmt,
    read_criteria,
    read_decision_matrix,
    read_features,
    read_predictions,
    write_closeness,
    write_criteria,
    write_decision_matrix,
    write_features,
    write_predictions,
)

from conftest import load_fixture_matrix


class TestFmt:
    def test_nine_significant_digits(self):
        assert fmt(1 / 3) == "0.333333333"
        assert fmt(0.5) == "0.5"
        assert fmt(123456789.5) == "123456790"

    def test_round_trip_stable(self):
        for x in (1 / 3, 0.1 + 0.2, np.pi, 1e-7):
            assert fmt(float(fmt(x))) == fmt(x)


class TestFeaturesFile:
    def make_rows(self, n, with_labels=True):
        rng = np.random.default_rng(0)
        return [
            (
                f"clip{i}",
                (i % 2) if with_labels else None,
                rng.normal(size=len(FEATURE_COLUMNS)),
            )
            for i in range(n)
        ]

    def test_round_trip(self, tmp_path):
        rows = self.make_rows(3)
        path = tmp_path / "features.csv"
        write_features(path, rows)
        ids, labels, matrix = read_features(path)
        assert ids == ["clip0", "clip1", "clip2"]
        assert labels == [0, 1, 0]
        for (_, _, vec), parsed in zip(rows, matrix):
            np.testing.assert_allclose(parsed, vec, rtol=1e-8)

    def test_rewrite_is_byte_identical(self, tmp_path):
        path1 = tmp_path / "a.csv"
        path2 = tmp_path / "b.csv"
        write_features(path1, self.make_rows(2))
        ids, labels, matrix = read_features(path1)
        write_features(path2, list(zip(ids, labels, matrix)))
        assert path1.read_bytes() == path2.read_bytes()

    def test_missing_labels_read_as_none(self, tmp_path):
        path = tmp_path / "features.csv"
        write_features(path, self.make_rows(2, with_labels=False))
        _, labels, _ = read_features(path)
        assert labels is None

    def test_wrong_vector_length_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_features(tmp_path / "f.csv", [("a", 1, np.zeros(10))])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("sample_id,label,oops\na,1,0.5\n")
        with pytest.raises(ValueError):
            read_features(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_features(path)


class TestPredictionsFile:
    def make_sets(self):
        rng = np.random.default_rng(1)
        sets = []
        for model in ("m1", "m2"):
            for strategy in ("1", "2"):
                sets.append(
                    PredictionSet(
                        model_name=model,
                        strategy_id=strategy,
                        sample_ids=[f"s{i}" for i in range(6)],
                        true_labels=np.array([0, 1, 0, 1, 0, 1]),
                        scores=rng.uniform(0.01, 0.99, 6),
                    )
                )
        return sets

    def test_round_trip_grouping(self, tmp_path):
        sets = self.make_sets()
        path = tmp_path / "predictions.csv"
        write_predictions(path, sets)
        parsed = read_predictions(path)
        assert len(parsed) == 4
        for orig, back in zip(sets, parsed):
            assert back.model_name == orig.model_name
            assert back.strategy_id == orig.strategy_id
            assert back.sample_ids == orig.sample_ids
            np.testing.assert_array_equal(back.true_labels, orig.true_labels)
            np.testing.assert_allclose(back.scores, orig.scores, rtol=1e-8)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "predictions.csv"
        path.write_text(
            "model,strategy,sample_id,true_label,score\nm,1,s0,yes,0.5\n"
        )
        with pytest.raises(ValueError, match=":2:"):
            read_predictions(path)


class TestCriteriaFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "criteria.csv"
        write_criteria(path, list(DEFAULT_CRITERIA))
        parsed = read_criteria(path)
        assert [(c.name, c.direction) for c in parsed] == [
            (c.name, c.direction) for c in DEFAULT_CRITERIA
        ]

    def test_unknown_direction_rejected(self, tmp_path):
        path = tmp_path / "criteria.csv"
        path.write_text("name,direction\nacc,sideways\n")
        with pytest.raises(ValueError):
            read_criteria(path)


class TestDecisionMatrixFile:
    def test_fixture_round_trip(self, tmp_path):
        dm = load_fixture_matrix("asymptomatic", 1)
        path = tmp_path / "dm.csv"
        write_decision_matrix(path, dm)
        back = read_decision_matrix(path, list(DEFAULT_CRITERIA))
        assert back.alternatives == dm.alternatives
        np.testing.assert_allclose(back.values, dm.values, rtol=1e-8)

    def test_header_criteria_mismatch_rejected(self, tmp_path):
        dm = load_fixture_matrix("asymptomatic", 1)
        path = tmp_path / "dm.csv"
        write_decision_matrix(path, dm)
        with pytest.raises(ValueError):
            read_decision_matrix(path, list(DEFAULT_CRITERIA)[:-1])


class TestClosenessFile:
    def test_round_trip(self, tmp_path):
        ct = ClosenessTable(
            ["a", "b", "c"],
            ["1", "2"],
            np.array([[0.1, 0.9], [1 / 3, 0.2], [0.5, 2 / 3]]),
        )
        path = tmp_path / "closeness.csv"
        write_closeness(path, ct)
        assert path.read_text() == (
            "model,strategy,closeness\n"
            "a,1,0.1\na,2,0.9\n"
            "b,1,0.333333333\nb,2,0.2\n"
            "c,1,0.5\nc,2,0.666666667\n"
        )
