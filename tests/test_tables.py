import csv
import re
import tracemalloc
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coughrank import InputError, tables
from coughrank.audio import FEATURE_COLUMNS
from coughrank.ensemble import ClosenessTable
from coughrank.metrics import DEFAULT_CRITERIA, PredictionSet
from coughrank.tables import (
    fmt,
    read_criteria,
    read_decision_matrix,
    read_features,
    read_labels,
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

    @pytest.mark.parametrize("first_labelled", [True, False])
    def test_label_presence_differing_from_first_row_reports_line(
        self, tmp_path, first_labelled
    ):
        rows = self.make_rows(4, with_labels=first_labelled)
        sid, label, vec = rows[2]
        rows[2] = (sid, None if first_labelled else 1, vec)
        path = tmp_path / "features.csv"
        write_features(path, rows)
        wanted = "0 or 1" if first_labelled else "empty"
        with pytest.raises(
            InputError,
            match=rf"^{re.escape(str(path))}:4: label must be {wanted}, as in the first row$",
        ):
            read_features(path)

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

    @pytest.mark.parametrize("column, value", [(1, "x"), (7, "nan?")], ids=["label", "feature"])
    def test_bad_value_on_late_line_reports_line(self, tmp_path, column, value):
        path = tmp_path / "features.csv"
        write_features(path, self.make_rows(30))
        lines = path.read_text().splitlines()
        row = lines[25].split(",")
        row[column] = value
        lines[25] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:26: .*{re.escape(value)}"):
            read_features(path)

    def test_repeated_sample_id_reports_line(self, tmp_path):
        path = tmp_path / "features.csv"
        write_features(path, self.make_rows(5))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + [lines[2]]))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:7: repeated sample_id 'clip1'"):
            read_features(path)


# 40 valid rows over three interleaved groups
GOOD_PREDICTION_ROWS = "".join(f"m{i % 3},1,s{i},{i % 2},0.{i % 9 + 1}\n" for i in range(40))


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

    @pytest.mark.parametrize(
        "body, line",
        [
            ("m,1,s0,yes,0.5\n", 2),
            (GOOD_PREDICTION_ROWS + "m0,2,s0,yes,0.5\n", 42),
            (GOOD_PREDICTION_ROWS + "m0,2,s0,1,high\n", 42),
        ],
        ids=["label", "late_label", "late_score"],
    )
    def test_malformed_row_reports_line(self, tmp_path, body, line):
        path = tmp_path / "predictions.csv"
        path.write_text("model,strategy,sample_id,true_label,score\n" + body)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: "):
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

    def test_bad_value_reports_line(self, tmp_path):
        dm = load_fixture_matrix("asymptomatic", 1)
        path = tmp_path / "dm.csv"
        write_decision_matrix(path, dm)
        lines = path.read_text().splitlines()
        lines[8] = lines[8].rsplit(",", 1)[0] + ",n/a"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:9: .*'n/a'"):
            read_decision_matrix(path, list(DEFAULT_CRITERIA))


class TestLabelsFile:
    def test_vocabulary(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("sample_id,label\nb,Negative\na,COVID\n")
        assert read_labels(path, {"a", "b"}) == {"b": 0, "a": 1}

    def test_third_column_reports_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("sample_id,label\na,1\nb,0,extra\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: expected 2 columns"):
            read_labels(path, {"a", "b"})


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


# The list-building predictions reader that `read_predictions` replaced,
# kept as an oracle for the streaming one.
def _oracle_read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, header row required")
        return header, list(reader)


def _oracle_first_repeat(rows, model, strategy):
    seen = set()
    for lineno, row in enumerate(rows, start=2):
        if row[0] == model and row[1] == strategy:
            if row[2] in seen:
                return lineno, row[2]
            seen.add(row[2])


def oracle_read_predictions(path, threshold=0.5):
    header, rows = _oracle_read_rows(path)
    if header != ["model", "strategy", "sample_id", "true_label", "score"]:
        raise ValueError(f"{path}: unexpected header")
    groups = OrderedDict()
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 columns")
        try:
            model, strategy, sid = row[0], row[1], row[2]
            label, score = int(row[3]), float(row[4])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        groups.setdefault((model, strategy), []).append((sid, label, score))
    out = []
    for (model, strategy), entries in groups.items():
        sample_ids = [e[0] for e in entries]
        if len(set(sample_ids)) != len(sample_ids):
            lineno, sid = _oracle_first_repeat(rows, model, strategy)
            raise ValueError(
                f"{path}:{lineno}: sample_id {sid!r} repeated in model {model!r},"
                f" strategy {strategy}"
            )
        try:
            ps = PredictionSet(
                model_name=model,
                strategy_id=strategy,
                sample_ids=sample_ids,
                true_labels=np.array([e[1] for e in entries]),
                scores=np.array([e[2] for e in entries]),
                threshold=threshold,
            )
        except ValueError as exc:
            raise ValueError(
                f"{path}: model {model!r} in strategy {strategy}: {exc}"
            ) from exc
        out.append(ps)
    return out


def write_interleaved_predictions(path, seed, n_models=12, n_strategies=4, n_ids=25):
    """Rows of every (model, strategy) group shuffled together. Ids hold
    commas and quotes, and scores are written at full precision."""
    rng = np.random.default_rng(seed)
    ids = [f'clip "{i}", take {i % 3}' for i in range(n_ids)]
    rows = []
    for m in range(n_models):
        for s in range(1, n_strategies + 1):
            labels = rng.permutation(np.arange(n_ids) % 2)
            for i in rng.permutation(n_ids):
                rows.append([f"model,{m}", str(s), ids[i], int(labels[i]), repr(rng.uniform())])
    rows = [rows[i] for i in rng.permutation(len(rows))]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "strategy", "sample_id", "true_label", "score"])
        writer.writerows(rows)


def _location(path, exc):
    """The `file:` or `file:line:` prefix of an error message."""
    message = str(exc)
    assert message.startswith(str(path))
    return re.match(r":(\d+:)?", message[len(str(path)):]).group(0)


class TestPredictionsOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("threshold", [0.5, 0.3])
    def test_same_sets_as_list_building_reader(self, tmp_path, seed, threshold):
        path = tmp_path / "predictions.csv"
        write_interleaved_predictions(path, seed)
        got = read_predictions(path, threshold=threshold)
        want = oracle_read_predictions(path, threshold=threshold)
        assert [(p.model_name, p.strategy_id) for p in got] == [
            (p.model_name, p.strategy_id) for p in want
        ]
        assert len(want) == 48
        for g, w in zip(got, want):
            assert g.sample_ids == w.sample_ids
            assert g.true_labels.dtype == w.true_labels.dtype
            np.testing.assert_array_equal(g.true_labels, w.true_labels)
            assert [float(x).hex() for x in g.scores] == [float(x).hex() for x in w.scores]
            assert g.threshold == w.threshold == threshold

    @pytest.mark.parametrize(
        "fault",
        ["header", "empty", "short_row", "label", "score", "repeat", "non_binary"],
    )
    def test_same_error_location_as_list_building_reader(self, tmp_path, fault):
        path = tmp_path / "predictions.csv"
        write_interleaved_predictions(path, seed=4, n_models=3, n_strategies=2, n_ids=10)
        lines = path.read_text().splitlines()
        late = len(lines) - 3
        model, strategy, sid, *_ = next(csv.reader([lines[late]]))
        bad = f'"{model}",{strategy},"{sid.replace(chr(34), 2 * chr(34))}"'
        if fault == "header":
            lines[0] = "model,strategy,sample_id,label,score"
        elif fault == "empty":
            lines = []
        elif fault == "short_row":
            lines[late] = f'"{model}",{strategy},0.5'
        elif fault == "label":
            lines[late] = bad + ",yes,0.5"
        elif fault == "score":
            lines[late] = bad + ",1,high"
        elif fault == "repeat":
            lines.append(lines[late])
        else:
            lines[late] = bad + ",2,0.5"
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ValueError) as want:
            oracle_read_predictions(path)
        with pytest.raises(InputError) as got:
            read_predictions(path)
        assert type(want.value) is ValueError
        assert _location(path, got.value) == _location(path, want.value)
        if fault in ("short_row", "label", "score", "repeat"):
            assert _location(path, got.value) != ":"

    @pytest.mark.parametrize(
        "later",
        ["c,1,0.5\n", "c,1,s1,yes,0.5\na,1,s1,0,?\n"],
        ids=["short_row", "values_of_other_groups"],
    )
    def test_first_fault_in_block_wins(self, tmp_path, later):
        # a bad score on line 5 in group b, then later faults in the same
        # block: a short row, or bad values in groups c and a, which
        # entered the block before and after b
        path = tmp_path / "predictions.csv"
        path.write_text(
            "model,strategy,sample_id,true_label,score\n"
            "c,1,s0,1,0.5\nb,1,s0,1,0.5\na,1,s0,0,0.5\nb,1,s1,0,high\n" + later
        )
        with pytest.raises(ValueError) as want:
            oracle_read_predictions(path)
        with pytest.raises(ValueError) as got:
            read_predictions(path)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{path}:5: ")


def prediction_groups(seed, n_models=4, n_strategies=3, n_ids=25):
    """The rows of each (model, strategy) group, each over all ids in
    shuffled order. Ids hold commas and quotes, and scores are written at
    full precision."""
    rng = np.random.default_rng(seed)
    ids = [f'clip "{i}", take {i % 3}' for i in range(n_ids)]
    groups = []
    for m in range(n_models):
        for s in range(1, n_strategies + 1):
            labels = rng.permutation(np.arange(n_ids) % 2)
            groups.append(
                [
                    [f"model,{m}", str(s), ids[i], int(labels[i]), repr(rng.uniform())]
                    for i in rng.permutation(n_ids)
                ]
            )
    return groups


def layout_rows(groups, layout, seed=0):
    """All rows of `groups` in one file layout."""
    if layout == "contiguous":
        return [row for group in groups for row in group]
    if layout == "comeback":  # A A B B ... A A B B ...: every group comes back
        halves = [(g[: len(g) // 2], g[len(g) // 2 :]) for g in groups]
        return [row for part in (0, 1) for h in halves for row in h[part]]
    rows = [row for group in groups for row in group]
    return [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]


def write_prediction_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "strategy", "sample_id", "true_label", "score"])
        writer.writerows(rows)


class TestPredictionsLayouts:
    @pytest.mark.parametrize("block", [None, 7], ids=["default_block", "block_7"])
    @pytest.mark.parametrize("layout", ["contiguous", "comeback", "shuffled"])
    def test_same_sets_as_list_building_reader(self, tmp_path, monkeypatch, layout, block):
        if block is not None:
            monkeypatch.setattr(tables, "_BLOCK", block)
        path = tmp_path / "predictions.csv"
        write_prediction_rows(path, layout_rows(prediction_groups(seed=5), layout))
        got = read_predictions(path)
        want = oracle_read_predictions(path)
        assert [(p.model_name, p.strategy_id) for p in got] == [
            (p.model_name, p.strategy_id) for p in want
        ]
        assert len(want) == 12
        for g, w in zip(got, want):
            assert g.sample_ids == w.sample_ids
            assert g.true_labels.dtype == w.true_labels.dtype
            np.testing.assert_array_equal(g.true_labels, w.true_labels)
            assert [float(x).hex() for x in g.scores] == [float(x).hex() for x in w.scores]
        first = {sid: sid for sid in got[0].sample_ids}
        for g in got[1:]:
            assert all(sid is first[sid] for sid in g.sample_ids)

    @pytest.mark.parametrize("layout", ["contiguous", "shuffled"])
    def test_peak_memory_per_row(self, tmp_path, layout):
        # 240 000 rows: 2000 ids, 40 models x 3 strategies
        groups = prediction_groups(seed=3, n_models=40, n_strategies=3, n_ids=2000)
        path = tmp_path / "predictions.csv"
        write_prediction_rows(path, layout_rows(groups, layout))
        del groups
        tracemalloc.start()
        try:
            sets = read_predictions(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(p.sample_ids) for p in sets) == 240_000
        assert peak / 240_000 < 60


def assert_same_sets(got, want):
    assert [(p.model_name, p.strategy_id) for p in got] == [
        (p.model_name, p.strategy_id) for p in want
    ]
    for g, w in zip(got, want):
        assert g.sample_ids == w.sample_ids
        assert g.true_labels.dtype == w.true_labels.dtype
        np.testing.assert_array_equal(g.true_labels, w.true_labels)
        assert [float(x).hex() for x in g.scores] == [float(x).hex() for x in w.scores]


def _physical_location(path, location):
    """The oracle numbers a row by its index among CSV records; the reader by
    the last physical line the record spans. Translate the oracle's number."""
    if location == ":":
        return location
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        ends = [reader.line_num for _ in reader]
    return f":{ends[int(location[1:-1]) - 1]}:"


# Ids hold a comma, quotes and a newline, so csv.writer quotes them and one
# record can span two lines.
FUZZ_MODELS = ["a", 'm,"b"']
FUZZ_IDS = ["s0", 's,"1"', "s\n2", "s 3", "s4"]
FUZZ_KEYS = [(m, s, i) for m in FUZZ_MODELS for s in ("1", "2") for i in FUZZ_IDS]
FUZZ_LABELS = ["0", "1"] * 6 + [" 1", "+1", "01", "2", "x"]
FUZZ_BAD_SCORES = ["high", "", "nan", "1.5", "-0.25"]


@st.composite
def prediction_files(draw):
    """Rows over distinct (model, strategy, sample_id) keys, a few of them
    faulty: a blank, short, long or repeated row, an odd label, a bad score."""
    rows = []
    for model, strategy, sid in draw(st.lists(st.sampled_from(FUZZ_KEYS), unique=True)):
        label = draw(st.sampled_from(FUZZ_LABELS))
        score = draw(
            st.one_of(st.floats(0, 1).map(repr), st.sampled_from(FUZZ_BAD_SCORES))
            if draw(st.integers(0, 9)) == 0
            else st.floats(0, 1).map(repr)
        )
        row = [model, strategy, sid, label, score]
        kind = draw(st.sampled_from(["row"] * 16 + ["blank", "short", "long", "repeat"]))
        rows.append({"row": row, "blank": [], "short": row[:3], "long": row + ["x"]}.get(kind, row))
        if kind == "repeat":
            rows.append(row)
    return rows, draw(st.sampled_from(["\n", "\r\n"]))


class TestPredictionsFuzz:
    @pytest.mark.parametrize("block", [None, 1, 3, 7])
    @settings(max_examples=75, deadline=None, derandomize=True)
    @given(drawn=prediction_files())
    def test_same_sets_or_location_as_list_building_reader(
        self, tmp_path_factory, block, drawn
    ):
        rows, newline = drawn
        path = tmp_path_factory.getbasetemp() / "fuzz_predictions.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator=newline)
            writer.writerow(["model", "strategy", "sample_id", "true_label", "score"])
            writer.writerows(rows)
        try:
            want = oracle_read_predictions(path)
        except ValueError as exc:
            with pytest.raises(InputError) as got:
                with mock.patch.object(tables, "_BLOCK", block or tables._BLOCK):
                    read_predictions(path)
            assert _location(path, got.value) == _physical_location(path, _location(path, exc))
            return
        with mock.patch.object(tables, "_BLOCK", block or tables._BLOCK):
            got = read_predictions(path)
        assert_same_sets(got, want)


class TestLabelFastPath:
    ODD = ["0", "01", "+1", "\u0661", " 1", "1", "0"]  # U+0661 is ARABIC-INDIC DIGIT ONE

    def write(self, path, groups):
        write_prediction_rows(
            path,
            [
                [model, "1", f"s{i}", label, "0.5"]
                for model, labels in groups.items()
                for i, label in enumerate(labels)
            ],
        )

    def test_same_arrays_as_int_parse(self, tmp_path):
        groups = {"plain": ["0", "1", "1", "0"], "spaced": ["1", " 1", "0"], "odd": self.ODD}
        path = tmp_path / "predictions.csv"
        self.write(path, groups)
        for ps in read_predictions(path):
            want = np.array(groups[ps.model_name], dtype=int)
            assert ps.true_labels.dtype == want.dtype
            np.testing.assert_array_equal(ps.true_labels, want)

    def test_non_binary_label_keeps_prediction_set_message(self, tmp_path):
        path = tmp_path / "predictions.csv"
        self.write(path, {"a": ["0", "1"], "b": ["1", "2", "0"]})
        with pytest.raises(InputError) as exc:
            read_predictions(path)
        assert str(exc.value) == f"{path}: model 'b' in strategy 1: labels must be binary 0/1"

    def test_unparsable_label_keeps_its_line(self, tmp_path):
        path = tmp_path / "predictions.csv"
        self.write(path, {"a": ["0", "1"], "b": ["1", "0", "x"]})
        with pytest.raises(InputError) as exc:
            read_predictions(path)
        assert str(exc.value) == f"{path}:6: invalid literal for int() with base 10: 'x'"
