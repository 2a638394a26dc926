"""Exit codes: bad input ends in exit 2, a defect in exit 1.

`cli.main` maps `InputError` and `OSError` to exit 2 and any other
exception to exit 1; argparse exits 2 on a bad option. Hypothesis writes
input files near their formats (fields that parse, fields that nearly do,
arbitrary text, a corrupted byte) and option values near theirs, and
checks that the only outcomes are 0, 2 and 3, and that nothing the run
prints or logs holds a traceback. Then come one defect, which must
end in exit 1, and inputs that used to end there or to name no file.
"""

import contextlib
import io
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coughrank import cli
from coughrank.cli import EXIT_DEGENERATE, EXIT_INPUT, EXIT_OK, main
from coughrank.metrics import METRIC_NAMES
from coughrank.tables import PREDICTIONS_HEADER

from conftest import DATA_DIR
from test_cli import make_features_csv, write_wav

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)
BIG_FIELD = "x" * 200_000  # over the csv module's 131 072-character field limit


def run(argv):
    """The exit code of `main(argv)` and everything it printed or logged."""
    err = io.StringIO()
    handler = logging.StreamHandler(err)
    logger = logging.getLogger("coughrank")
    logger.addHandler(handler)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse rejects an option
        code = exc.code
    finally:
        logger.removeHandler(handler)
    return code, err.getvalue()


def assert_not_a_defect(argv):
    code, err = run(argv)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_DEGENERATE), err
    assert "Traceback" not in err and "internal error" not in err, err


def corrupted(data, edits):
    """`data` with each (position, byte) of `edits` written over it."""
    data = bytearray(data)
    for pos, byte in edits:
        if data:
            data[pos % len(data)] = byte
    return bytes(data)


# one or two bytes overwritten, by bytes that end a field, a row or a
# file, open a quote, or are not UTF-8
BYTES = st.sampled_from(list(b'\x00\n\r",.-e0 \xff\xc3'))
EDITS = st.lists(st.tuples(st.integers(0, 10**6), BYTES), min_size=1, max_size=2)


@st.composite
def csv_bytes(draw, header, columns, key=1, max_rows=6):
    """A CSV file in the format `header`, its rows built from `columns`,
    which gives each column's (good, bad) tokens. Half the files are well
    formed, of good tokens only and with no repeat of a row's first `key`
    fields, so a run gets past the reader; the other half may have another
    header, rows of another width, bad tokens or arbitrary text as fields,
    repeated keys and corrupted bytes."""
    width = len(header)
    noisy = draw(st.booleans())

    def field(j):
        good, bad = columns[j % width]
        if not noisy:
            return st.sampled_from(good)
        return st.integers(0, 9).flatmap(
            lambda i: st.sampled_from(good) if i < 7
            else st.sampled_from(bad) if i < 9
            else st.text(max_size=4)
        )

    first = draw(st.lists(field(0), max_size=width + 1)) if noisy and draw(st.booleans()) else header
    widths = st.sampled_from([width - 1, width, width + 1]) if noisy else st.just(width)
    row = widths.flatmap(lambda n: st.tuples(*(field(j) for j in range(n))))
    unique = None if noisy else (lambda r: r[:key])
    rows = draw(st.lists(row, max_size=max_rows, unique_by=unique))
    lines = [",".join(first)] + [",".join(r) for r in rows]
    sep = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from([sep, ""]))
    data = (sep.join(lines) + end).encode()
    return corrupted(data, draw(EDITS)) if noisy and draw(st.booleans()) else data


VALUES = (
    ["0", "1", "0.5", "0.25", "0.9", "-2", "3e5", "1e308", "-1e308", "5e-324", "1e-300"],
    ["nan", "inf", "", "x", "1e999", "0x1p3"],
)
MATRIX = csv_bytes(
    ["model", *METRIC_NAMES], [(["a", "b", "c", "d"], ["", "a,b", '"'])] + [VALUES] * 8
)
PREDICTIONS = csv_bytes(
    PREDICTIONS_HEADER,
    [
        (["a", "b", "c"], ["", "a b"]),
        (["1", "2"], ["", "1.0"]),
        (["s0", "s1", "s2", "s3"], ["", "S0"]),
        (["0", "1"], ["2", "-1", "99999999999999999999", "1.0", ""]),
        (["0.1", "0.9", "0.5", "0", "1", "0.25"], ["1.5", "-0.1", "nan", "inf", ""]),
    ],
    key=3,
    max_rows=12,
)
LABELS = csv_bytes(
    ["sample_id", "label"],
    [(["a", "b"], ["A", "", "a.wav"]), (["1", "0", "covid", "Negative"], ["maybe", "", "2"])],
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Files the fuzzed runs share: one short WAV, and a features.csv too
    small to train on, so a run stops once its input is read."""
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "wavs").mkdir()
    write_wav(tmp / "wavs" / "a.wav", 440, duration=0.05)
    make_features_csv(tmp / "few.csv", n_pos=2, n_neg=2)
    return tmp


@given(data=MATRIX)
@FUZZ
def test_rank_matrix(work, data):
    matrix = work / "matrix.csv"
    matrix.write_bytes(data)
    valid = DATA_DIR / "decision_matrix_asymptomatic_strategy1.csv"
    assert_not_a_defect(["rank", str(matrix), str(valid), "--out", str(work / "rank")])
    assert_not_a_defect(["rank", str(matrix), "--out", str(work / "rank")])


@given(data=PREDICTIONS)
@FUZZ
def test_evaluate_predictions(work, data):
    predictions = work / "predictions.csv"
    predictions.write_bytes(data)
    assert_not_a_defect(["evaluate", str(predictions), "--out", str(work / "evaluate")])


@given(data=LABELS)
@FUZZ
def test_extract_labels(work, data):
    labels = work / "labels.csv"
    labels.write_bytes(data)
    argv = ["extract", str(work / "wavs"), "--labels", str(labels), "--out", str(work / "f.csv")]
    assert_not_a_defect(argv)


# option text near an integer or a metric name: non-ASCII digits, signs,
# floats, JSON literals, empty text
OPTION_TEXT = st.one_of(
    st.sampled_from(["3", "0", "-1", "+3", "03", "\u0663", "\uff13", "2.5", "1e3", "true", "null"]),
    st.sampled_from(["f1", "recall", "auc", "fpr", "F1", '"f1"', "f1 ", ""]),
    st.text(max_size=4),
)


@given(flag=st.sampled_from(["--smote-k", "--threshold-objective"]), text=OPTION_TEXT)
@FUZZ
def test_pipeline_settings(work, flag, text):
    argv = ["pipeline", str(work / "few.csv"), flag, text, "--out", str(work / "p")]
    assert_not_a_defect(argv)


# digits of other scripts (Arabic-Indic, full-width, Devanagari, ...), alone or
# after an ASCII digit: an integer option takes ASCII digits only
NON_ASCII_DIGITS = st.tuples(
    st.sampled_from(["", "4"]), st.text(st.characters(categories=["Nd"]), min_size=1, max_size=3)
).map("".join).filter(lambda text: not text.isascii())
# text that is no number strictly between 0 and 1: the bounds, numbers beyond them,
# non-numbers, and fractions written with non-ASCII digits
THRESHOLD_TEXT = st.one_of(
    st.sampled_from(["0", "1", "nan", "inf", "-inf", "1e999", "0x1p-1", "", "0,5", "1/2", "x"]),
    st.floats().filter(lambda value: not 0.0 < value < 1.0).map(repr),
    NON_ASCII_DIGITS.map(lambda digits: "0." + digits),
    st.text(st.characters(categories=["L"]), max_size=4),
)
INTEGER_FLAGS = [
    ("pipeline", "--smote-k"), ("pipeline", "--seed"),
    ("rfecv", "--seed"), ("rfecv", "--folds"), ("rfecv", "--step"),
]


@given(
    option=st.one_of(
        st.tuples(st.sampled_from(INTEGER_FLAGS), NON_ASCII_DIGITS),
        st.tuples(st.just(("evaluate", "--threshold")), THRESHOLD_TEXT),
    )
)
@FUZZ
def test_bad_option_text_exits_2_before_output(work, option):
    (command, flag), text = option
    out = work / "bad_option_out"
    code, err = run([command, str(work / "few.csv"), flag, text, "--out", str(out)])
    assert code == EXIT_INPUT, err
    assert f"argument {flag}" in err and "Traceback" not in err, err
    assert not out.exists()


@given(
    edits=st.one_of(st.just([]), EDITS),
    field=st.tuples(
        st.integers(1, 194), st.sampled_from(["", "nan", "-inf", "1e999", "2", "x", "0x1p3", "1,2"])
    ),
)
@FUZZ
def test_features_bytes(work, edits, field):
    lines = (work / "few.csv").read_text().splitlines()
    cells = lines[2].split(",")
    cells[field[0]] = field[1]
    lines[2] = ",".join(cells)
    features = work / "features.csv"
    features.write_bytes(corrupted(("\n".join(lines) + "\n").encode(), edits))
    assert_not_a_defect(["pipeline", str(features), "--out", str(work / "p")])


def test_defect_exits_1(tmp_path, monkeypatch, caplog):
    def broken(*args, **kwargs):
        raise ValueError("a defect, not bad input")

    monkeypatch.setattr(cli.tables, "write_closeness", broken)
    matrices = [str(DATA_DIR / f"decision_matrix_symptomatic_strategy{s}.csv") for s in (1, 2, 3)]
    assert main(["rank", *matrices, "--out", str(tmp_path)]) == cli.EXIT_INTERNAL
    assert "internal error: a defect, not bad input" in caplog.text


def matrix_text(model="a"):
    rows = [["model", *METRIC_NAMES], [model, *["0.5"] * 8], ["b", *["0.25"] * 8]]
    return "".join(",".join(row) + "\n" for row in rows)


LONG_PREDICTION = f"{','.join(PREDICTIONS_HEADER)}\na,1,s0,0,0.2\na,1,{BIG_FIELD},1,0.8\n"


@pytest.mark.parametrize(
    "argv, content, where",
    [
        (["rank"], matrix_text(BIG_FIELD).encode(), ":2: field larger than field limit"),
        (["evaluate"], LONG_PREDICTION.encode(), ":3: field larger than field limit"),
        (["rank"], None, "Is a directory"),
        (["evaluate"], None, "Is a directory"),
        (["rank"], matrix_text("\xe9").encode("latin-1"), ": not UTF-8 text"),
    ],
    ids=["long_field_rank", "long_field_evaluate", "dir_rank", "dir_evaluate", "latin1_rank"],
)
def test_unreadable_input_names_its_file(tmp_path, capsys, argv, content, where):
    """The first four ended in exit 1 with a traceback; the last in exit 2
    with a message that named no file. `content` None makes the input a
    directory."""
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main([*argv, str(path), "--out", str(tmp_path / "out")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and where in err
