"""The predictions contract against the per-row check it replaced.

Every group of a predictions file must carry exactly the ids of a
reference, each with the reference's label: under `pipeline --external`
the reference is features.csv, under `evaluate` the strategy's first
group in model-name order. `tables.check_samples` makes that check on id
codes; the oracle below is the per-row loop that `cli._read_external`
ran before it, with the reference made a parameter.
"""

import contextlib
import csv
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coughrank import InputError, cli
from coughrank.learn import Dataset

from test_tables import oracle_read_predictions


def _oracle_line(path, model, strategy, index):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    lines = [n for n, row in enumerate(rows, start=1) if row[:2] == [model, strategy]]
    return lines[index]


def oracle_check_group(path, ps, known, ref_name):
    """`known` maps each reference id to its label."""
    group = f"model {ps.model_name!r} in strategy {ps.strategy_id}"
    for index, (sid, label) in enumerate(zip(ps.sample_ids, ps.true_labels.tolist())):
        if known.get(sid) != label:
            line = _oracle_line(path, ps.model_name, ps.strategy_id, index)
            there = f"label {known[sid]}" if sid in known else "no row"
            raise InputError(
                f"{path}:{line}: {group}: sample_id {sid!r} has label {label},"
                f" but {ref_name} has {there}"
            )
    present = set(ps.sample_ids)
    missing = next((sid for sid in known if sid not in present), None)
    if missing is not None:
        raise InputError(f"{path}: {group}: no row for sample_id {missing!r}")


def oracle_external(path, features_csv, ds):
    known = dict(zip(ds.sample_ids, ds.labels.tolist()))
    for ps in oracle_read_predictions(path):
        oracle_check_group(path, ps, known, features_csv)


def oracle_evaluate(path):
    first = {}
    for ps in sorted(oracle_read_predictions(path), key=lambda p: (p.strategy_id, p.model_name)):
        ref = first.setdefault(ps.strategy_id, ps)
        known = dict(zip(ref.sample_ids, ref.true_labels.tolist()))
        oracle_check_group(path, ps, known, f"model {ref.model_name!r}")


IDS = [f"s{i}" for i in range(8)]
LABELS = [0, 1] * 4
FOREIGN = ["x0", "s 1"]


@st.composite
def contract_files(draw):
    """Rows of 2 or 3 models x strategies 1-3, each group over IDS with
    LABELS but for at most one kind of fault: a flipped label, or one or two
    missing ids, foreign ids or repeated rows. The groups come one after
    another or interleaved. Each group keeps both classes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    faults = ["flip", "missing", "missing", "foreign", "repeat"]
    faults += ["none"] * draw(st.sampled_from([4, 40]))
    groups = []
    for model in ["m0", "m1", "m2"][: draw(st.integers(2, 3))]:
        for strategy in "123":
            rows = [[model, strategy, sid, y] for sid, y in zip(IDS, LABELS)]
            fault, n = draw(st.sampled_from(faults)), draw(st.integers(1, 2))
            if fault == "flip":
                rows[draw(st.integers(0, len(rows) - 1))][3] ^= 1
            elif fault == "missing":
                for _ in range(n):
                    del rows[draw(st.integers(0, len(rows) - 1))]
            elif fault == "foreign":
                rows += [[model, strategy, sid, draw(st.integers(0, 1))] for sid in FOREIGN[:n]]
            elif fault == "repeat":
                for sid in [draw(st.sampled_from(IDS)) for _ in range(n)]:
                    rows.append([model, strategy, sid, draw(st.integers(0, 1))])
            groups.append([rows[i] + [round(rng.uniform(), 3)] for i in rng.permutation(len(rows))])
    rows = [row for group in groups for row in group]
    if draw(st.booleans()):
        rows = [rows[i] for i in rng.permutation(len(rows))]
    return rows


def _message(call):
    try:
        call()
    except (InputError, ValueError) as exc:
        return str(exc)
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=contract_files())
def test_same_first_error_as_per_row_check(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "contract_predictions.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "strategy", "sample_id", "true_label", "score"])
        writer.writerows(rows)

    ds = Dataset(np.zeros((len(IDS), 1)), np.array(LABELS), IDS)
    want = _message(lambda: oracle_external(path, "features.csv", ds))
    assert _message(lambda: cli._read_external(path, "features.csv", ds)) == want

    want = _message(lambda: oracle_evaluate(path))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["evaluate", str(path), "--out", str(path.parent / "contract_out")])
    if want is None:
        assert code in (cli.EXIT_OK, cli.EXIT_DEGENERATE)
    else:
        assert (code, err.getvalue()) == (cli.EXIT_INPUT, f"error: {want}\n")
