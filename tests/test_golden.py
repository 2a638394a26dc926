"""Golden artifacts: the outputs of `rank` and `pipeline --external`, pinned.

`tests/data/golden.json` holds, per run, the SHA-256 of every CSV it
writes, its `report.json` and `run_manifest.json` with input paths cut to
file names, and the two verdict lines it prints. The runs are `rank` on
each bundled fixture category and `pipeline --external` on the seed-1
`train_rank` inputs of `perfbench/gen.py`, generated under a temporary
directory. A change that moves any byte fails here and has to regenerate
the file, which makes the moved set part of its diff:

    PYTHONPATH=src python3 tests/test_golden.py

The file records the numpy and scipy versions it was written under; under
other versions the test fails and names both.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from coughrank.cli import main

DATA_DIR = Path(__file__).resolve().parent / "data"
GOLDEN = DATA_DIR / "golden.json"
GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
CATEGORIES = ("asymptomatic", "symptomatic")
PIPELINE_SEED = 1


def versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _names_for_paths(manifest):
    """`manifest` with its input paths cut to file names, which do not
    depend on where the checkout lies."""
    manifest["input_digests"] = {
        Path(path).name: digest for path, digest in manifest["input_digests"].items()
    }
    return manifest


def run_record(argv, out):
    """What `cli.main(argv + ["--out", out])` writes and prints."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main([*argv, "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    report["manifest"] = _names_for_paths(report["manifest"])
    return {
        "csv_sha256": {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))
        },
        "report.json": report,
        "run_manifest.json": _names_for_paths(
            json.loads((out / "run_manifest.json").read_text())
        ),
        "stdout": stdout.getvalue().splitlines(),
    }


def rank_record(category, out):
    """What `rank` writes and prints for one fixture category."""
    matrices = [str(DATA_DIR / f"decision_matrix_{category}_strategy{s}.csv") for s in (1, 2, 3)]
    return run_record(["rank", *matrices, "--criteria", str(DATA_DIR / "criteria.csv")], out)


def pipeline_record(tmp):
    """What `pipeline --external` writes and prints on the seed-1
    `train_rank` inputs, which `perfbench/gen.py` generates under `tmp`."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    inputs = tmp / "inputs"
    gen.generate("train_rank", PIPELINE_SEED, inputs)
    argv = ["pipeline", str(inputs / "features.csv"), "--external", str(inputs / "external.csv")]
    return run_record(argv, tmp / "out")


def load_golden():
    """golden.json, failing (never skipping) when it was written under other
    numpy or scipy versions than this run's."""
    golden = json.loads(GOLDEN.read_text())
    if golden["versions"] != versions():
        pytest.fail(
            f"{GOLDEN.name} was written under numpy {golden['versions']['numpy']} and "
            f"scipy {golden['versions']['scipy']}, but this run has numpy "
            f"{np.__version__} and scipy {scipy.__version__}; regenerate it and "
            "review its diff"
        )
    return golden


def assert_matches(got, want):
    assert got["stdout"] == want["stdout"]
    assert got["csv_sha256"] == want["csv_sha256"]
    assert got["run_manifest.json"] == want["run_manifest.json"]
    assert got["report.json"] == want["report.json"]


@pytest.mark.parametrize("category", CATEGORIES)
def test_rank_artifacts_match_golden(tmp_path, category):
    assert_matches(rank_record(category, tmp_path), load_golden()["rank"][category])


def test_pipeline_external_artifacts_match_golden(tmp_path):
    want = load_golden()["pipeline_external"]
    got = pipeline_record(tmp_path)
    assert len(got["csv_sha256"]) == 16
    assert_matches(got, want)


def write_golden():
    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "versions": versions(),
            "rank": {c: rank_record(c, Path(tmp) / c) for c in CATEGORIES},
            "pipeline_external": pipeline_record(Path(tmp) / "pipeline"),
        }
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    write_golden()
