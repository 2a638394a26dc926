"""Golden artifacts: the outputs of every subcommand but `rfecv`, pinned.

`tests/data/golden.json` holds, per run, the SHA-256 of every CSV it
writes, its `report.json` and `run_manifest.json` (where it writes them)
with input paths cut to file names, and the lines it prints. The runs are
`rank` on each bundled fixture category, and on seed-1 inputs of
`perfbench/gen.py`, generated under a temporary directory:
- `pipeline --external` on the `train_rank` inputs;
- `extract` on one WAV of each (rate, encoding, channels) cell of
  `extract_wavs`, its clip length turning with the cell;
- `evaluate` on the first 30 models of `score_rank`, then `rank` on the
  matrices it writes.
A change that moves any byte fails here and has to regenerate the file,
which makes the moved set part of its diff:

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
GEN_SEED = 1
SCORE_MODELS = 30


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
    """What `cli.main(argv)` writes to the directory `out` and prints."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = main(argv)
    assert code == 0
    record = {
        "csv_sha256": {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))
        },
        "stdout": stdout.getvalue().splitlines(),
    }
    if (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text())
        report["manifest"] = _names_for_paths(report["manifest"])
        record["report.json"] = report
        record["run_manifest.json"] = _names_for_paths(
            json.loads((out / "run_manifest.json").read_text())
        )
    return record


def rank_record(category, out):
    """What `rank` writes and prints for one fixture category."""
    matrices = [str(DATA_DIR / f"decision_matrix_{category}_strategy{s}.csv") for s in (1, 2, 3)]
    criteria = str(DATA_DIR / "criteria.csv")
    return run_record(["rank", *matrices, "--criteria", criteria, "--out", str(out)], out)


def load_gen():
    """A fresh copy of `perfbench/gen.py`, so a constant set on it stays there."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def pipeline_record(tmp):
    """What `pipeline --external` writes and prints on the seed-1
    `train_rank` inputs, which `perfbench/gen.py` generates under `tmp`."""
    inputs = tmp / "inputs"
    load_gen().generate("train_rank", GEN_SEED, inputs)
    argv = ["pipeline", str(inputs / "features.csv"), "--external", str(inputs / "external.csv")]
    return run_record([*argv, "--out", str(tmp / "out")], tmp / "out")


def extract_record(tmp):
    """What `extract --labels` writes and prints for one seed-1 `extract_wavs`
    clip per (rate, encoding, channels) cell: the clips of a cell come in
    order of length, and cell c gives its (c mod 6)-th."""
    gen = load_gen()
    inputs = tmp / "inputs"
    clips = gen.generate("extract_wavs", GEN_SEED, inputs)["clips"]
    per_cell = len(gen.LENGTHS_S)
    chosen = [clips[per_cell * c + c % per_cell] for c in range(len(clips) // per_cell)]
    assert len({(c["rate"], c["encoding"], c["channels"]) for c in chosen}) == len(chosen) == 40
    wavs, out = tmp / "wavs", tmp / "out"
    wavs.mkdir()
    out.mkdir()
    for clip in chosen:
        name = f"{clip['sample_id']}.wav"
        (wavs / name).write_bytes((inputs / "wavs" / name).read_bytes())
    labels = tmp / "labels.csv"
    labels.write_text(
        "sample_id,label\n" + "".join(f"{c['sample_id']},{c['label']}\n" for c in chosen)
    )
    argv = ["extract", str(wavs), "--labels", str(labels), "--out", str(out / "features.csv")]
    return run_record(argv, out)


def score_rank_records(tmp):
    """What `evaluate` writes and prints on the first SCORE_MODELS models of
    the seed-1 `score_rank` predictions, and what `rank` then writes and
    prints on its matrices. gen.py writes the models in order, one stream
    of draws, so with N_SCORE_MODELS cut it writes exactly that prefix."""
    gen = load_gen()
    gen.N_SCORE_MODELS = SCORE_MODELS
    inputs = tmp / "inputs"
    gen.generate("score_rank", GEN_SEED, inputs)
    evaluated, ranked = tmp / "evaluate", tmp / "rank"
    argv = ["evaluate", str(inputs / "predictions.csv"), "--out", str(evaluated)]
    records = {"evaluate": run_record(argv, evaluated)}
    matrices = [str(evaluated / f"decision_matrix_strategy{s}.csv") for s in (1, 2, 3)]
    criteria = str(evaluated / "criteria.csv")
    argv = ["rank", *matrices, "--criteria", criteria, "--out", str(ranked)]
    records["rank"] = run_record(argv, ranked)
    return records


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
    assert got.keys() == want.keys()
    for key in ("stdout", "csv_sha256", "run_manifest.json", "report.json"):
        assert got.get(key) == want.get(key), key


@pytest.mark.parametrize("category", CATEGORIES)
def test_rank_artifacts_match_golden(tmp_path, category):
    assert_matches(rank_record(category, tmp_path), load_golden()["rank"][category])


def test_pipeline_external_artifacts_match_golden(tmp_path):
    want = load_golden()["pipeline_external"]
    got = pipeline_record(tmp_path)
    assert len(got["csv_sha256"]) == 16
    assert_matches(got, want)


def test_extract_artifacts_match_golden(tmp_path):
    assert_matches(extract_record(tmp_path), load_golden()["extract"])


def test_evaluate_and_rank_artifacts_match_golden(tmp_path):
    want = load_golden()["score_rank"]
    got = score_rank_records(tmp_path)
    assert len(got["evaluate"]["csv_sha256"]) == 7
    assert_matches(got["evaluate"], want["evaluate"])
    assert_matches(got["rank"], want["rank"])


def write_golden():
    with tempfile.TemporaryDirectory() as tmp:
        record = {
            "versions": versions(),
            "rank": {c: rank_record(c, Path(tmp) / c) for c in CATEGORIES},
            "pipeline_external": pipeline_record(Path(tmp) / "pipeline"),
            "extract": extract_record(Path(tmp) / "extract"),
            "score_rank": score_rank_records(Path(tmp) / "score_rank"),
        }
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    write_golden()
