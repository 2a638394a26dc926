"""`run_strategies` with its outer folds on a thread pool against the same
call with the builtin `map`: the same bits at any worker count, the first
failing fold's error in fold order, and no thread left behind by the CLI.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import coughrank.cli as cli
import coughrank.learn as learn
from coughrank.cli import EXIT_INPUT, main
from coughrank.learn import OUTER_FOLDS, run_strategies, stratified_splits

from test_cli import make_features_csv
from test_fold_major import STANDARD_CELLS
from test_learn import cluster_dataset


def use_cpus(monkeypatch, cpus):
    # the process that runs the tests loaded numpy first: pin the flag that records it
    monkeypatch.setattr(cli, "_BLAS_THREADED", False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_pooled_folds_give_the_serial_bits(workers):
    ds = cluster_dataset(18, 42, n_features=5, gap=1.2, seed=5)
    serial = run_strategies(ds, STANDARD_CELLS, seed=5, map=map)
    with ThreadPoolExecutor(workers) as pool:
        pooled = run_strategies(ds, STANDARD_CELLS, seed=5, map=pool.map)
    assert len(pooled) == len(serial)
    for got, want in zip(pooled, serial):
        assert (got.model_name, got.strategy_id) == (want.model_name, want.strategy_id)
        assert got.sample_ids == want.sample_ids
        assert got.scores.tobytes() == want.scores.tobytes()
        assert got.threshold.hex() == want.threshold.hex()


def test_pipeline_files_do_not_depend_on_cpu_count(tmp_path, monkeypatch):
    features = tmp_path / "features.csv"
    make_features_csv(features, n_pos=14, n_neg=26, gap=0.25, seed=4)
    outputs = []
    for cpus in ({0}, {0, 1, 2, 3}):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"out{len(cpus)}"
        assert main(["pipeline", str(features), "--out", str(out)]) in (0, 3)
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == 18
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("later_folds_fail", [False, True])
def test_first_failing_fold_wins_and_no_thread_outlives_the_run(
    tmp_path, monkeypatch, capsys, later_folds_fail
):
    """threshold_sweep fails for fold 3's training labels, and maybe for
    those of folds 4-9; whichever fold a worker finishes first, the error
    is fold 3's, as in the serial run."""
    features = tmp_path / "features.csv"
    # labels sorted by class: fold f holds 2 positives if f < 4 and 4
    # negatives if f < 3, so fold 3's training labels are its own and
    # folds 4-9 share theirs
    _, labels = make_features_csv(features, n_pos=14, n_neg=33, gap=0.25, seed=4)
    splits = stratified_splits(labels, OUTER_FOLDS, learn.DEFAULT_SEED)
    fold_labels = [labels[tr].tobytes() for tr, _ in splits]
    assert fold_labels.index(fold_labels[3]) == 3 and fold_labels.count(fold_labels[3]) == 1
    assert fold_labels.index(fold_labels[4]) == 4 and fold_labels.count(fold_labels[4]) == 6
    failing = {fold_labels[3]: "fold 3"}
    if later_folds_fail:
        failing[fold_labels[4]] = "folds 4-9"
    original = learn.threshold_sweep

    def sweep(y_true, scores, objective):
        if y_true.tobytes() in failing:
            raise ValueError(f"undefined in {failing[y_true.tobytes()]}")
        return original(y_true, scores, objective)

    monkeypatch.setattr(learn, "threshold_sweep", sweep)
    errors = []
    for cpus in ({0}, {0, 1, 2, 3}):
        use_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        code = main(["pipeline", str(features), "--out", str(tmp_path / "out")])
        assert (code, threading.active_count()) == (EXIT_INPUT, threads)
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == (
        f"error: {features}: model 'knn' in strategy 1: undefined in fold 3\n"
    )
