import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_feature_extraction_demo_runs():
    assert "feature vector length: 193" in run_demo("01_feature_extraction.py")


def test_metrics_demo_prints_each_models_threshold_auc_and_f1():
    lines = run_demo("02_metrics_decision_matrix.py").splitlines()
    assert lines[:3] == [
        "strong    threshold 0.50  auc 1.000  f1 1.000",
        "middling  threshold 0.42  auc 0.981  f1 0.945",
        "weak      threshold 0.36  auc 0.794  f1 0.767",
    ]


def test_ranking_demo_puts_extra_trees_first():
    out = run_demo("03_entropy_topsis_ranking.py")
    assert "   1. Extra-Trees  C=1.000  S+=0.0000  S-=0.1119" in out.splitlines()


def test_ensembles_demo_prints_both_verdicts_per_category():
    winners = [
        line
        for line in run_demo("04_ensembles.py").splitlines()
        if "ensemble winner" in line
    ]
    assert winners == [
        "soft ensemble winner: Extra-Trees",
        "hard ensemble winner: HGBoost",
        "soft ensemble winner: Extra-Trees",
        "hard ensemble winner: Extra-Trees",
    ]


def test_training_strategies_demo_runs():
    out = run_demo("05_training_strategies.py")
    for model in ("knn", "logreg"):
        assert sum(line.startswith(model) for line in out.splitlines()) == 3


def test_feature_elimination_demo_runs():
    assert "informative columns 0 and 1 kept: True" in run_demo("06_feature_elimination.py")
