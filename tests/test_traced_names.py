"""Every function the benchmark traces still exists under its name, and a
traced run still ends in its result.

`perfbench/spans.py` looks each name of its `TARGETS` up at run time and
leaves the metrics of a missing one out, so a deleted or renamed traced
function would otherwise only show as an incomplete benchmark result.
"""

import importlib
import importlib.util
import time
from pathlib import Path

from conftest import DATA_DIR

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_function_exists():
    spans = load_spans()
    missing = [
        f"{module}.{name}"
        for module, names in spans.TARGETS.values()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_traced_rank_reports_every_ranking_metric(tmp_path, capsys):
    import coughrank.cli as cli

    spans = load_spans()
    matrices = [str(DATA_DIR / f"decision_matrix_asymptomatic_strategy{s}.csv") for s in (1, 2, 3)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        code = cli.main(["rank", *matrices, "--out", str(tmp_path)])
        metrics = tracer.round_metrics(time.perf_counter() - start)
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "soft ensemble best model: Extra-Trees",
        "hard ensemble best model: HGBoost",
    ]
    assert tracer.absent == []
    assert metrics["mcdm.topsis.calls"] == 3
    ranking = [name for name, _ in spans.METRICS if name.startswith(("mcdm.", "ensemble."))]
    assert {name: metrics.get(name, 0) > 0 for name in ranking} == dict.fromkeys(ranking, True)
