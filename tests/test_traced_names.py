"""Every function the benchmark traces still exists under its name.

`perfbench/spans.py` looks each name of its `TARGETS` up at run time and
leaves the metrics of a missing one out, so a deleted or renamed traced
function would otherwise only show as an incomplete benchmark result.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.TARGETS.values()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
