"""The traced benchmark mode (perfbench/spans.py) wraps twistcert functions by
name; each name it lists must still exist, or `perfbench/run.py --trace 1`
fails when it installs the tracer."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_pairs():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("module, name", traced_pairs())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"twistcert.{module}"), name))
