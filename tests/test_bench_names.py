"""The benchmark tracer (perfbench/tracing.py) wraps exthh functions by
name; a deletion or rename in the package must not silently break it."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve_to_exthh_functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = tracing.SPANNED + tracing.COUNTED
    assert names
    for name in names:
        module, attr = name.split(".")
        target = getattr(importlib.import_module(f"exthh.{module}"), attr, None)
        assert callable(target), f"{name} is traced but exthh.{module} has no {attr}"
