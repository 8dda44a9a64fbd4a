"""The benchmark's traced mode replaces program functions by name, so a
rename or removal in the package would break it only when it runs.  This
loads the hook table straight from ``perfbench/spans.py`` and checks every
name it wraps still exists."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    traced = load_spans().TRACED
    assert traced
    missing = [f"{module_name}.{attr}" for module_name, attr, *_ in traced
               if not callable(getattr(importlib.import_module(f"aeroforecast.{module_name}"),
                                       attr, None))]
    assert missing == []

