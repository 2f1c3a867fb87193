"""The benchmark's tracer wraps fairprep functions by module and name.

A refactor that renames or moves one of them would leave the benchmark
tracing nothing under that name, so the traced list is checked here. The
tracer module is loaded from its file and is only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_exists_on_its_layer():
    traced = _traced()
    assert traced, "perfbench/tracing.py lists no traced functions"
    missing = []
    for layer, functions in traced.items():
        module = importlib.import_module(f"fairprep.{layer}")
        for name in functions:
            if not callable(getattr(module, name, None)):
                missing.append(f"fairprep.{layer}.{name}")
    assert not missing, f"traced by the benchmark but not defined: {missing}"
