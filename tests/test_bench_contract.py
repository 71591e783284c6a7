"""The benchmark's tracer wraps package functions by name; every one must exist.

perfbench/tracer.py imports only the standard library, so it is loaded
here by path.  A refactor that drops or renames a traced function makes
`perfbench/run.py --trace 1` fail with AttributeError; this test fails
first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracer = _load_tracer()
    assert tracer.TARGETS
    missing = [
        f"{module}.{func}"
        for module, func, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"{tracer.PACKAGE}.{module}"), func, None))
    ]
    assert not missing, f"perfbench/tracer.py wraps functions the package lacks: {missing}"
