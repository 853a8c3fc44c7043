"""The benchmark's tracer wraps package functions by name; each name must exist.

``perfbench/tracer.py`` rebinds every ``(module, name)`` of its
``BOUNDARIES`` when a traced run starts, so a renamed or deleted function
would otherwise surface only when the benchmark runs.  The tracer is
loaded from its file, read-only, without importing the ``perfbench``
directory as a package.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_boundary_names_a_package_function():
    boundaries = _load_tracer().BOUNDARIES
    assert boundaries
    missing = [
        f"strongcolor.{module}.{name}"
        for module, name, _, _ in boundaries
        if not callable(getattr(importlib.import_module(f"strongcolor.{module}"), name, None))
    ]
    assert missing == []
