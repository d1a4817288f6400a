"""The benchmark's span tracer wraps module bindings by name; every one must resolve."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracer.BINDINGS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
