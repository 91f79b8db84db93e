"""Every function the benchmark's tracer wraps still exists under its name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYERS
    missing = [
        f"{module}.{name}"
        for module, layers in tracing.LAYERS.items()
        for name, _ in layers
        if not callable(
            getattr(importlib.import_module(f"toriclab.{module}"), name, None)
        )
    ]
    assert missing == []
