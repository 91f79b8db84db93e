"""The benchmark's tracer still fits the program: every function it wraps
exists under its name, and its counting hooks read what they expect."""

import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from toriclab.bases import graph_config
from toriclab.oracle import graver_bounded

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_to_a_callable(tracing):
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


def test_every_hook_names_a_traced_layer(tracing):
    traced = {
        f"{module}.{name}"
        for module, layers in tracing.LAYERS.items()
        for name, _ in layers
    }
    assert tracing.HOOKS
    assert sorted(set(tracing.HOOKS) - traced) == []


def test_box_hook_reads_graver_bounded_arguments_by_name(tracing, graph_of):
    # the hook binds the call to graver_bounded's signature and reads the
    # arguments named config and box
    config = graph_config(graph_of("c4"))
    bound = inspect.signature(graver_bounded).bind(config, 2).arguments
    assert bound["config"] is config and bound["box"] == 2
    tracer = SimpleNamespace(counts=Counter())
    tracing._count_box(tracer, None, graver_bounded, (config, 2), {}, ())
    assert tracer.counts == {"oracle.box_rows": 3 ** config.ncols}
