"""Shared fixtures: fixture graphs plus cached per-session analyses."""

import itertools
import random
from pathlib import Path

import pytest

from toriclab.bases import analyze_graph, fiber_bundle
from toriclab.graphs import Graph, GraphError, load_graph
from toriclab.robustness import robustness_verdict

FIXTURES = Path(__file__).parent / "fixtures"

STRUCTURAL = (
    "k4",
    "c4",
    "domino",
    "bowtie",
    "tri_edge_tri",
    "tri_square_tri_adjacent",
    "tri_square_tri_opposite",
    "hexchord",
    "triangle_per_corner",
    "octagon_three_chords",
)


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.txt"


def support_minimal(elements) -> set:
    """The ``(plus, minus)`` keys whose support is minimal among ``elements``.

    The support is the set of edges with a nonzero exponent.  Among Graver
    elements the support-minimal ones are exactly the circuits, which makes
    this an independent check of the walk-based circuit search.
    """
    supports = {
        (plus, minus): frozenset(
            i for i, (p, q) in enumerate(zip(plus, minus)) if p or q
        )
        for plus, minus in elements
    }
    return {
        key
        for key, support in supports.items()
        if not any(other < support for other in supports.values())
    }


def wide_graphs(count, seed, edges=12):
    """Seeded connected graphs with ``edges`` edges on 7 or 8 vertices."""

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice((7, 8))
        pairs = list(itertools.combinations(range(n), 2))
        try:
            out.append(Graph(n, tuple(sorted(rng.sample(pairs, edges)))))
        except GraphError:
            continue
    return out


@pytest.fixture(scope="session")
def graph_of():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = load_graph(str(fixture_path(name)))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def analysis_of(graph_of):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = analyze_graph(graph_of(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def bundle_of(graph_of, analysis_of):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = fiber_bundle(graph_of(name), analysis_of(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def verdict_of(graph_of, analysis_of, bundle_of):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = robustness_verdict(
                graph_of(name), analysis_of(name), bundle_of(name)
            )
        return cache[name]

    return get
