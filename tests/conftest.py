"""Shared fixtures: fixture graphs plus cached per-session analyses."""

import itertools
import random
from pathlib import Path

import pytest

from toriclab.bases import analyze_graph, fiber_bundle
from toriclab.binomials import make_binomial
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


def is_connected_subset(graph, edge_subset):
    """Whether the subgraph spanned by these edges is connected (ignoring the rest)."""
    edge_subset = list(edge_subset)
    if not edge_subset:
        return False
    adj = {}
    for i in edge_subset:
        u, v = graph.edges[i]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = graph.edges[edge_subset[0]][0]
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def binomial_from_vector(vector, degree_fn):
    """The binomial of a kernel vector: its positive part minus its negative part."""
    plus = tuple(x if x > 0 else 0 for x in vector)
    minus = tuple(-x if x < 0 else 0 for x in vector)
    return make_binomial(plus, minus, degree_fn)


def wide_graphs(count, seed, edges=12, vertices=(7, 8)):
    """Seeded connected graphs with ``edges`` edges, each on a vertex count
    drawn from ``vertices``."""

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(vertices)
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
