"""Seeded random connected graphs for sweeps and cross-validation runs."""

from __future__ import annotations

import random
from itertools import combinations

from .graphs import DisconnectedGraphError, Graph, GraphError


def random_connected_graphs(
    count: int,
    seed: int,
    max_vertices: int = 8,
    max_edges: int = 11,
) -> list[Graph]:
    """Deterministic sample of small connected graphs.

    Rejection sampling: draw a vertex count and an edge probability, build
    the Erdos-Renyi draw, keep it when it is connected and fits the edge
    budget.  The same seed always yields the same list.  A budget that no
    connected graph on 3 or more vertices fits is a ValueError.
    """

    if count < 0:
        raise ValueError("count must be nonnegative")
    if max_vertices < 3:
        raise ValueError("max_vertices must be at least 3")
    if max_edges < 2:
        # a connected graph on at least 3 vertices has at least 2 edges
        raise ValueError("max_edges must be at least 2")
    rng = random.Random(seed)
    out: list[Graph] = []
    while len(out) < count:
        n = rng.randint(3, max_vertices)
        p = rng.uniform(0.25, 0.75)
        edges = tuple(
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        )
        if not edges or len(edges) > max_edges:
            continue
        try:
            out.append(Graph(n, edges))
        except GraphError:
            continue
    return out


def ladder_graph(vertices: int, edges: int) -> Graph:
    """The seeded connected graph of a size ladder: ``edges`` distinct
    vertex pairs on ``vertices`` vertices, drawn by
    ``random.Random(1000 + edges)`` and drawn again until connected.

    The rungs 8/20, 9/22, 10/24 and 11/26 are graphs just past the
    unforced edge limit whose walk enumeration and fibers grow fast.  A
    size that no simple connected graph has is a ValueError; a size close
    to a tree takes many draws.
    """
    pairs = list(combinations(range(vertices), 2))
    if not max(1, vertices - 1) <= edges <= len(pairs):
        raise ValueError(
            f"no connected simple graph has {vertices} vertices and {edges} edges"
        )
    rng = random.Random(1000 + edges)
    while True:
        try:
            return Graph(vertices, tuple(sorted(rng.sample(pairs, edges))))
        except DisconnectedGraphError:
            continue
