"""Graph layer: parsing, blocks, cycles, subset enumeration."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriclab.corpus import random_connected_graphs
from toriclab.graphs import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    Graph,
    GraphError,
    LoopEdgeError,
    block_decomposition,
    connected_edge_subsets,
    degree_of,
    graph_from_json,
    graph_to_json,
    has_four_cycle,
    incidence_matrix,
    parse_graph,
)

from conftest import is_connected_subset


def test_parse_edge_list_with_comments():
    g = parse_graph("# a square\n1 2\n2 3\n\n3 4\n4 1\n")
    assert g.vertex_count == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3), (0, 3))
    assert g.labels == ("1", "2", "3", "4")


def test_parse_json_graph():
    obj = {"vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}
    g = parse_graph(json.dumps(obj))
    assert g.vertex_count == 3
    assert len(g.edges) == 3


def test_json_round_trip(graph_of):
    g = graph_of("tri_square_tri_opposite")
    again = graph_from_json(graph_to_json(g))
    assert again == g
    assert again.digest() == g.digest()


def test_edge_labels_and_lookup(graph_of):
    k4 = graph_of("k4")
    assert k4.edge_label(0) == "{1, 2}"
    assert k4.edge_between(0, 1) == 0
    assert k4.edge_between(0, 0) is None
    assert k4.edge_index[(0, 2)] == 2


@pytest.mark.parametrize(
    "text, err",
    [
        ("1 1\n", LoopEdgeError),
        ("1 2\n2 1\n", DuplicateEdgeError),
        ("1 2\n3 4\n", DisconnectedGraphError),
        ("", GraphError),
        ("1 2 3\n", GraphError),
        ('{"vertices": 2, "edges": [[1, 3]]}', GraphError),
        # JSON labels and vertex counts must be true integers
        ('{"vertices": 3, "edges": [[true, 2], [2, 3], [1, 3]]}', GraphError),
        ('{"vertices": 3, "edges": [[1, 2.0], [2, 3], [1, 3]]}', GraphError),
        ('{"vertices": 3, "edges": [[1, "2"], [2, 3], [1, 3]]}', GraphError),
        ('{"vertices": 3.9, "edges": [[1, 2], [2, 3], [1, 3]]}', GraphError),
        ('{"vertices": "3", "edges": [[1, 2], [2, 3], [1, 3]]}', GraphError),
        ('{"vertices": true, "edges": [[1, 1]]}', GraphError),
    ],
)
def test_parse_rejects_bad_input(text, err):
    with pytest.raises(err):
        parse_graph(text)


def test_parse_accepts_arbitrary_vertex_tokens():
    g = parse_graph("a b\nb c\nc a\n")
    assert g.vertex_count == 3
    assert g.labels == ("a", "b", "c")
    assert g.edge_label(0) == "{a, b}"
    # integers sort numerically; tokens that only look like integers are
    # ordinary labels and sort lexically
    assert parse_graph("-1 2\n2 10\n10 -1\n").labels == ("-1", "2", "10")
    assert parse_graph("--1 2\n2 10\n10 --1\n").labels == ("--1", "10", "2")
    assert parse_graph("\u00b2 2\n2 10\n10 \u00b2\n").labels == ("10", "2", "\u00b2")


def test_incidence_matrix_k4(graph_of):
    rows = incidence_matrix(graph_of("k4"))
    # vertex 1 meets e1={1,2}, e3={1,3}, e5={1,4}
    assert rows[0] == (1, 0, 1, 0, 1, 0)
    assert all(sum(col) == 2 for col in zip(*rows))


def test_degree_of_counts_endpoints(graph_of):
    c4 = graph_of("c4")
    # one copy of every edge touches each vertex twice
    assert degree_of(c4, (1, 1, 1, 1)) == (2, 2, 2, 2)
    assert degree_of(c4, (1, 0, 0, 0)) == (1, 1, 0, 0)


def brute_force_cut_vertices(g: Graph) -> set[int]:
    cuts = set()
    for v in range(g.vertex_count):
        others = [u for u in range(g.vertex_count) if u != v]
        if not others:
            continue
        seen = {others[0]}
        stack = [others[0]]
        while stack:
            u = stack.pop()
            for w, _ in g.adjacency[u]:
                if w != v and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(others):
            cuts.add(v)
    return cuts


@pytest.mark.parametrize(
    "name", ["k4", "bowtie", "domino", "tri_square_tri_opposite", "triangle_per_corner"]
)
def test_cut_vertices_match_deletion_oracle(graph_of, name):
    g = graph_of(name)
    dec = block_decomposition(g)
    assert set(dec.cut_vertices) == brute_force_cut_vertices(g)


def test_block_partition_covers_edges(graph_of):
    g = graph_of("tri_square_tri_opposite")
    dec = block_decomposition(g)
    assert sorted(e for b in dec.blocks for e in b) == list(range(len(g.edges)))
    # square, two triangles, two cut edges
    sizes = sorted(len(b) for b in dec.blocks)
    assert sizes == [1, 1, 3, 3, 4]
    assert len(dec.cyclic_blocks()) == 3


def test_block_decomposition_of_subset(graph_of):
    g = graph_of("bowtie")
    left = [g.edge_index[(0, 1)], g.edge_index[(1, 2)], g.edge_index[(0, 2)]]
    dec = block_decomposition(g, left)
    assert len(dec.blocks) == 1
    assert dec.cut_vertices == ()


def test_cut_vertices_on_random_graphs():
    for g in random_connected_graphs(30, seed=11):
        dec = block_decomposition(g)
        assert set(dec.cut_vertices) == brute_force_cut_vertices(g)


def test_has_four_cycle(graph_of):
    assert has_four_cycle(graph_of("c4"))
    assert has_four_cycle(graph_of("k4"))
    assert has_four_cycle(graph_of("domino"))
    assert not has_four_cycle(graph_of("bowtie"))
    assert not has_four_cycle(graph_of("triangle_per_corner"))


def brute_force_subsets(g: Graph, max_degree: int) -> set[tuple[int, ...]]:
    found = set()
    m = len(g.edges)
    for mask in range(1, 1 << m):
        subset = [e for e in range(m) if mask >> e & 1]
        degrees = {}
        for e in subset:
            for v in g.edges[e]:
                degrees[v] = degrees.get(v, 0) + 1
        if max(degrees.values()) > max_degree:
            continue
        if is_connected_subset(g, subset):
            found.add(tuple(subset))
    return found


@pytest.mark.parametrize("name", ["bowtie", "domino", "hexchord"])
@pytest.mark.parametrize("max_degree", [2, 4])
def test_connected_subsets_match_bitmask_scan(graph_of, name, max_degree):
    g = graph_of(name)
    produced = list(connected_edge_subsets(g, max_vertex_degree=max_degree))
    assert len(produced) == len(set(produced))
    assert set(produced) == brute_force_subsets(g, max_degree)


def test_digest_is_stable_and_distinct(graph_of):
    seen = {graph_of(n).digest() for n in ("k4", "c4", "domino", "bowtie")}
    assert len(seen) == 4
    assert graph_of("k4").digest() == graph_of("k4").digest()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_graphs_are_valid(seed):
    for g in random_connected_graphs(3, seed=seed):
        assert 3 <= g.vertex_count <= 8
        assert len(g.edges) <= 11
        assert is_connected_subset(g, range(len(g.edges)))
        for u, v in g.edges:
            assert 0 <= u < v < g.vertex_count


def test_vertex_pairs_unique_per_graph():
    graphs = random_connected_graphs(10, seed=3)
    for g in graphs:
        assert len(set(g.edges)) == len(g.edges)
