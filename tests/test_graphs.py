"""Graph layer: parsing, blocks, cycles, subset enumeration."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriclab.bases import graph_config
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
    parse_graph,
    simple_cycles,
    subset_degrees,
)
from toriclab.oracle import config_from_rows

from conftest import FIXTURES, connected_graphs, is_connected_subset


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


def assert_tables_match_edges(g):
    """``edge_index`` and ``adjacency`` equal their definitions from ``edges``."""
    assert g.edge_index == {e: i for i, e in enumerate(g.edges)}
    assert g.adjacency == tuple(
        tuple(sorted(
            (u + v - x, i) for i, (u, v) in enumerate(g.edges) if x in (u, v)
        ))
        for x in range(g.vertex_count)
    )


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*.txt")), ids=lambda p: p.stem
)
def test_graph_tables_match_edges_on_fixtures(path):
    assert_tables_match_edges(parse_graph(path.read_text()))


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_graph_tables_match_edges_on_random_graphs(graph):
    assert_tables_match_edges(graph)
    # the same edges, each given the other way round
    flipped = Graph(graph.vertex_count, tuple((v, u) for u, v in graph.edges))
    assert flipped.edges == graph.edges
    assert_tables_match_edges(flipped)


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
    rows = graph_config(graph_of("k4")).rows
    # vertex 1 meets e1={1,2}, e3={1,3}, e5={1,4}
    assert rows[0] == (1, 0, 1, 0, 1, 0)
    assert all(sum(col) == 2 for col in zip(*rows))


def assert_config_is_incidence_matrix(g: Graph) -> None:
    """The configuration built from the edges equals the one read from the
    dense vertex-edge incidence matrix."""
    rows = [[int(v in edge) for edge in g.edges] for v in range(g.vertex_count)]
    assert graph_config(g) == config_from_rows(rows)


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*.txt")), ids=lambda p: p.stem
)
def test_graph_config_is_incidence_matrix_on_fixtures(path):
    assert_config_is_incidence_matrix(parse_graph(path.read_text()))


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_graph_config_is_incidence_matrix_on_random_graphs(graph):
    assert_config_is_incidence_matrix(graph)
    flipped = Graph(graph.vertex_count, tuple((v, u) for u, v in graph.edges))
    assert_config_is_incidence_matrix(flipped)


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
    assert len(dec.cyclic_blocks) == 3


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


def _beads() -> Graph:
    """A triangle, a bridge, a square sharing a vertex with a pentagon, a
    two-edge path, a triangle and a pendant edge: cycles in four blocks,
    with bridges and cut vertices between them."""
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6)]
    edges += [(6, 7), (7, 8), (8, 9), (9, 10), (6, 10)]
    edges += [(10, 11), (11, 12), (12, 13), (13, 14), (12, 14), (14, 15)]
    return Graph(16, tuple(edges))


@pytest.mark.parametrize(
    "graph",
    [
        *(parse_graph(path.read_text()) for path in sorted(FIXTURES.glob("*.txt"))),
        *random_connected_graphs(40, seed=5),
        _beads(),
    ],
    ids=lambda g: g.digest()[:12],
)
def test_simple_cycles_are_the_connected_two_regular_subsets(graph):
    cycles = simple_cycles(graph)
    masks = [edges for _, edges, _ in cycles]
    assert len(masks) == len(set(masks))
    assert {tuple(e for e in range(len(graph.edges)) if m >> e & 1) for m in masks} == {
        s
        for s in connected_edge_subsets(graph, max_vertex_degree=2)
        if set(subset_degrees(graph, s).values()) == {2}
    }
    for verts, edges, vertex_mask in cycles:
        assert verts[0] == min(verts) and verts[1] < verts[-1]
        assert vertex_mask == sum(1 << v for v in verts)
        steps = zip(verts, verts[1:] + verts[:1])
        assert edges == sum(1 << graph.edges.index(tuple(sorted(s))) for s in steps)


def test_has_four_cycle(graph_of):
    assert has_four_cycle(graph_of("c4"))
    assert has_four_cycle(graph_of("k4"))
    assert has_four_cycle(graph_of("domino"))
    assert not has_four_cycle(graph_of("bowtie"))
    assert not has_four_cycle(graph_of("triangle_per_corner"))


def pairwise_four_cycle(g: Graph) -> bool:
    """The definition: two vertices with two common neighbours."""
    neighbors = [{w for w, _ in g.adjacency[v]} for v in range(g.vertex_count)]
    return any(
        len(a & b) >= 2 for a, b in itertools.combinations(neighbors, 2)
    )


@pytest.mark.parametrize("seed", [3, 17])
def test_has_four_cycle_matches_pairwise_definition(seed):
    graphs = random_connected_graphs(300, seed=seed, max_vertices=10, max_edges=30)
    answers = [has_four_cycle(g) for g in graphs]
    assert answers == [pairwise_four_cycle(g) for g in graphs]
    assert any(answers) and not all(answers)


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
