"""Walk layer: candidate generation, canonical walks, chords, F4s, sinks,
minimality codes."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriclab.bases import analyze_graph
from toriclab.binomials import BinomialError
from toriclab.errors import InternalInvariantError
from toriclab.graphs import (
    BlockDecomposition,
    DisconnectedGraphError,
    Graph,
    block_decomposition,
    connected_edge_subsets,
    load_graph,
    parse_graph,
    primitive_block_trees,
)
from toriclab.walks import (
    ClosedEvenWalk,
    WalkError,
    _canonicalize,
    chord_crosses_F4,
    classify_chords,
    cross_effectively,
    crossing_pairs,
    cyclic_parities,
    find_F4s,
    is_mixed,
    is_primitive_subgraph,
    make_walk,
    minimality_failures,
    primitive_walk,
    sinks_and_strong_primitivity,
    walk_binomial,
    walk_from_primitive_subgraph,
)

from conftest import (
    FIXTURES,
    STRUCTURAL,
    connected_graphs,
    grid_graph,
    wide_graphs,
    windmill_graph,
)

# octagon rim plus the chords {1,5} and {2,8}: the chords are odd and cross
# effectively but no 4-cycle completes them, so the rim walk fails exactly M2
M2_GRAPH = "1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n1 8\n1 5\n2 8\n"

BOWTIE_EDGES = (2, 0, 1, 3, 4, 5)
BOWTIE_VERTICES = (2, 0, 1, 2, 3, 4)


def element_on(analysis, subset):
    """The primitive element whose walk runs over exactly these edges."""
    (element,) = [e for e in analysis.elements if e.subset == tuple(subset)]
    return element


def checked_facts(graph, element):
    """Block tree, cyclic-parity table, chords, odd-chord crossings and F4s
    of the element's walk, worked out anew, stage by stage.

    Each stored one is checked against the element, and so are the stored
    binomial, mixedness and minimality codes.
    """
    walk = element.walk
    dec = block_decomposition(graph, element.subset)
    parities = cyclic_parities(graph, walk, dec)
    chords = classify_chords(graph, walk, dec)
    crossings = crossing_pairs(chords)
    f4s = find_F4s(graph, walk, crossings)
    assert walk == walk_from_primitive_subgraph(graph, dec)
    assert element.binomial == walk_binomial(graph, walk)
    assert element.chords == chords
    assert element.crossings == crossings
    assert element.f4s == f4s
    assert element.mixed == is_mixed(parities)
    assert element.minimality_failures == minimality_failures(
        graph, dec, parities, chords, crossings, f4s
    )
    return dec, parities, chords, crossings, f4s


@pytest.mark.parametrize("name", STRUCTURAL)
def test_one_pass_matches_the_stage_by_stage_facts(analysis_of, graph_of, name):
    # every fact ``primitive_walk`` derives in one pass, on every fixture walk
    for element in analysis_of(name).elements:
        checked_facts(graph_of(name), element)


def test_one_pass_refuses_a_cycle_edge_traversed_twice(graph_of, monkeypatch):
    # the square has no chords, so the cyclic-parity table is the first
    # reader of the positions table to see the doubled edges
    c4 = graph_of("c4")
    ((_, blocks),) = primitive_block_trees(c4)
    monkeypatch.setattr(
        ClosedEvenWalk,
        "edge_occurrences",
        property(lambda walk: {e: (1, 2) for e in walk.edges}),
    )
    with pytest.raises(InternalInvariantError, match="cyclic parity table") as err:
        primitive_walk(c4, blocks)
    assert c4.digest() in str(err.value)


def test_walk_canonical_under_rotation_and_reflection(graph_of):
    g = graph_of("bowtie")
    base = make_walk(g, BOWTIE_EDGES, BOWTIE_VERTICES)
    n = len(BOWTIE_EDGES)
    for k in range(1, n):
        rotated = make_walk(
            g,
            BOWTIE_EDGES[k:] + BOWTIE_EDGES[:k],
            BOWTIE_VERTICES[k:] + BOWTIE_VERTICES[:k],
        )
        assert rotated == base
    reflected_edges = tuple(reversed(BOWTIE_EDGES))
    reflected_vertices = (BOWTIE_VERTICES[0],) + tuple(reversed(BOWTIE_VERTICES[1:]))
    assert make_walk(g, reflected_edges, reflected_vertices) == base


def rotations_and_reflections(edges, vertices):
    """Every rotation of the walk and of its reflection, vertices kept aligned."""
    e = tuple(edges)
    v = tuple(vertices)
    for seq_e, seq_v in ((e, v), (e[::-1], v[:1] + v[:0:-1])):
        for r in range(len(e)):
            yield seq_e[r:] + seq_e[:r], seq_v[r:] + seq_v[:r]


def canonical_by_every_rotation(edges, vertices):
    """Reference canonical form: the least (edges, vertices) pair over all
    rotations and reflections, compared one by one."""
    return min(rotations_and_reflections(edges, vertices))


@st.composite
def edge_vertex_sequences(draw):
    """An edge sequence using each edge once or twice, as a primitive walk
    does with its cycle and cut edges, and a vertex sequence beside it."""
    distinct = draw(st.lists(st.integers(0, 30), unique=True, min_size=2, max_size=9))
    twice = draw(st.lists(st.booleans(), min_size=len(distinct), max_size=len(distinct)))
    edges = draw(st.permutations(distinct + [e for e, t in zip(distinct, twice) if t]))
    vertices = draw(
        st.lists(st.integers(0, 5), min_size=len(edges), max_size=len(edges))
    )
    return edges, vertices


@given(edge_vertex_sequences())
@settings(max_examples=300, deadline=None)
def test_canonical_form_matches_every_rotation(sequences):
    edges, vertices = sequences
    assert _canonicalize(edges, vertices) == canonical_by_every_rotation(
        edges, vertices
    )


@pytest.mark.parametrize("name", STRUCTURAL)
def test_canonical_form_of_every_walk_rotation(analysis_of, name):
    # fixture walks, including the ones that cross a cut edge twice
    for element in analysis_of(name).elements:
        walk = (element.walk.edges, element.walk.vertices)
        for rotated in rotations_and_reflections(*walk):
            assert _canonicalize(*rotated) == walk


def test_walk_binomial_bowtie(graph_of):
    g = graph_of("bowtie")
    w = make_walk(g, BOWTIE_EDGES, BOWTIE_VERTICES)
    assert walk_binomial(g, w).render() == "e1*e4*e6 - e2*e3*e5"


def test_walk_binomial_square(graph_of):
    c4 = graph_of("c4")
    w = walk_from_primitive_subgraph(c4, is_primitive_subgraph(c4, range(4)).decomposition)
    assert walk_binomial(c4, w).render() == "e1*e2 - e3*e4"


def test_cut_edge_appears_squared(analysis_of):
    (element,) = analysis_of("tri_edge_tri").elements
    b = element.binomial
    # e4 = {3, 4} is the cut edge; the walk passes it twice with one parity
    assert b.plus[3] == 2
    g = load_graph("tests/fixtures/tri_edge_tri.txt")
    dec = block_decomposition(g, element.subset)
    report = sinks_and_strong_primitivity(
        g, dec, cyclic_parities(g, element.walk, dec)
    )
    assert report.strongly_primitive
    assert sorted(v for block in report.sinks for v in block) == [2, 3]


def test_make_walk_rejects_bad_input(graph_of):
    g = graph_of("bowtie")
    with pytest.raises(WalkError):
        make_walk(g, (2, 0, 1), (2, 0, 1))  # odd length
    with pytest.raises(WalkError):
        make_walk(g, (2, 0, 1, 3), (2, 0, 1, 2))  # does not close
    with pytest.raises(WalkError):
        make_walk(g, (0, 1, 1, 2), (0, 1, 2, 2))  # vertex not on edge
    with pytest.raises(WalkError, match="traversed more than twice"):
        make_walk(g, (0,) * 6, (0, 1) * 3)  # back and forth over one edge


def test_degenerate_walk_has_no_binomial(graph_of):
    g = graph_of("bowtie")
    # back and forth over two edges: both parity classes see the same edges
    w = make_walk(g, (0, 0, 2, 2), (0, 1, 0, 2))
    with pytest.raises(BinomialError):
        walk_binomial(g, w)


def test_even_chord_on_domino_hexagon(analysis_of, graph_of):
    g = graph_of("domino")
    hexagon = element_on(analysis_of("domino"), (0, 1, 3, 4, 5, 6))
    dec, parities, reports, crossings, records = checked_facts(g, hexagon)
    assert [(r.chord, r.kind) for r in reports] == [(2, "even")]
    assert minimality_failures(
        g, dec, parities, reports, crossings, records
    ) == ("M1",)


def test_bridge_chord_on_joined_circuit(analysis_of, graph_of):
    g = graph_of("triangle_per_corner")
    a = analysis_of("triangle_per_corner")
    bridged = [
        e
        for e in a.elements
        if e.minimality_failures == ("M1",)
    ]
    assert len(bridged) == 3  # one two-step joining path per corner pair
    for e in bridged:
        _, _, reports, _, _ = checked_facts(g, e)
        kinds = {r.kind for r in reports}
        assert kinds == {"bridge"}


@pytest.mark.parametrize(
    "first, second, expected",
    [
        ((1, 3), (2, 4), True),
        ((2, 4), (1, 3), True),
        ((1, 4), (5, 8), False),
        ((2, 4), (2, 8), False),  # shared start vertex
        ((1, 3), (2, 8), True),
        ((1, 5), (3, 7), False),  # even gap
    ],
)
def test_cross_effectively(first, second, expected):
    assert cross_effectively(first, second) is expected


def test_k4_square_has_two_F4_completions(analysis_of, graph_of):
    k4 = graph_of("k4")
    sq = element_on(analysis_of("k4"), (0, 1, 4, 5))
    dec, parities, reports, crossings, records = checked_facts(k4, sq)
    assert len(records) == 2
    assert {rec.walk_edge_positions for rec in records} == {(1, 3), (2, 4)}
    for rec in records:
        assert set(rec.chords) == {2, 3}
    assert minimality_failures(
        k4, dec, parities, reports, crossings, records
    ) == ()


def test_octagon_third_chord_crosses_an_F4(analysis_of, graph_of):
    g = graph_of("octagon_three_chords")
    rim = element_on(analysis_of("octagon_three_chords"), range(8))
    dec, parities, reports, crossings, records = checked_facts(g, rim)
    assert [(r.chord, r.kind, r.span) for r in reports] == [
        (8, "odd", (1, 3)),
        (9, "odd", (2, 4)),
        (10, "odd", (2, 8)),
    ]
    assert {rec.walk_edge_positions for rec in records} == {(1, 3), (2, 8)}
    first = [rec for rec in records if rec.walk_edge_positions == (1, 3)][0]
    crossing = [r for r in reports if r.chord == 10]
    assert chord_crosses_F4(g, crossing[0], first)
    assert minimality_failures(
        g, dec, parities, reports, crossings, records
    ) == ("M3",)


def test_crossing_chords_without_F4_fail_M2():
    g = parse_graph(M2_GRAPH)
    rim = element_on(analyze_graph(g), range(8))
    dec, parities, reports, crossings, records = checked_facts(g, rim)
    assert not records
    assert minimality_failures(
        g, dec, parities, reports, crossings, records
    ) == ("M2",)


def test_adjacent_attachment_walk_fails_M4(analysis_of, graph_of):
    g = graph_of("tri_square_tri_adjacent")
    a = analysis_of("tri_square_tri_adjacent")
    big = [e for e in a.elements if e.binomial.total_degree == 5]
    assert len(big) == 1
    dec, parities, reports, crossings, records = checked_facts(g, big[0])
    report = sinks_and_strong_primitivity(g, dec, parities)
    assert not report.strongly_primitive
    square_sinks = [s for s in report.sinks if len(s) == 2]
    assert square_sinks == [(0, 1)]  # the two attachment corners, adjacent
    assert minimality_failures(
        g, dec, parities, reports, crossings, records
    ) == ("M4",)
    assert is_mixed(parities)


def test_opposite_attachment_walk_is_strongly_primitive(analysis_of, graph_of):
    g = graph_of("tri_square_tri_opposite")
    a = analysis_of("tri_square_tri_opposite")
    big = [e for e in a.elements if len(e.subset) == 12]
    assert len(big) == 1
    dec, parities, reports, crossings, records = checked_facts(g, big[0])
    report = sinks_and_strong_primitivity(g, dec, parities)
    assert report.strongly_primitive
    assert (0, 2) in report.sinks  # opposite corners of the square
    assert minimality_failures(
        g, dec, parities, reports, crossings, records
    ) == ()


def test_pure_block_is_not_mixed(analysis_of, graph_of):
    g = graph_of("triangle_per_corner")
    a = analysis_of("triangle_per_corner")
    big = [e for e in a.elements if len(e.subset) == 12]
    assert len(big) == 1
    _, parities, _, _, _ = checked_facts(g, big[0])
    assert not is_mixed(parities)
    assert not big[0].mixed
    assert "M4" in big[0].minimality_failures


def test_primitive_subgraph_shapes(graph_of):
    bowtie = graph_of("bowtie")
    assert is_primitive_subgraph(bowtie, range(6)).ok
    odd = is_primitive_subgraph(bowtie, (0, 1, 2))
    assert (odd.ok, odd.reason) == (False, "odd cycle")
    assert not is_primitive_subgraph(bowtie, (0, 1, 2, 3, 4)).ok  # dangling path

    c4 = graph_of("c4")
    even = is_primitive_subgraph(c4, range(4))
    assert (even.ok, even.reason) == (True, "even cycle")
    assert even.decomposition == block_decomposition(c4, range(4))

    k4 = graph_of("k4")
    check = is_primitive_subgraph(k4, range(6))
    assert not check.ok
    assert check.reason == "biconnected but not a cycle"
    assert check.decomposition is None

    tpc = graph_of("triangle_per_corner")
    assert is_primitive_subgraph(tpc, range(12)).ok
    # central triangle plus two corners: one side has an even cyclic edge count
    two_corners = (0, 1, 2, 3, 4, 5, 6, 7, 8)
    assert not is_primitive_subgraph(tpc, two_corners).ok


# Each host graph is connected; the subset drops the edge joining its pieces.
@pytest.mark.parametrize(
    "text, subset",
    [
        ("1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n3 4\n", range(6)),  # two triangles
        ("1 2\n2 3\n3 4\n1 4\n5 6\n6 7\n7 8\n5 8\n4 5\n", range(8)),  # two squares
    ],
)
def test_disconnected_subset_raises(text, subset):
    g = parse_graph(text)
    with pytest.raises(DisconnectedGraphError):
        block_decomposition(g, subset)
    with pytest.raises(DisconnectedGraphError):
        is_primitive_subgraph(g, subset)


def test_disconnected_subset_with_pendant_vertex_is_rejected():
    # a triangle and a separate edge: the pendant vertex settles the verdict
    # before the block search could see that the subset is disconnected
    g = parse_graph("1 2\n2 3\n1 3\n3 4\n4 5\n")
    subset = (0, 1, 2, 4)
    with pytest.raises(DisconnectedGraphError):
        block_decomposition(g, subset)
    check = is_primitive_subgraph(g, subset)
    assert not check.ok
    assert check.reason.startswith("pendant vertex")


def test_tour_refuses_a_block_that_is_no_cycle(graph_of):
    # K4 is one block of six edges, every vertex on three of them
    k4 = graph_of("k4")
    with pytest.raises(InternalInvariantError, match="not a simple cycle") as err:
        walk_from_primitive_subgraph(k4, block_decomposition(k4))
    assert k4.digest() in str(err.value)


def test_deep_block_tree_without_recursion():
    # two triangles joined by a 1,500-edge path: 1,502 blocks in a chain,
    # far deeper than the interpreter's recursion limit
    length = 1500
    edges = [(0, 1), (1, 2), (0, 2)]
    edges += [(v, v + 1) for v in range(2, 2 + length)]
    far = 2 + length
    edges += [(far, far + 1), (far + 1, far + 2), (far, far + 2)]
    g = Graph(far + 3, tuple(edges))
    ((subset, blocks),) = primitive_block_trees(g)
    assert subset == tuple(range(len(edges)))
    dec = tree_decomposition(g, blocks)
    assert dec == block_decomposition(g, subset)
    assert len(dec.blocks) == length + 2
    assert dec.cut_vertices == tuple(range(2, far + 1))
    walk = primitive_walk(g, blocks)[0]
    assert walk == walk_from_primitive_subgraph(g, dec)
    assert walk.length == 2 * length + 6
    assert walk_binomial(g, walk).total_degree == length + 3


def tree_decomposition(graph, blocks):
    """The block tree of blocks as ``primitive_block_trees`` yields them,
    after checking that each is in walk order: distinct vertices, and edge k
    joining vertex k to vertex k + 1, cyclically."""
    for verts, edges in blocks:
        assert len(verts) == len(edges) >= 2
        assert len(set(verts)) == len(verts)
        for k, e in enumerate(edges):
            a, b = verts[k], verts[(k + 1) % len(verts)]
            assert graph.edges[e] == (min(a, b), max(a, b))
    ordered = sorted(
        (tuple(sorted(set(edges))), tuple(sorted(verts))) for verts, edges in blocks
    )
    through = Counter(v for verts, _ in blocks for v in verts)
    return BlockDecomposition(
        tuple(edges for edges, _ in ordered),
        tuple(verts for _, verts in ordered),
        tuple(sorted(v for v, n in through.items() if n > 1)),
    )


def assert_trees_match_subset_oracle(graph):
    """The generator yields exactly the primitive connected edge subsets,
    each once, each with the block tree the block search finds, and the
    tour of its blocks is the one of that block tree."""
    trees = list(primitive_block_trees(graph))
    subsets = [s for s, _ in trees]
    assert len(subsets) == len(set(subsets)), "an edge set came twice"
    assert set(subsets) == {
        s
        for s in connected_edge_subsets(graph)
        if is_primitive_subgraph(graph, s).ok
    }
    for subset, blocks in trees:
        dec = tree_decomposition(graph, blocks)
        assert dec == block_decomposition(graph, subset)
        assert dec == is_primitive_subgraph(graph, subset).decomposition
        assert primitive_walk(graph, blocks)[0] == walk_from_primitive_subgraph(
            graph, dec
        )


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("*.txt")), ids=lambda p: p.stem
)
def test_candidates_match_subset_oracle_on_fixtures(path):
    assert_trees_match_subset_oracle(load_graph(str(path)))


@pytest.mark.parametrize(
    "graph", wide_graphs(8, seed=1212), ids=lambda g: g.digest()[:12]
)
def test_candidates_match_subset_oracle_on_12_edge_graphs(graph):
    assert_trees_match_subset_oracle(graph)


@pytest.mark.parametrize(
    "graph", [grid_graph(5), windmill_graph(4)], ids=["grid-2x5", "windmill-4"]
)
def test_candidates_match_subset_oracle_on_structured_graphs(graph):
    # a grid's primitive walks are its even cycles, whose trees never grow;
    # a windmill's are its pairs of triangles, joined at the hub
    assert_trees_match_subset_oracle(graph)


@given(connected_graphs())
@settings(max_examples=40, deadline=None)
def test_candidates_match_subset_oracle_on_random_graphs(graph):
    assert_trees_match_subset_oracle(graph)
