"""Distinguished sets from walks, cross-checked against the fiber machinery."""

import hashlib
import itertools
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toriclab.bases
import toriclab.oracle
import toriclab.walks
from toriclab.bases import (
    analyze_graph,
    ensure_tractable,
    fiber_bundle,
    graph_config,
    primitive_elements,
)
from toriclab.binomials import make_basis_set
from toriclab.corpus import ladder_graph, random_connected_graphs
from toriclab.errors import InternalInvariantError, ScaleGuardError
from toriclab.graphs import Graph, GraphError, parse_graph
from toriclab.oracle import markov_bundle
from toriclab.robustness import robustness_verdict

from conftest import (
    STRUCTURAL,
    connected_graphs,
    dumbbell_graph,
    fan_graph,
    grid_graph,
    support_minimal,
    theta_graph,
    triangle_chain_graph,
    wheel_graph,
    wide_graphs,
)

# circuits, graver, universal Groebner, universal Markov, indispensable
EXPECTED_COUNTS = {
    "k4": (3, 3, 3, 3, 0),
    "c4": (1, 1, 1, 1, 1),
    "domino": (3, 3, 3, 2, 2),
    "bowtie": (1, 1, 1, 1, 1),
    "tri_edge_tri": (1, 1, 1, 1, 1),
    "tri_square_tri_adjacent": (3, 4, 4, 2, 2),
    "tri_square_tri_opposite": (3, 4, 4, 4, 4),
    "hexchord": (3, 3, 3, 2, 2),
    "triangle_per_corner": (9, 10, 9, 6, 6),
    "octagon_three_chords": (7, 7, 7, 3, 3),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_set_counts(analysis_of, bundle_of, name):
    a = analysis_of(name)
    counts = (
        len(a.circuits),
        len(a.graver),
        len(a.universal_groebner),
        len(a.universal_markov),
        len(bundle_of(name).indispensable),
    )
    assert counts == EXPECTED_COUNTS[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_set_inclusions(analysis_of, bundle_of, name):
    a = analysis_of(name)
    gr = a.graver.element_set()
    assert a.circuits.element_set() == support_minimal(gr)
    assert a.universal_markov.element_set() <= a.universal_groebner.element_set() <= gr
    assert bundle_of(name).indispensable.element_set() <= a.universal_markov.element_set()


def test_k4_exact_elements(analysis_of):
    a = analysis_of("k4")
    assert [b.render() for b in a.graver.elements] == [
        "e3*e4 - e5*e6",
        "e1*e2 - e5*e6",
        "e1*e2 - e3*e4",
    ]
    assert a.graver.elements == a.universal_markov.elements
    assert a.graver.elements == a.universal_groebner.elements


def test_circuit_shapes(analysis_of):
    shapes = [ann["shape"] for ann in analysis_of("tri_square_tri_opposite").circuits.annotations]
    assert shapes.count("even-cycle") == 1
    assert shapes.count("path-joined") == 2

    shapes = [ann["shape"] for ann in analysis_of("triangle_per_corner").circuits.annotations]
    assert shapes.count("shared-vertex") == 3
    assert shapes.count("path-joined") == 6

    shapes = [ann["shape"] for ann in analysis_of("domino").circuits.annotations]
    assert shapes == ["even-cycle"] * 3


def test_annotations_record_minimality(analysis_of):
    a = analysis_of("triangle_per_corner")
    assert len(a.elements) == len(a.graver)
    for e, b, ann in zip(a.elements, a.graver.elements, a.graver.annotations):
        assert e.binomial == b
        assert ann["minimal"] == (e.minimality_failures == ())
        assert ann["mixed"] == e.mixed
    failures = {tuple(ann["minimality_failures"]) for ann in a.graver.annotations}
    assert ("M1",) in failures
    assert any("M4" in f for f in failures)


def test_equal_tags_share_one_dict_within_an_analysis(graph_of):
    # each distinct tag set is built once per analysis, so the report
    # encoder writes its text once; a second analysis builds its own
    k6 = Graph(6, tuple(itertools.combinations(range(6), 2)))
    for g in [graph_of(name) for name in STRUCTURAL] + [k6]:
        a = analyze_graph(g)
        for s in (a.graver, a.circuits):
            distinct = {json.dumps(ann, sort_keys=True) for ann in s.annotations}
            assert len({id(ann) for ann in s.annotations}) == len(distinct)
    first, again = analyze_graph(k6), analyze_graph(k6)
    # K6 has 125 Graver elements under a handful of tag sets
    assert len({id(ann) for ann in first.graver.annotations}) < len(first.graver) // 5
    ids = {id(ann) for s in (first.graver, first.circuits) for ann in s.annotations}
    assert ids.isdisjoint(
        id(ann) for s in (again.graver, again.circuits) for ann in s.annotations
    )


def test_analysis_is_deterministic(graph_of):
    g = graph_of("triangle_per_corner")
    a1 = analyze_graph(g)
    a2 = analyze_graph(g)
    assert a1.graver.elements == a2.graver.elements
    assert a1.circuits.to_json() == a2.circuits.to_json()


def test_bundle_betti_structure(bundle_of):
    k4 = bundle_of("k4")
    betti = [fg for fg in k4.graphs if fg.is_betti]
    assert len(betti) == 1 and betti[0].beta0 == 2
    assert len(k4.minimal_markov) == 2

    opp = bundle_of("tri_square_tri_opposite")
    betti = [fg for fg in opp.graphs if fg.is_betti]
    assert len(betti) == 4
    assert all(fg.indispensable_degree for fg in betti)


def test_tractability_guard():
    # a path on 22 vertices has 21 edges and no cycles at all
    lines = "\n".join(f"{i} {i + 1}" for i in range(1, 22))
    g = parse_graph(lines)
    with pytest.raises(ScaleGuardError):
        analyze_graph(g)
    a = analyze_graph(g, force=True)
    assert len(a.graver) == 0
    ensure_tractable(g, force=True)


def test_random_graphs_keep_inclusions_and_cross_checks():
    for g in random_connected_graphs(25, seed=20250815):
        a = analyze_graph(g)
        gr = a.graver.element_set()
        assert a.circuits.element_set() == support_minimal(gr)
        assert a.universal_markov.element_set() <= a.universal_groebner.element_set() <= gr
        # raises internally if the fiber side disagrees with the walk side
        bundle = fiber_bundle(g, a)
        assert bundle.indispensable.element_set() <= a.universal_markov.element_set()


def test_primitive_elements_take_their_block_trees_from_the_generator(
    graph_of, monkeypatch
):
    # The generator decides primitivity and hands over each block tree with
    # its cycles in walk order, so the general-subset test, the block search
    # and the tour that orders a block tree's cycles stay off the hot path.
    expected = {name: primitive_elements(graph_of(name)) for name in STRUCTURAL}

    def refuse(*args, **kwargs):
        raise AssertionError("a primitive walk's block tree was derived again")

    for name, module in list(sys.modules.items()):
        if name == "toriclab" or name.startswith("toriclab."):
            for fn in (
                "is_primitive_subgraph",
                "block_decomposition",
                "walk_from_primitive_subgraph",
            ):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
    for name, elements in expected.items():
        assert primitive_elements(graph_of(name)) == elements


def _without_top_member(monkeypatch, pick):
    """Make the fiber sweep drop ``pick(members)`` from its largest fiber,
    whose components are split again from the members left."""
    complete = toriclab.oracle.fibers

    def one_short(config, degrees):
        found = complete(config, degrees)
        top = max(found, key=lambda d: (sum(d), d))
        members = found[top][0]
        assert len(members) > 1
        dropped = pick(members)
        kept = tuple(u for u in members if u != dropped)
        found[top] = (kept, toriclab.oracle._components(kept))
        return found

    monkeypatch.setattr(toriclab.oracle, "fibers", one_short)


def test_fiber_side_breach_names_the_graph(graph_of, monkeypatch):
    # Drop the last member of the largest fiber, (1,0,1,0,0,1,0), the one
    # perfect matching of the domino through its middle edge.  It is no
    # Graver side, so only the comparison with the walks sees it gone.
    graph = graph_of("domino")
    analysis = analyze_graph(graph)
    _without_top_member(monkeypatch, lambda members: members[-1])
    with pytest.raises(InternalInvariantError, match="disagree") as err:
        fiber_bundle(graph, analysis)
    assert f"fiber bundle of graph {graph.digest()}" in str(err.value)


def test_graver_side_missing_from_its_fiber_names_the_graph(
    graph_of, monkeypatch
):
    # Drop a side of the domino's hexagon, a Graver element of the largest
    # degree, from that degree's fiber.
    graph = graph_of("domino")
    analysis = analyze_graph(graph)
    (hexagon,) = [b for b in analysis.graver.elements if sum(b.degree) == 6]
    _without_top_member(monkeypatch, lambda members: hexagon.plus)
    with pytest.raises(InternalInvariantError, match="missing from") as err:
        fiber_bundle(graph, analysis)
    assert f"fiber bundle of graph {graph.digest()}" in str(err.value)
    assert f"fiber of degree {list(hexagon.degree)}" in str(err.value)


def _element_facts(element):
    """Everything ``primitive_elements`` works out for one walk, as plain data."""
    walk, b = element.walk, element.binomial
    return (
        element.subset,
        walk.edges,
        walk.vertices,
        (b.plus, b.minus, b.degree),
        element.mixed,
        element.minimality_failures,
        tuple((r.chord, r.kind, r.positions) for r in element.chords),
        tuple(
            (f.walk_edges, f.walk_edge_positions, f.chords, f.sides)
            for f in element.f4s
        ),
    )


def _graphs_on(vertices, edges, count, seed):
    """Seeded connected graphs with exactly these vertex and edge counts."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(vertices), 2))
    out = []
    while len(out) < count:
        try:
            out.append(Graph(vertices, tuple(sorted(rng.sample(pairs, edges)))))
        except GraphError:
            continue
    return out


# sha256 of the facts of every element, graph by graph in the order listed,
# as the walk layer computed them before it read one positions table per walk
PINNED_ELEMENT_FACTS = {
    "fixtures": (
        "b70e91401cf70fd734442b45d5fac4e1"
        "2f8ebff3a21b2a3e9a10e55738f28e9f"
    ),
    "12-edge": (
        "ce3be102a8aecfef432c173d727aa5fa"
        "25370ee8c7f89b0801243caba581ae87"
    ),
    "15-edge": (
        "b66e3b6806f4ae1826bb5f4a4e9e4abe"
        "1812ee3cd549605a6ae658089095bd5d"
    ),
}


@pytest.mark.parametrize("family", sorted(PINNED_ELEMENT_FACTS))
def test_element_facts_match_pinned_digest(graph_of, family):
    graphs = {
        "fixtures": lambda: [graph_of(name) for name in STRUCTURAL],
        "12-edge": lambda: wide_graphs(8, seed=1212),
        "15-edge": lambda: _graphs_on(8, 15, 2, seed=1515),
    }[family]()
    facts = [
        tuple(_element_facts(e) for e in primitive_elements(g)) for g in graphs
    ]
    digest = hashlib.sha256(repr(facts).encode()).hexdigest()
    assert digest == PINNED_ELEMENT_FACTS[family]


@pytest.mark.parametrize("family", sorted(PINNED_ELEMENT_FACTS))
def test_shape_marks_exactly_the_circuits(graph_of, family):
    # Each element's circuit shape is set from its block tree; the circuits
    # are independently the support-minimal Graver elements, and the
    # circuits set carries the same shapes.
    graphs = {
        "fixtures": lambda: [graph_of(name) for name in STRUCTURAL],
        "12-edge": lambda: wide_graphs(8, seed=1212),
        "15-edge": lambda: _graphs_on(8, 15, 2, seed=1515),
    }[family]()
    for g in graphs:
        a = analyze_graph(g)
        shaped = {
            (e.binomial.plus, e.binomial.minus): e.shape
            for e in a.elements
            if e.shape is not None
        }
        assert set(shaped) == support_minimal(a.graver.element_set())
        assert set(shaped.values()) <= {
            "even-cycle", "shared-vertex", "path-joined"
        }
        assert shaped == {
            (b.plus, b.minus): ann["shape"]
            for b, ann in zip(a.circuits.elements, a.circuits.annotations)
        }


def test_walk_layer_runs_once_per_element(graph_of, monkeypatch):
    # ``primitive_elements`` derives every fact of a walk in one call of
    # ``primitive_walk`` per element.  The stage-by-stage functions, the
    # reference the tests check that pass against, are not called at all.
    calls = {}
    for fn in (
        "primitive_walk",
        "walk_from_primitive_subgraph",
        "classify_chords",
        "minimality_failures",
        "cyclic_parities",
        "crossing_pairs",
    ):
        real = getattr(toriclab.walks, fn)

        def counted(*args, _real=real, _fn=fn, **kwargs):
            calls[_fn] = calls.get(_fn, 0) + 1
            return _real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "toriclab" or name.startswith("toriclab."):
                if getattr(module, fn, None) is real:
                    monkeypatch.setattr(module, fn, counted)
    elements = primitive_elements(graph_of("triangle_per_corner"))
    assert len(elements) == 10
    assert calls == {"primitive_walk": 10}


def test_ladder_graph_reproduces_the_8_20_rung():
    g = ladder_graph(8, 20)
    assert (g.vertex_count, len(g.edges)) == (8, 20)
    assert ladder_graph(8, 20) == g
    assert len(primitive_elements(g)) == 1690


@pytest.mark.parametrize("vertices, edges", [(1, 0), (8, 6), (5, 11)])
def test_ladder_graph_refuses_sizes_no_connected_graph_has(vertices, edges):
    with pytest.raises(ValueError, match="no connected simple graph"):
        ladder_graph(vertices, edges)


@pytest.mark.parametrize("family", ["fixtures", "12-edge"])
def test_filtered_subsets_match_a_fresh_basis_set(graph_of, family):
    # ``BasisSet.subset`` skips make_basis_set's duplicate check and sort;
    # over a canonical set it must build the same set, element by element
    # and annotation by annotation
    graphs = {
        "fixtures": lambda: [graph_of(name) for name in STRUCTURAL],
        "12-edge": lambda: wide_graphs(8, seed=1212),
    }[family]()
    for g in graphs:
        a = analyze_graph(g)
        oracle = markov_bundle(graph_config(g), a.graver.elements)
        keys = oracle.indispensable.element_set()
        for subset, source, keep in (
            (a.universal_groebner, a.graver, lambda _, ann: ann["mixed"]),
            (a.universal_markov, a.graver, lambda _, ann: ann["minimal"]),
            (
                fiber_bundle(g, a).indispensable,
                a.universal_markov,
                lambda b, _: (b.plus, b.minus) in keys,
            ),
        ):
            items = zip(source.elements, source.annotations)
            fresh = make_basis_set(
                subset.kind, len(g.edges), [pair for pair in items if keep(*pair)]
            )
            assert subset == fresh


def _through(key, perm):
    """A ``(plus, minus)`` key with entry j read from entry ``perm[j]``, the
    larger vector again on the plus side."""
    plus, minus = (tuple(side[i] for i in perm) for side in key)
    return (plus, minus) if plus > minus else (minus, plus)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_relabelling_maps_every_set_through_the_edge_permutation(data):
    # the sets, tags and verdict are facts of the graph, not of its labels:
    # renaming the vertices and listing the edges in another order maps
    # every set through the edge permutation and leaves the rest alone
    assert_relabelling_maps_through(data, data.draw(connected_graphs()))


FAMILIES = {
    "theta-3-4-5": theta_graph(3, 4, 5),
    "dumbbell-8": dumbbell_graph(8),
    "triangle-chain-5": triangle_chain_graph(5),
    "fan-8": fan_graph(8),
    "wheel-8": wheel_graph(8),
}


@pytest.mark.parametrize("graph", FAMILIES.values(), ids=FAMILIES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_relabelling_maps_every_set_through_on_families(graph, data):
    assert_relabelling_maps_through(data, graph)


def assert_relabelling_maps_through(data, g):
    """Draw a vertex renaming and an edge order for ``g`` and require the
    sets, tags and verdict of the relabelled graph to be ``g``'s mapped
    through the edge permutation."""
    sigma = data.draw(st.permutations(range(g.vertex_count)))
    perm = data.draw(st.permutations(range(len(g.edges))))
    # edge j of h is edge perm[j] of g with its ends renamed
    h = Graph(
        g.vertex_count,
        tuple((sigma[g.edges[i][0]], sigma[g.edges[i][1]]) for i in perm),
    )
    results = []
    for graph in (g, h):
        a = analyze_graph(graph)
        bundle = fiber_bundle(graph, a)
        results.append((a, bundle, robustness_verdict(graph, a, bundle)))
    (a, bundle, verdict), (b, bundle_h, verdict_h) = results
    for mine, theirs in (
        (a.circuits, b.circuits),
        (a.graver, b.graver),
        (a.universal_groebner, b.universal_groebner),
        (a.universal_markov, b.universal_markov),
        (bundle.indispensable, bundle_h.indispensable),
    ):
        assert {_through(key, perm) for key in mine.element_set()} == (
            theirs.element_set()
        )
    for mine, theirs in ((a.graver, b.graver), (a.circuits, b.circuits)):
        tagged = {
            _through((e.plus, e.minus), perm): ann
            for e, ann in zip(mine.elements, mine.annotations)
        }
        assert tagged == dict(
            zip(((e.plus, e.minus) for e in theirs.elements), theirs.annotations)
        )
    assert (verdict.generalized_robust, verdict.robust) == (
        verdict_h.generalized_robust,
        verdict_h.robust,
    )
    assert [c.holds for c in verdict.criteria] == [c.holds for c in verdict_h.criteria]


def bipartite_graphs(count, seed, max_edges=20):
    """Seeded connected bipartite graphs with a cycle and at most
    ``max_edges`` edges: parts of 2-5 vertices, each pair across them an
    edge with a probability drawn from 0.5-0.9."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b = rng.randint(2, 5), rng.randint(2, 5)
        p = rng.uniform(0.5, 0.9)
        edges = tuple(
            (u, a + v) for u in range(a) for v in range(b) if rng.random() < p
        )
        if not a + b <= len(edges) <= max_edges:
            continue
        try:
            out.append(Graph(a + b, edges))
        except GraphError:
            continue
    return out


@pytest.mark.parametrize(
    "graph",
    [grid_graph(n) for n in range(2, 8)] + bipartite_graphs(12, seed=1995),
    ids=[f"grid{n}" for n in range(2, 8)] + [f"draw{i}" for i in range(12)],
)
def test_bipartite_graver_basis_is_its_circuits(graph):
    # a bipartite graph has no odd cycle, so every primitive walk is an even
    # cycle (Villarreal, 1995): circuits, Graver and universal Groebner
    # bases coincide
    a = analyze_graph(graph)
    assert a.circuits.element_set() == a.graver.element_set()
    assert a.graver.element_set() == a.universal_groebner.element_set()
    shapes = {ann["shape"] for ann in a.circuits.annotations}
    assert shapes == {"even-cycle"}
