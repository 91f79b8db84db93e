"""Distinguished sets from walks, cross-checked against the fiber machinery."""

import hashlib
import itertools
import random
import sys

import pytest

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

from conftest import STRUCTURAL, support_minimal, wide_graphs

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
    complete = toriclab.oracle._sweep

    def one_short(config, degrees):
        found = complete(config, degrees)
        top = max(found, key=lambda d: (sum(d), d))
        members = found[top][0]
        assert len(members) > 1
        dropped = pick(members)
        kept = tuple(u for u in members if u != dropped)
        found[top] = (kept, toriclab.oracle._components(kept))
        return found

    monkeypatch.setattr(toriclab.oracle, "_sweep", one_short)


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
    # ``BasisSet.subset`` skips make_basis_set's copying, duplicate check and
    # sort; over a canonical set it must build the same set, element by
    # element and annotation by annotation
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
