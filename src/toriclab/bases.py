"""The four distinguished binomial families of a graph's toric ideal.

Everything is driven by closed even walks.  Primitive walks are found by
enumerating connected edge subsets and testing the block-structure
characterization; circuits come from their own cycle-based constructions;
the universal Groebner and universal Markov members are primitive walks
passing the mixedness and minimality filters.  The fiber-graph route to the
universal Markov basis doubles as an internal consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .binomials import BasisSet, Binomial, make_basis_set
from .errors import InternalInvariantError, ScaleGuardError
from .graphs import (
    BlockDecomposition,
    Cycle,
    Graph,
    connected_edge_subsets,
    enumerate_cycles,
    incidence_matrix,
    paths_between,
)
from .oracle import (
    FiberGraph,
    ToricConfig,
    candidate_degrees,
    fiber_graphs,
    indispensability_report,
    universal_markov_fibers,
)
from .walks import (
    ChordReport,
    ClosedEvenWalk,
    classify_chords,
    is_mixed,
    is_primitive_subgraph,
    make_walk,
    minimality_failures,
    walk_binomial,
    walk_from_cycle,
    walk_from_primitive_subgraph,
)

# Edge-count ceiling for exhaustive enumeration unless the caller forces it.
MAX_EDGES_UNFORCED = 20


def ensure_tractable(graph: Graph, force: bool = False) -> None:
    if not force and len(graph.edges) > MAX_EDGES_UNFORCED:
        raise ScaleGuardError(
            f"graph has {len(graph.edges)} edges, above the "
            f"{MAX_EDGES_UNFORCED}-edge enumeration guard; pass force to "
            "run anyway"
        )


def graph_config(graph: Graph) -> ToricConfig:
    """Vertex-edge incidence matrix as a toric configuration."""
    return ToricConfig(incidence_matrix(graph))


@dataclass(frozen=True)
class PrimitiveElement:
    """One primitive walk with its binomial and classification tags.

    ``decomposition`` and ``chords`` are the walk's block tree and chord
    reports, worked out once here for every later reader.
    """

    subset: tuple[int, ...]
    walk: ClosedEvenWalk
    binomial: Binomial
    mixed: bool
    minimality_failures: tuple[str, ...]
    decomposition: BlockDecomposition = field(repr=False, compare=False)
    chords: tuple[ChordReport, ...] = field(repr=False, compare=False)

    @property
    def minimal(self) -> bool:
        return not self.minimality_failures


def primitive_elements(graph: Graph) -> tuple[PrimitiveElement, ...]:
    """Every primitive walk of the graph, sorted by binomial."""

    out = []
    for subset in connected_edge_subsets(graph):
        if len(subset) < 4:
            continue
        check = is_primitive_subgraph(graph, subset)
        if not check.ok:
            continue
        walk = walk_from_primitive_subgraph(graph, subset, _check=check)
        dec = check.decomposition
        chords = tuple(classify_chords(graph, walk, dec))
        out.append(
            PrimitiveElement(
                subset=subset,
                walk=walk,
                binomial=walk_binomial(graph, walk),
                mixed=is_mixed(graph, walk, dec),
                minimality_failures=minimality_failures(graph, walk, dec, chords),
                decomposition=dec,
                chords=chords,
            )
        )
    out.sort(key=lambda e: e.binomial.sort_key())
    return tuple(out)


def _rotate_cycle(cycle: Cycle, vertex: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    i = cycle.vertices.index(vertex)
    return (
        cycle.vertices[i:] + cycle.vertices[:i],
        cycle.edges[i:] + cycle.edges[:i],
    )


def _path_vertices(graph: Graph, path_edges: tuple[int, ...], start: int) -> list[int]:
    verts = [start]
    for ei in path_edges:
        a, b = graph.edges[ei]
        verts.append(b if verts[-1] == a else a)
    return verts


def circuit_walks(graph: Graph) -> list[tuple[ClosedEvenWalk, str]]:
    """Walks of all circuits, each labelled with its shape.

    Shapes: an even cycle; two odd cycles meeting in exactly one vertex;
    two vertex-disjoint odd cycles joined by a path that only touches them
    at its endpoints (the path edges enter squared).
    """

    cycles = enumerate_cycles(graph)
    even = [c for c in cycles if c.is_even]
    odd = [c for c in cycles if not c.is_even]
    out: list[tuple[ClosedEvenWalk, str]] = []
    for c in even:
        out.append((walk_from_cycle(graph, c), "even-cycle"))
    for a in range(len(odd)):
        for b in range(a + 1, len(odd)):
            c1, c2 = odd[a], odd[b]
            shared = set(c1.vertices) & set(c2.vertices)
            if len(shared) == 1:
                x = shared.pop()
                v1, e1 = _rotate_cycle(c1, x)
                v2, e2 = _rotate_cycle(c2, x)
                out.append(
                    (make_walk(graph, e1 + e2, v1 + v2), "shared-vertex")
                )
            elif not shared:
                blocked = set(c1.vertices) | set(c2.vertices)
                for u in c1.vertices:
                    for v in c2.vertices:
                        forbidden = tuple(blocked - {u, v})
                        for path in paths_between(graph, u, v, forbidden):
                            pv = _path_vertices(graph, path, u)
                            v1, e1 = _rotate_cycle(c1, u)
                            v2, e2 = _rotate_cycle(c2, v)
                            edges = e1 + path + e2 + tuple(reversed(path))
                            verts = (
                                v1
                                + tuple(pv[:-1])
                                + v2
                                + tuple(reversed(pv[1:]))
                            )
                            out.append(
                                (make_walk(graph, edges, verts), "path-joined")
                            )
    return out


@dataclass(frozen=True)
class GraphAnalysis:
    """The four walk-derived sets plus the underlying primitive elements."""

    graph: Graph
    elements: tuple[PrimitiveElement, ...]
    circuits: BasisSet
    graver: BasisSet
    universal_groebner: BasisSet
    universal_markov: BasisSet

    def element_for(self, binomial: Binomial) -> PrimitiveElement:
        for e in self.elements:
            if e.binomial == binomial:
                return e
        raise KeyError(binomial.render())


def _tags(element: PrimitiveElement, circuit: bool) -> dict:
    return {
        "circuit": circuit,
        "primitive": True,
        "mixed": element.mixed,
        "minimal": element.minimal,
        "minimality_failures": list(element.minimality_failures),
    }


def analyze_graph(graph: Graph, force: bool = False) -> GraphAnalysis:
    ensure_tractable(graph, force)
    elements = primitive_elements(graph)
    known = {(e.binomial.plus, e.binomial.minus): e for e in elements}

    circuit_items: list[tuple[Binomial, dict]] = []
    circuit_keys: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for walk, shape in circuit_walks(graph):
        b = walk_binomial(graph, walk)
        key = (b.plus, b.minus)
        element = known.get(key)
        if element is None:
            raise InternalInvariantError(
                f"circuit {b.render()} missing from the primitive enumeration"
            )
        circuit_keys.add(key)
        circuit_items.append((b, {**_tags(element, True), "shape": shape}))

    m = len(graph.edges)
    graver = make_basis_set(
        "graver",
        m,
        [
            (e.binomial, _tags(e, (e.binomial.plus, e.binomial.minus) in circuit_keys))
            for e in elements
        ],
    )
    ugb = make_basis_set(
        "ugb",
        m,
        [
            (b, dict(ann))
            for b, ann in zip(graver.elements, graver.annotations)
            if ann["mixed"]
        ],
    )
    markov = make_basis_set(
        "markov",
        m,
        [
            (b, dict(ann))
            for b, ann in zip(graver.elements, graver.annotations)
            if ann["minimal"]
        ],
    )
    return GraphAnalysis(
        graph,
        elements,
        make_basis_set("circuits", m, circuit_items),
        graver,
        ugb,
        markov,
    )


@dataclass(frozen=True)
class FiberBundle:
    """Fiber-graph data for the graph's configuration.

    Built from the walk-derived degrees; the universal Markov basis it
    produces must match the walk characterization or an invariant error is
    raised.
    """

    config: ToricConfig
    graphs: tuple[FiberGraph, ...]
    minimal_markov: tuple[Binomial, ...]
    universal_markov: BasisSet
    indispensable: BasisSet


def fiber_bundle(
    graph: Graph,
    analysis: GraphAnalysis | None = None,
    force: bool = False,
) -> FiberBundle:
    if analysis is None:
        analysis = analyze_graph(graph, force=force)
    config = graph_config(graph)
    degrees = candidate_degrees([e.binomial for e in analysis.elements])
    graphs, minimal = fiber_graphs(config, degrees)
    universal = universal_markov_fibers(config, graphs)
    if universal.element_set() != analysis.universal_markov.element_set():
        raise InternalInvariantError(
            "universal Markov bases from fibers and from walks disagree"
        )
    report = indispensability_report(config, graphs)
    walk_tags = {
        (b.plus, b.minus): ann
        for b, ann in zip(
            analysis.universal_markov.elements,
            analysis.universal_markov.annotations,
        )
    }
    items = []
    for b in report.indispensable:
        ann = walk_tags.get((b.plus, b.minus))
        if ann is None:
            raise InternalInvariantError(
                f"indispensable element {b.render()} outside the universal "
                "Markov basis"
            )
        items.append((b, dict(ann)))
    indispensable = make_basis_set("indispensable", config.ncols, items)
    return FiberBundle(config, graphs, minimal, universal, indispensable)
