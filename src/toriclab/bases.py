"""The four distinguished binomial families of a graph's toric ideal.

Everything is driven by closed even walks.  Primitive walks are built from
their block trees: ``graphs.primitive_block_trees`` grows trees of cycles
and cut-edge paths out of each cycle and yields the even cycles and the
trees with odd sides at every cut vertex, each with the block tree it
grew, so no walk's primitivity or blocks are worked out a second time.
Each walk's circuit shape is read off its block tree once, on its element:
the walks with one cyclic block (an even cycle) or two (odd cycles meeting
in a vertex or joined by a path) are the circuits.  Every other fact of a
walk is worked out once too, in ``primitive_elements``, and read from the
table that ``walks`` names for it; the element keeps the block tree,
chords, odd-chord crossings and F4s for the readers after it.  The
universal Groebner and universal Markov members are primitive walks
passing the mixedness and minimality filters.
``fiber_bundle`` hands the walk-derived Graver set to
``oracle.markov_bundle``; the universal Markov basis read off its fiber
graphs must match the walk one, an internal consistency check.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from .binomials import BasisSet, Binomial, make_basis_set
from .errors import InternalInvariantError, ScaleGuardError
from .graphs import (
    BlockDecomposition,
    Graph,
    primitive_block_trees,
)
from .oracle import FiberBundle, ToricConfig, markov_bundle
from .walks import (
    ChordReport,
    ClosedEvenWalk,
    F4Record,
    classify_chords,
    crossing_pairs,
    cyclic_parities,
    find_F4s,
    is_mixed,
    minimality_failures,
    walk_binomial,
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
    """The vertex-edge incidence configuration: edge {u, v}'s column is e_u + e_v."""
    return ToricConfig(
        graph.vertex_count, tuple(((u, 1), (v, 1)) for u, v in graph.edges)
    )


@dataclass(frozen=True)
class PrimitiveElement:
    """One primitive walk with its binomial and classification tags.

    ``decomposition``, ``chords``, ``crossings`` and ``f4s`` are the walk's
    block tree, chord reports, odd-chord crossing scan and F4s, and
    ``shape`` its circuit shape (None for a walk that is no circuit), worked
    out once here for every later reader.
    """

    subset: tuple[int, ...]
    walk: ClosedEvenWalk
    binomial: Binomial
    mixed: bool
    minimality_failures: tuple[str, ...]
    decomposition: BlockDecomposition = field(repr=False, compare=False)
    chords: tuple[ChordReport, ...] = field(repr=False, compare=False)
    crossings: tuple[tuple[ChordReport, ChordReport], ...] = field(
        repr=False, compare=False
    )
    f4s: tuple[F4Record, ...] = field(repr=False, compare=False)
    shape: str | None = field(repr=False, compare=False)

    @property
    def minimal(self) -> bool:
        return not self.minimality_failures


def primitive_elements(graph: Graph) -> tuple[PrimitiveElement, ...]:
    """Every primitive walk of the graph, sorted by binomial.

    A graph's circuits are its even cycles, pairs of odd cycles meeting in
    exactly one vertex, and pairs of vertex-disjoint odd cycles joined by a
    path (whose edges enter squared).  Each is a primitive walk, and its
    block tree tells them apart: one cyclic block is an even cycle; two
    cyclic blocks and nothing else share a vertex; two cyclic blocks plus
    cut edges are path-joined.  A primitive walk with three or more cyclic
    blocks is no circuit.

    Each fact of a walk is worked out once, in this order, and every later
    stage reads it: the walk with its positions table, the chord reports,
    the odd-chord crossing scan, the F4s, the cyclic-parity table, then the
    binomial, the mixed test and the minimality codes.
    """

    out = []
    for subset, dec in primitive_block_trees(graph):
        cyclic = len(dec.cyclic_blocks)
        if cyclic == 1:
            shape = "even-cycle"
        elif cyclic == 2:
            shape = "shared-vertex" if len(dec.blocks) == 2 else "path-joined"
        else:
            shape = None
        walk = walk_from_primitive_subgraph(graph, dec)
        chords = classify_chords(graph, walk, dec)
        crossings = crossing_pairs(chords)
        f4s = find_F4s(graph, walk, crossings)
        parities = cyclic_parities(graph, walk, dec)
        out.append(
            PrimitiveElement(
                subset=subset,
                walk=walk,
                binomial=walk_binomial(graph, walk),
                mixed=is_mixed(parities),
                minimality_failures=minimality_failures(
                    graph, dec, parities, chords, crossings, f4s
                ),
                decomposition=dec,
                chords=chords,
                crossings=crossings,
                f4s=f4s,
                shape=shape,
            )
        )
    out.sort(key=lambda e: e.binomial.sort_key())
    return tuple(out)


def circuit_walks(
    elements: Sequence[PrimitiveElement],
) -> list[tuple[PrimitiveElement, str]]:
    """The circuits among the primitive walks, each with its shape."""
    return [(e, e.shape) for e in elements if e.shape]


@dataclass(frozen=True)
class GraphAnalysis:
    """The four walk-derived sets plus the underlying primitive elements."""

    elements: tuple[PrimitiveElement, ...]
    circuits: BasisSet
    graver: BasisSet
    universal_groebner: BasisSet
    universal_markov: BasisSet


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
    m = len(graph.edges)
    graver = make_basis_set(
        "graver", m, [(e.binomial, _tags(e, bool(e.shape))) for e in elements]
    )
    return GraphAnalysis(
        elements,
        make_basis_set(
            "circuits",
            m,
            [
                (e.binomial, {**_tags(e, True), "shape": shape})
                for e, shape in circuit_walks(elements)
            ],
        ),
        graver,
        graver.subset("ugb", lambda _, ann: ann["mixed"]),
        graver.subset("markov", lambda _, ann: ann["minimal"]),
    )


def fiber_bundle(graph: Graph, analysis: GraphAnalysis) -> FiberBundle:
    """Fiber-graph Markov data at the walk-derived Graver degrees.

    The universal Markov basis read off the fibers must match the walk
    characterization or an invariant error is raised; the indispensable
    elements carry their walk tags.  A breach inside the fiber graphs is
    raised again naming the graph and this stage.
    """
    try:
        bundle = markov_bundle(graph_config(graph), analysis.graver.elements)
    except InternalInvariantError as exc:
        raise InternalInvariantError(
            f"fiber bundle of graph {graph.digest()}: {exc}"
        ) from exc
    if bundle.universal_markov.element_set() != analysis.universal_markov.element_set():
        raise InternalInvariantError(
            f"fiber bundle of graph {graph.digest()}: universal Markov bases "
            "from fibers and from walks disagree"
        )
    # markov_bundle's indispensable set is part of its universal Markov set,
    # and that set equals the walk one, so filtering the walk set finds each
    # indispensable element with its walk tags
    keys = bundle.indispensable.element_set()
    indispensable = analysis.universal_markov.subset(
        "indispensable", lambda b, _: (b.plus, b.minus) in keys
    )
    return replace(bundle, indispensable=indispensable)
