"""The four distinguished binomial families of a graph's toric ideal.

Everything is driven by closed even walks.  Primitive walks are built from
their block trees: ``graphs.primitive_block_trees`` grows trees of cycles
and cut-edge paths out of each cycle and returns, in one list, the even
cycles and the trees with odd sides at every cut vertex, each with its
blocks in walk order, so no walk's primitivity, blocks or cycle order is
worked out a second time.  Every tree is grown before the first walk is
derived.  ``walks.primitive_walk`` turns each into its finished
element in one pass: walk, binomial, chords, odd-chord crossings, F4s,
minimality codes and circuit shape, not the block tree, which no later
stage reads; this module only sorts them and reads them.  The universal
Groebner and universal Markov members are primitive walks passing the
mixedness and minimality filters.
``fiber_bundle`` hands the walk-derived Graver set to
``oracle.markov_bundle``; the universal Markov basis read off its fiber
graphs must match the walk one, an internal consistency check.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from .binomials import BasisSet, make_basis_set
from .errors import InternalInvariantError, ScaleGuardError
from .graphs import Graph, primitive_block_trees
from .oracle import FiberBundle, ToricConfig, markov_bundle
from .walks import PrimitiveElement, primitive_walk

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


def primitive_elements(graph: Graph) -> tuple[PrimitiveElement, ...]:
    """Every primitive walk of the graph, as its element from
    ``walks.primitive_walk``, sorted by binomial.  Every block tree is
    grown before the first walk is derived from one."""
    elements = [
        primitive_walk(graph, subset, blocks)
        for subset, blocks in primitive_block_trees(graph)
    ]
    elements.sort(key=lambda e: e.binomial.sort_key())
    return tuple(elements)


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


def _tags(
    pool: dict[tuple, dict], element: PrimitiveElement, shape: str | None = None
) -> dict:
    """The element's tags, with ``shape`` for a circuit's, from ``pool``.

    Tags are a few booleans and the minimality codes, so one analysis has
    few distinct tag sets: elements with equal tags share one dict, built
    on first use, and the report encoder writes its text once.
    """
    key = (bool(element.shape), element.mixed, element.minimality_failures, shape)
    tags = pool.get(key)
    if tags is None:
        tags = pool[key] = {
            "circuit": key[0],
            "primitive": True,
            "mixed": element.mixed,
            "minimal": element.minimal,
            "minimality_failures": list(element.minimality_failures),
        }
        if shape is not None:
            tags["shape"] = shape
    return tags


def analyze_graph(graph: Graph, force: bool = False) -> GraphAnalysis:
    ensure_tractable(graph, force)
    elements = primitive_elements(graph)
    m = len(graph.edges)
    # one pool per analysis, so no tags outlive the sets that hold them
    pool: dict[tuple, dict] = {}
    graver = make_basis_set(
        "graver", m, [(e.binomial, _tags(pool, e)) for e in elements]
    )
    return GraphAnalysis(
        elements,
        make_basis_set(
            "circuits",
            m,
            [
                (e.binomial, _tags(pool, e, shape))
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
