"""Closed even walks, their binomials, and the chord calculus on them.

A closed even walk of length 2q alternates between two edge classes: the
plus class at walk positions 1, 3, ..., 2q-1 and the minus class at positions
2, 4, ..., 2q (positions are 1-based throughout the public interface). Its
binomial is the product of plus-class edges minus the product of minus-class
edges; cut edges of the walk's subgraph are traversed twice with equal
position parity and therefore appear squared.

Chord classification on a primitive walk: a chord whose endpoints do not lie
in a unique common block (in particular any chord touching a cut vertex) is a
bridge. The remaining chords have endpoints occurring exactly once each, so
splitting the walk at the chord is unambiguous: the chord is odd when the two
pieces are odd, even when both are even.

The facts of a walk are defined stage by stage, each read from one table:

- the positions table of ``ClosedEvenWalk`` (``vertex_positions`` and
  ``edge_occurrences``), built on construction in one pass over the
  canonical form; that pass also checks that no edge is traversed more
  than twice.  The chords and their occurrence pairs, the F4 search and the
  cyclic-parity table read it.
- the block tree (``graphs.BlockDecomposition``), with each vertex's blocks
  and the cyclic blocks worked out on construction.  The bridge test of the
  chords, the cyclic-parity table and the sink search read it.
- the cyclic-parity table (``cyclic_parities``): the position parity of
  every edge of each cyclic block.  The mixed test and the sink search
  read it.
- the odd-chord crossing scan (``crossing_pairs``): every effectively
  crossing pair of odd chords.  The F4 search and the M2 test read it.
- the F4 records, whose two sides the M3 test reads.

The pipeline derives them all in one pass instead, ``primitive_walk``, from
the blocks in walk order that ``graphs.primitive_block_trees`` lists, and
returns the finished ``PrimitiveElement``: one map of the blocks through
each vertex serves the tour and the bridge test, and one read of the
positions table serves the chords, the F4 search and the cyclic-parity
table, whose loop over the cyclic blocks also runs the mixed test and the
sink search and counts the blocks for the circuit shape.  It makes every
check the stages make; the tests hold the two to the same facts.  The
binomial is counted off the edge sequence by position parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .binomials import Binomial, make_binomial
from .errors import InternalInvariantError
from .graphs import (
    Block,
    BlockDecomposition,
    Graph,
    block_decomposition,
    degree_of,
    subset_degrees,
)


class WalkError(ValueError):
    pass


class ChordClassificationError(InternalInvariantError):
    """Occurrence pairs of a non-bridge chord disagreed on parity."""


@dataclass(frozen=True)
class ClosedEvenWalk:
    """Closed even walk stored in canonical form.

    ``edges[k]`` joins ``vertices[k]`` and ``vertices[(k+1) % length]``. The
    stored representative is the lexicographically least edge sequence over
    all rotations and reflections.  The positions table is built on
    construction, in one pass over that form, and that pass refuses an edge
    traversed more than twice.
    """

    edges: tuple[int, ...]
    vertices: tuple[int, ...]
    # 1-based walk positions of each vertex
    vertex_positions: dict[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )
    # 1-based walk positions of each edge
    edge_occurrences: dict[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        at_vertex: dict[int, tuple[int, ...]] = {}
        at_edge: dict[int, tuple[int, ...]] = {}
        k = 0
        for v, e in zip(self.vertices, self.edges):
            k += 1
            if v in at_vertex:
                at_vertex[v] += (k,)
            else:
                at_vertex[v] = (k,)
            if e not in at_edge:
                at_edge[e] = (k,)
            elif len(at_edge[e]) == 1:
                at_edge[e] += (k,)
            else:
                raise WalkError(f"edge index {e} traversed more than twice")
        object.__setattr__(self, "vertex_positions", at_vertex)
        object.__setattr__(self, "edge_occurrences", at_edge)

    @property
    def length(self) -> int:
        return len(self.edges)


def _canonicalize(
    edges: Sequence[int], vertices: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Least edge tuple over rotations and reflections, vertices kept aligned.

    The least tuple starts with the least edge, so only the rotations that
    start at an occurrence of it are compared, in both directions.
    """
    e = tuple(edges)
    v = tuple(vertices)
    L = len(e)
    e_ref = e[::-1]
    v_ref = v[:1] + v[:0:-1]
    least = min(e)
    candidates = []
    for p in range(L):
        if e[p] == least:
            r = L - 1 - p  # where that occurrence sits in the reflection
            candidates.append((e[p:] + e[:p], v[p:] + v[:p]))
            candidates.append((e_ref[r:] + e_ref[:r], v_ref[r:] + v_ref[:r]))
    return min(candidates)


def make_walk(graph: Graph, edges: Sequence[int], vertices: Sequence[int]) -> ClosedEvenWalk:
    """Validate and canonicalize a closed even walk.

    Requires even length at least 4, consecutive edges matching the vertex
    sequence, and no edge traversed more than twice.
    """
    edges = tuple(map(int, edges))
    vertices = tuple(map(int, vertices))
    L = len(edges)
    if L != len(vertices):
        raise WalkError("edge and vertex sequences differ in length")
    if L < 4 or L % 2 != 0:
        raise WalkError(f"walk length {L} is not an even number >= 4")
    ends = graph.edges
    if min(edges) < 0 or max(edges) >= len(ends):
        bad = next(e for e in edges if not 0 <= e < len(ends))
        raise WalkError(f"edge index {bad} out of range")
    # graph edges are stored as (u, v) with u < v
    k = 0
    for e, u, w in zip(edges, vertices, vertices[1:] + vertices[:1]):
        k += 1
        if ends[e] != ((u, w) if u < w else (w, u)):
            raise WalkError(f"edge at position {k} does not join its walk vertices")
    return ClosedEvenWalk(*_canonicalize(edges, vertices))


def walk_binomial(graph: Graph, walk: ClosedEvenWalk) -> Binomial:
    """Binomial of the walk: odd positions minus even positions.

    Raises NonCoprimeError when some edge lands in both classes; such a walk
    does not produce a usable relation and the failure is reported rather
    than repaired.
    """
    m = len(graph.edges)
    plus = [0] * m
    minus = [0] * m
    for e in walk.edges[::2]:
        plus[e] += 1
    for e in walk.edges[1::2]:
        minus[e] += 1
    # Degreed by graphs.degree_of, not ToricConfig.degree, on purpose: then
    # markov_bundle's check that both sides lie in their degree's fiber
    # compares two independent degree maps.
    return make_binomial(plus, minus, lambda exps: degree_of(graph, exps))


@dataclass(frozen=True)
class ChordReport:
    """Classification of one chord against a fixed walk.

    ``positions`` lists the 1-based occurrence pairs of the endpoints; a
    non-bridge chord has exactly one pair.
    """

    chord: int
    kind: str  # "bridge" | "even" | "odd"
    positions: tuple[tuple[int, int], ...]

    @property
    def span(self) -> tuple[int, int]:
        if self.kind == "bridge":
            raise ValueError("bridges have no distinguished occurrence pair")
        return self.positions[0]


def classify_chords(
    graph: Graph, walk: ClosedEvenWalk, dec: BlockDecomposition
) -> tuple[ChordReport, ...]:
    """Classify every chord of the walk as bridge, even, or odd.

    A chord is an edge off the walk with both ends on it.  Parity is
    computed for every occurrence pair of the endpoints and must agree;
    disagreement raises ChordClassificationError. With bridges split off
    first this cannot trigger on a primitive walk, where non-bridge
    endpoints occur exactly once, but the diagnostic is kept as a guard.
    """
    blocks_of = dec.blocks_of_vertex
    at = walk.vertex_positions
    on_walk = walk.edge_occurrences
    reports = []
    for f, (a, b) in enumerate(graph.edges):
        if f in on_walk or a not in at or b not in at:
            continue
        pairs = tuple([(i, j) if i < j else (j, i) for i in at[a] for j in at[b]])
        # a vertex is a cut vertex exactly when it lies in two or more blocks
        if blocks_of[a] != blocks_of[b] or len(blocks_of[a]) > 1:
            reports.append(ChordReport(f, "bridge", pairs))
            continue
        parities = {(t - s) % 2 for s, t in pairs}
        if len(parities) != 1:
            raise ChordClassificationError(
                f"chord classification of graph {graph.digest()}: chord "
                f"{graph.edge_label(f)} has occurrence pairs of mixed parity"
            )
        kind = "odd" if parities.pop() == 0 else "even"
        reports.append(ChordReport(f, kind, pairs))
    return tuple(reports)


def cross_effectively(first: tuple[int, int], second: tuple[int, int]) -> bool:
    """Whether two odd chords at these occurrence pairs cross effectively.

    Positions are 1-based walk positions. Crossing requires an odd offset
    between the lower endpoints and strict interleaving.
    """
    s, j = min(first), max(first)
    s2, j2 = min(second), max(second)
    if (s2 - s) % 2 != 1:
        return False
    return s < s2 < j < j2 or s2 < s < j2 < j


def crossing_pairs(
    reports: Sequence[ChordReport],
) -> tuple[tuple[ChordReport, ChordReport], ...]:
    """The odd-chord crossing scan: every pair of odd chords that cross
    effectively, in report order.  The F4 search and the M2 test read it."""
    odd = [r for r in reports if r.kind == "odd"]
    return tuple(
        (r1, r2)
        for r1, r2 in combinations(odd, 2)
        if cross_effectively(r1.positions[0], r2.positions[0])
    )


@dataclass(frozen=True)
class F4Record:
    """A 4-cycle made of two same-parity walk edges and two crossing odd chords.

    Removing the two walk edges splits the walk into two arcs; ``sides``
    holds the vertex sets of those arcs, which every vertex of the walk falls
    into (cut vertices cannot occur here, so the sides are disjoint).
    """

    walk_edges: tuple[int, int]
    walk_edge_positions: tuple[int, int]
    chords: tuple[int, int]
    sides: tuple[tuple[int, ...], tuple[int, ...]]


def _single_position(
    graph: Graph, walk: ClosedEvenWalk, edge: int, stage: str
) -> int:
    occ = walk.edge_occurrences[edge]
    if len(occ) != 1:
        raise _not_once(graph, edge, len(occ), stage)
    return occ[0]


def _not_once(graph: Graph, edge: int, found: int, stage: str) -> InternalInvariantError:
    return InternalInvariantError(
        f"{stage} of graph {graph.digest()}: walk edge index {edge} "
        f"expected once in a cyclic block, found {found}"
    )


def cyclic_parities(
    graph: Graph, walk: ClosedEvenWalk, dec: BlockDecomposition
) -> tuple[tuple[int, dict[int, int]], ...]:
    """The cyclic-parity table: each cyclic block with the position parity
    of each of its edges.  The mixed test and the sink search read it.

    A cycle edge of a primitive walk is traversed once; any other count is a
    breach.
    """
    occurrences = walk.edge_occurrences
    out = []
    for bi in dec.cyclic_blocks:
        parity = {}
        for e in dec.blocks[bi]:
            occ = occurrences[e]
            if len(occ) != 1:
                raise _not_once(graph, e, len(occ), "cyclic parity table")
            parity[e] = occ[0] & 1
        out.append((bi, parity))
    return tuple(out)


def find_F4s(
    graph: Graph,
    walk: ClosedEvenWalk,
    crossings: Sequence[tuple[ChordReport, ChordReport]],
) -> tuple[F4Record, ...]:
    """All 4-cycles (e, f, e', f') with walk edges e, e' and crossing odd chords f, f'.

    ``crossings`` is the walk's odd-chord crossing scan.  Both ways of
    completing a crossing pair by walk edges are reported when they exist;
    the walk is cyclic, so neither completion is preferred.
    """
    on_walk = walk.edge_occurrences
    vertices = walk.vertices
    records = []
    for r1, r2 in crossings:
        s1, j1 = r1.positions[0]
        s2, j2 = r2.positions[0]
        a, b = vertices[s1 - 1], vertices[j1 - 1]
        c, d = vertices[s2 - 1], vertices[j2 - 1]
        for x1, y1, x2, y2 in ((a, c, b, d), (a, d, b, c)):
            e1 = graph.edge_between(x1, y1)
            e2 = graph.edge_between(x2, y2)
            if e1 is None or e2 is None or e1 not in on_walk or e2 not in on_walk:
                continue
            p1 = _single_position(graph, walk, e1, "F4 search")
            p2 = _single_position(graph, walk, e2, "F4 search")
            if (p1 - p2) % 2 != 0:
                raise InternalInvariantError(
                    f"F4 search of graph {graph.digest()}: F4 walk edges "
                    "landed on positions of different parity"
                )
            lo, hi = min(p1, p2), max(p1, p2)
            side1 = tuple(sorted(set(vertices[lo:hi])))
            side2 = tuple(sorted(set(vertices[hi:] + vertices[:lo])))
            records.append(
                F4Record(
                    walk_edges=(walk.edges[lo - 1], walk.edges[hi - 1]),
                    walk_edge_positions=(lo, hi),
                    chords=(r1.chord, r2.chord),
                    sides=(side1, side2),
                )
            )
    return tuple(records)


def chord_crosses_F4(graph: Graph, report: ChordReport, record: F4Record) -> bool:
    """Whether an odd chord has one endpoint on each side of the F4 split.

    Both endpoints lie on the walk and the sides split its vertices, so
    that is: exactly one endpoint on the first side.
    """
    if report.kind != "odd":
        return False
    if report.chord in record.chords:
        return False
    a, b = graph.edges[report.chord]
    first = record.sides[0]
    return (a in first) != (b in first)


@dataclass(frozen=True)
class SinkReport:
    """Sinks of each cyclic block and the resulting strong primitivity verdict.

    A sink is a vertex where two walk edges of the same block meet with equal
    position parity. The walk is strongly primitive when no cyclic block has
    two sinks joined by a block edge.
    """

    sinks: tuple[tuple[int, ...], ...]
    strongly_primitive: bool


def sinks_and_strong_primitivity(
    graph: Graph,
    dec: BlockDecomposition,
    parities: Sequence[tuple[int, dict[int, int]]],
) -> SinkReport:
    """Sinks of the walk read off its cyclic-parity table ``parities``;
    ``dec`` is the walk's block tree."""
    ends = graph.edges
    sinks = []
    strongly = True
    for bi, parity in parities:
        meeting: dict[int, list[int]] = {}  # vertex -> parities of its block edges
        for e, p in parity.items():
            u, w = ends[e]
            meeting.setdefault(u, []).append(p)
            meeting.setdefault(w, []).append(p)
        block_sinks = set()
        for v in dec.block_vertices[bi]:
            met = meeting.get(v, ())
            if len(met) != 2:
                raise InternalInvariantError(
                    f"sink search of graph {graph.digest()}: vertex "
                    f"{graph.labels[v]} has {len(met)} edges in a cyclic block"
                )
            if met[0] == met[1]:
                block_sinks.add(v)
        if len(block_sinks) > 1 and any(
            ends[e][0] in block_sinks and ends[e][1] in block_sinks for e in parity
        ):
            strongly = False
        sinks.append(tuple(sorted(block_sinks)))
    return SinkReport(tuple(sinks), strongly)


def is_mixed(parities: Sequence[tuple[int, dict[int, int]]]) -> bool:
    """Whether no cyclic block is pure, i.e. none sits entirely in one class;
    ``parities`` is the walk's cyclic-parity table."""
    return all(0 < sum(parity.values()) < len(parity) for _, parity in parities)


def uncompleted_crossing(
    crossings: Sequence[tuple[ChordReport, ChordReport]],
    records: Sequence[F4Record],
) -> tuple[ChordReport, ChordReport] | None:
    """First effectively crossing pair of odd chords, from the walk's
    crossing scan, that no F4 completes."""
    completed = {rec.chords for rec in records}
    for r1, r2 in crossings:
        if (r1.chord, r2.chord) not in completed:
            return r1, r2
    return None


def minimality_failures(
    graph: Graph,
    dec: BlockDecomposition,
    parities: Sequence[tuple[int, dict[int, int]]],
    reports: Sequence[ChordReport],
    crossings: Sequence[tuple[ChordReport, ChordReport]],
    records: Sequence[F4Record],
) -> tuple[str, ...]:
    """Chord conditions the walk violates, as sorted codes among M1..M4.

    M1: every chord is odd. M2: odd chords crossing effectively must form an
    F4. M3: no odd chord crosses an F4. M4: the walk is strongly primitive.
    An empty result certifies membership in the universal Markov basis.
    ``dec``, ``parities``, ``reports``, ``crossings`` and ``records`` are
    the walk's block tree, cyclic-parity table, chord reports, odd-chord
    crossing scan and F4s, worked out once by the caller.
    """
    failures = set()
    if any(r.kind != "odd" for r in reports):
        failures.add("M1")
    if uncompleted_crossing(crossings, records) is not None:
        failures.add("M2")
    if records:
        odd = [r for r in reports if r.kind == "odd"]
        if any(chord_crosses_F4(graph, r, rec) for rec in records for r in odd):
            failures.add("M3")
    if not sinks_and_strong_primitivity(graph, dec, parities).strongly_primitive:
        failures.add("M4")
    return tuple(sorted(failures))


@dataclass(frozen=True)
class PrimitivityCheck:
    """Verdict of the primitive test; an accepted subset carries its block tree."""

    ok: bool
    reason: str
    decomposition: BlockDecomposition | None = None


def is_primitive_subgraph(graph: Graph, edge_subset: Sequence[int]) -> PrimitivityCheck:
    """Decide whether the connected subgraph is the graph of a primitive walk.

    Accepted shapes: a single even cycle, or a block tree in which every
    block is a cycle or a cut edge, every cut vertex lies in exactly two
    blocks, and at each cut vertex both sides carry an odd total of
    cycle-block edges. Connectivity is left to the block search, which
    raises DisconnectedGraphError on a disconnected subset; a subset with a
    pendant vertex is rejected before that search, connected or not.

    This is the test for an arbitrary edge subset.  The enumeration does
    not call it: ``graphs.primitive_block_trees`` decides the same rule on
    the trees it grows and hands over their block trees.
    """
    edges = sorted(set(edge_subset))
    degrees = subset_degrees(graph, edges)
    pendant = sorted(v for v, d in degrees.items() if d == 1)
    if pendant:
        return PrimitivityCheck(False, f"pendant vertex {graph.labels[pendant[0]]}")
    dec = block_decomposition(graph, edges)
    if len(dec.blocks) == 1:
        if not dec.is_cyclic(0):
            return PrimitivityCheck(False, "biconnected but not a cycle")
        if len(edges) % 2:
            return PrimitivityCheck(False, "odd cycle")
        return PrimitivityCheck(True, "even cycle", dec)
    for bi in range(len(dec.blocks)):
        if not (dec.is_cut_edge(bi) or dec.is_cyclic(bi)):
            return PrimitivityCheck(
                False, f"block {list(dec.blocks[bi])} is 2-connected but not a cycle"
            )
    for v in dec.cut_vertices:
        if len(dec.blocks_of_vertex[v]) != 2:
            return PrimitivityCheck(
                False,
                f"cut vertex {graph.labels[v]} lies in "
                f"{len(dec.blocks_of_vertex[v])} blocks",
            )
    cut = set(dec.cut_vertices)
    for v in dec.cut_vertices:
        for side in _sides_at_cut_vertex(dec, v, cut):
            cyclic_total = sum(
                len(dec.blocks[bi]) for bi in side if dec.is_cyclic(bi)
            )
            if cyclic_total % 2 == 0:
                return PrimitivityCheck(
                    False,
                    f"cut vertex {graph.labels[v]} has a side with an even "
                    f"cycle-edge total ({cyclic_total})",
                )
    return PrimitivityCheck(True, "cycle/cut-edge block tree with odd sides", dec)


def _sides_at_cut_vertex(
    dec: BlockDecomposition, v: int, cut: set[int]
) -> list[set[int]]:
    """Split the block tree at cut vertex v into the block sets on each side;
    ``cut`` is the set of ``dec``'s cut vertices."""
    sides = []
    for seed in dec.blocks_of_vertex[v]:
        seen = {seed}
        stack = [seed]
        while stack:
            bi = stack.pop()
            for w in dec.block_vertices[bi]:
                if w == v or w not in cut:
                    continue
                for nb in dec.blocks_of_vertex[w]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
        sides.append(seen)
    return sides


def walk_from_primitive_subgraph(
    graph: Graph, dec: BlockDecomposition
) -> ClosedEvenWalk:
    """Reconstruct the closed even walk of a primitive subgraph from its block
    tree ``dec``, the decomposition of a passing ``is_primitive_subgraph``
    verdict.

    Each cyclic block is put in walk order by stepping around it from its
    least vertex, and the tour of ``_tour`` follows; the walk is the one
    ``primitive_walk`` finds for the same edge set.
    """
    ends = graph.edges
    blocks = []
    for block in dec.blocks:
        if len(block) == 1:  # a cut edge
            blocks.append((ends[block[0]], block * 2))
            continue
        around: dict[int, list[tuple[int, int]]] = {}  # vertex -> (neighbour, edge)
        for e in block:
            u, w = ends[e]
            around.setdefault(u, []).append((w, e))
            around.setdefault(w, []).append((u, e))
        start = prev = min(around)
        cur, e = min(around[start])
        verts, edges = [start], [e]
        while cur != start:
            pairs = around[cur]
            if len(pairs) != 2:
                raise InternalInvariantError(
                    f"walk reconstruction of graph {graph.digest()}: cyclic "
                    "block is not a simple cycle"
                )
            (a, ea), (b, eb) = pairs
            if a == prev:
                a, ea = b, eb
            verts.append(cur)
            edges.append(ea)
            prev, cur = cur, a
        blocks.append((tuple(verts), tuple(edges)))
    return _tour(graph, blocks, _blocks_at(blocks))


def _blocks_at(blocks: Sequence[Block]) -> dict[int, list[Block]]:
    """The blocks through each vertex, in block order; a cut vertex has two."""
    at: dict[int, list[Block]] = {}
    for block in blocks:
        for v in block[0]:
            if v in at:
                at[v].append(block)
            else:
                at[v] = [block]
    return at


def _around(block: Block, entry: int):
    """One tour of ``block`` from ``entry``, as (edge, vertex reached)
    steps, first toward the smaller of the entry's two neighbours."""
    verts, edges = block
    i = verts.index(entry)
    if verts[i - 1] < verts[(i + 1) % len(verts)]:
        return zip(edges[:i][::-1] + edges[i:][::-1], verts[:i][::-1] + verts[i:][::-1])
    return zip(edges[i:] + edges[:i], verts[i + 1:] + verts[:i + 1])


def _tour(
    graph: Graph, blocks: Sequence[Block], at: dict[int, list[Block]]
) -> ClosedEvenWalk:
    """The closed even walk of a primitive walk's blocks, in walk order, with
    ``at`` the blocks through each vertex.

    The block tree is toured depth first from the block holding the smallest
    edge, entered at its least vertex: each block is stepped around once by
    ``_around``, with the other block at each cut vertex it reaches toured
    inline, so each cycle edge appears once and each cut edge twice.  A lone
    cycle is its own tour.  The tour keeps an explicit stack of blocks, so a
    deep block tree costs no interpreter depth.
    """
    if len(blocks) == 1:
        verts, edges = blocks[0]
        return make_walk(graph, edges, verts)
    # Each step's edge is followed by the tour of whatever hangs at the
    # vertex it reaches: the other block there, if that vertex is a cut
    # vertex and the step does not lead back to its own block's entry.  The
    # root block has no parent, so what hangs at its entry comes last.
    root = min(blocks, key=lambda block: min(block[1]))
    entry = min(root[0])
    seq: list[int] = []
    reached: list[int] = []
    frames = [(root, entry, _around(root, entry))]
    while frames:
        block, block_entry, tour = frames[-1]
        for e, v in tour:
            seq.append(e)
            reached.append(v)
            hung = at[v]
            if len(hung) > 1 and (v != block_entry or block is root):
                nb = hung[1] if hung[0] is block else hung[0]
                frames.append((nb, v, _around(nb, v)))
                break
        else:
            frames.pop()

    if reached[-1] != entry:
        raise InternalInvariantError(
            f"walk reconstruction of graph {graph.digest()}: block tour did "
            "not close up"
        )
    return make_walk(graph, seq, [entry, *reached[:-1]])


@dataclass(frozen=True)
class PrimitiveElement:
    """One primitive walk with its binomial and classification tags.

    ``chords``, ``crossings`` and ``f4s`` are the walk's chord reports,
    odd-chord crossing scan and F4s, and ``shape`` its circuit shape (None
    for a walk that is no circuit), worked out once by ``primitive_walk``
    for every later reader.
    """

    subset: tuple[int, ...]
    walk: ClosedEvenWalk
    binomial: Binomial
    mixed: bool
    minimality_failures: tuple[str, ...]
    chords: tuple[ChordReport, ...] = field(repr=False, compare=False)
    crossings: tuple[tuple[ChordReport, ChordReport], ...] = field(
        repr=False, compare=False
    )
    f4s: tuple[F4Record, ...] = field(repr=False, compare=False)
    shape: str | None = field(repr=False, compare=False)

    @property
    def minimal(self) -> bool:
        return not self.minimality_failures


def primitive_walk(
    graph: Graph, subset: tuple[int, ...], blocks: Sequence[Block]
) -> PrimitiveElement:
    """The element of a primitive walk, every fact of it in one pass.

    ``subset`` and ``blocks`` are the walk's sorted edge tuple and its
    blocks in walk order, as ``graphs.primitive_block_trees`` lists them.
    One map of the blocks through each vertex serves the tour and the
    bridge test; the chords, the crossing scan, the cyclic-parity table
    with the mixed test and the sink search, and the codes are worked out
    here, as by ``classify_chords``, ``crossing_pairs``,
    ``cyclic_parities``, ``is_mixed``, ``sinks_and_strong_primitivity`` and
    ``minimality_failures``, with every check they make.  The F4 search,
    M2 and M3 call ``find_F4s``, ``uncompleted_crossing`` and
    ``chord_crosses_F4``.

    The circuits of a graph are its even cycles and its pairs of odd
    cycles, meeting in one vertex or vertex-disjoint and joined by a path
    whose edges enter squared.  The loop over the cyclic blocks counts them
    for the shape: a lone block is an even cycle, two cyclic blocks alone
    share a vertex, and two with cut edges are path-joined; a walk with
    three or more cyclic blocks is no circuit.
    """
    at = _blocks_at(blocks)
    walk = _tour(graph, blocks, at)
    ends = graph.edges
    positions = walk.vertex_positions
    on_walk = walk.edge_occurrences

    # the chord reports; a chord is a bridge unless both ends lie in one
    # block and in no other
    chords = []
    odd = []
    for f, (a, b) in enumerate(ends):
        if f in on_walk or a not in positions or b not in positions:
            continue
        pos_a, pos_b = positions[a], positions[b]
        if len(pos_a) == 1 == len(pos_b):
            i, j = pos_a[0], pos_b[0]
            pairs = ((i, j),) if i < j else ((j, i),)
        else:
            pairs = tuple([(i, j) if i < j else (j, i) for i in pos_a for j in pos_b])
        blocks_a = at[a]
        if len(blocks_a) > 1 or blocks_a != at[b]:
            chords.append(ChordReport(f, "bridge", pairs))
            continue
        s, t = pairs[0]
        if len(pairs) > 1 and len({(t - s) % 2 for s, t in pairs}) != 1:
            raise ChordClassificationError(
                f"chord classification of graph {graph.digest()}: chord "
                f"{graph.edge_label(f)} has occurrence pairs of mixed parity"
            )
        if (t - s) % 2:
            chords.append(ChordReport(f, "even", pairs))
        else:
            report = ChordReport(f, "odd", pairs)
            chords.append(report)
            odd.append(report)

    # the odd-chord crossing scan, as by cross_effectively
    crossings = []
    for k, r1 in enumerate(odd):
        s, j = r1.positions[0]
        for r2 in odd[k + 1:]:
            s2, j2 = r2.positions[0]
            if (s2 - s) % 2 == 1 and (s < s2 < j < j2 or s2 < s < j2 < j):
                crossings.append((r1, r2))

    f4s = find_F4s(graph, walk, crossings)

    # the cyclic-parity table, read by the mixed test and the sink search
    mixed = strongly = True
    cyclic = 0
    for verts, edges in blocks:
        if len(edges) < 3:  # a cut edge
            continue
        cyclic += 1
        ones = 0
        meeting: dict[int, list[int]] = {}  # vertex -> parities of its block edges
        for e in edges:
            occ = on_walk[e]
            if len(occ) != 1:
                raise _not_once(graph, e, len(occ), "cyclic parity table")
            p = occ[0] & 1
            ones += p
            for v in ends[e]:
                if v in meeting:
                    meeting[v].append(p)
                else:
                    meeting[v] = [p]
        mixed = mixed and 0 < ones < len(edges)
        sinks = set()
        for v in verts:
            met = meeting.get(v, ())
            if len(met) != 2:
                raise InternalInvariantError(
                    f"sink search of graph {graph.digest()}: vertex "
                    f"{graph.labels[v]} has {len(met)} edges in a cyclic block"
                )
            if met[0] == met[1]:
                sinks.add(v)
        if len(sinks) > 1 and any(
            ends[e][0] in sinks and ends[e][1] in sinks for e in edges
        ):
            strongly = False

    # the minimality codes, as by minimality_failures
    failures = []
    if len(odd) != len(chords):
        failures.append("M1")
    if uncompleted_crossing(crossings, f4s) is not None:
        failures.append("M2")
    if f4s and any(chord_crosses_F4(graph, r, rec) for rec in f4s for r in odd):
        failures.append("M3")
    if not strongly:
        failures.append("M4")
    if len(blocks) == 1:
        shape = "even-cycle"
    elif cyclic == 2:
        shape = "shared-vertex" if len(blocks) == 2 else "path-joined"
    else:
        shape = None
    return PrimitiveElement(
        subset,
        walk,
        walk_binomial(graph, walk),
        mixed,
        tuple(failures),
        tuple(chords),
        tuple(crossings),
        f4s,
        shape,
    )
