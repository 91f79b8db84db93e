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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .binomials import Binomial, make_binomial
from .errors import InternalInvariantError
from .graphs import (
    BlockDecomposition,
    Graph,
    block_decomposition,
    degree_of,
    subset_degrees,
)


class WalkError(ValueError):
    pass


class NotPrimitiveError(WalkError):
    """Raised when a walk reconstruction is requested for a non-primitive subset."""


class ChordClassificationError(InternalInvariantError):
    """Occurrence pairs of a non-bridge chord disagreed on parity."""


@dataclass(frozen=True)
class ClosedEvenWalk:
    """Closed even walk stored in canonical form.

    ``edges[k]`` joins ``vertices[k]`` and ``vertices[(k+1) % length]``. The
    stored representative is the lexicographically least edge sequence over
    all rotations and reflections.
    """

    edges: tuple[int, ...]
    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edges)

    @cached_property
    def vertex_positions(self) -> dict[int, tuple[int, ...]]:
        """1-based walk positions of each vertex."""
        out: dict[int, list[int]] = {}
        for k, v in enumerate(self.vertices):
            out.setdefault(v, []).append(k + 1)
        return {v: tuple(ps) for v, ps in out.items()}

    @cached_property
    def edge_occurrences(self) -> dict[int, tuple[int, ...]]:
        """1-based walk positions of each edge."""
        out: dict[int, list[int]] = {}
        for k, e in enumerate(self.edges):
            out.setdefault(e, []).append(k + 1)
        return {e: tuple(ps) for e, ps in out.items()}

    def to_json(self) -> dict:
        return {
            "edges": [e + 1 for e in self.edges],
            "vertices": [v + 1 for v in self.vertices],
        }


def _canonicalize(
    edges: Sequence[int], vertices: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Least edge tuple over rotations and reflections, vertices kept aligned."""
    L = len(edges)
    e = tuple(edges)
    v = tuple(vertices)
    e_ref = tuple(reversed(e))
    v_ref = (v[0],) + tuple(reversed(v[1:]))
    best: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    for seq_e, seq_v in ((e, v), (e_ref, v_ref)):
        for r in range(L):
            cand = (seq_e[r:] + seq_e[:r], seq_v[r:] + seq_v[:r])
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def make_walk(graph: Graph, edges: Sequence[int], vertices: Sequence[int]) -> ClosedEvenWalk:
    """Validate and canonicalize a closed even walk.

    Requires even length at least 4, consecutive edges matching the vertex
    sequence, and no edge traversed more than twice.
    """
    edges = tuple(int(e) for e in edges)
    vertices = tuple(int(v) for v in vertices)
    L = len(edges)
    if L != len(vertices):
        raise WalkError("edge and vertex sequences differ in length")
    if L < 4 or L % 2 != 0:
        raise WalkError(f"walk length {L} is not an even number >= 4")
    counts: dict[int, int] = {}
    for k in range(L):
        e = edges[k]
        if not 0 <= e < len(graph.edges):
            raise WalkError(f"edge index {e} out of range")
        a, b = graph.edges[e]
        if {a, b} != {vertices[k], vertices[(k + 1) % L]}:
            raise WalkError(f"edge at position {k + 1} does not join its walk vertices")
        counts[e] = counts.get(e, 0) + 1
        if counts[e] > 2:
            raise WalkError(f"edge index {e} traversed more than twice")
    ce, cv = _canonicalize(edges, vertices)
    return ClosedEvenWalk(ce, cv)


def walk_binomial(graph: Graph, walk: ClosedEvenWalk) -> Binomial:
    """Binomial of the walk: odd positions minus even positions.

    Raises NonCoprimeError when some edge lands in both classes; such a walk
    does not produce a usable relation and the failure is reported rather
    than repaired.
    """
    m = len(graph.edges)
    plus = [0] * m
    minus = [0] * m
    for k, e in enumerate(walk.edges):
        if k % 2 == 0:
            plus[e] += 1
        else:
            minus[e] += 1
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


def chords_of(graph: Graph, walk: ClosedEvenWalk) -> list[int]:
    on_walk = set(walk.edges)
    verts = set(walk.vertices)
    return [
        i
        for i, (u, v) in enumerate(graph.edges)
        if i not in on_walk and u in verts and v in verts
    ]


def classify_chords(
    graph: Graph, walk: ClosedEvenWalk, dec: BlockDecomposition
) -> list[ChordReport]:
    """Classify every chord of the walk as bridge, even, or odd.

    Parity is computed for every occurrence pair of the endpoints and must
    agree; disagreement raises ChordClassificationError. With bridges split
    off first this cannot trigger on a primitive walk, where non-bridge
    endpoints occur exactly once, but the diagnostic is kept as a guard.
    """
    cut = set(dec.cut_vertices)
    reports = []
    for f in chords_of(graph, walk):
        a, b = graph.edges[f]
        occ_a = walk.vertex_positions[a]
        occ_b = walk.vertex_positions[b]
        pairs = tuple(
            (min(i, j), max(i, j)) for i in occ_a for j in occ_b
        )
        if a in cut or b in cut or dec.blocks_of_vertex[a] != dec.blocks_of_vertex[b]:
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
    return reports


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
        raise InternalInvariantError(
            f"{stage} of graph {graph.digest()}: walk edge index {edge} "
            f"expected once in a cyclic block, found {len(occ)}"
        )
    return occ[0]


def find_F4s(
    graph: Graph, walk: ClosedEvenWalk, reports: Sequence[ChordReport]
) -> list[F4Record]:
    """All 4-cycles (e, f, e', f') with walk edges e, e' and crossing odd chords f, f'.

    Both ways of completing a crossing pair by walk edges are reported when
    they exist; the walk is cyclic, so neither completion is preferred.
    """
    odd = [r for r in reports if r.kind == "odd"]
    on_walk = set(walk.edges)
    records = []
    for r1, r2 in combinations(odd, 2):
        if not cross_effectively(r1.span, r2.span):
            continue
        s1, j1 = r1.span
        s2, j2 = r2.span
        a, b = walk.vertices[s1 - 1], walk.vertices[j1 - 1]
        c, d = walk.vertices[s2 - 1], walk.vertices[j2 - 1]
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
            L = walk.length
            side1 = tuple(sorted({walk.vertices[k % L] for k in range(lo, hi)}))
            side2 = tuple(sorted({walk.vertices[k % L] for k in range(hi, lo + L)}))
            records.append(
                F4Record(
                    walk_edges=(walk.edges[lo - 1], walk.edges[hi - 1]),
                    walk_edge_positions=(lo, hi),
                    chords=(r1.chord, r2.chord),
                    sides=(side1, side2),
                )
            )
    return records


def chord_crosses_F4(graph: Graph, report: ChordReport, record: F4Record) -> bool:
    """Whether an odd chord has one endpoint on each side of the F4 split."""
    if report.kind != "odd":
        return False
    if report.chord in record.chords:
        return False
    a, b = graph.edges[report.chord]
    s1, s2 = set(record.sides[0]), set(record.sides[1])
    return (a in s1 and b in s2) or (a in s2 and b in s1)


@dataclass(frozen=True)
class SinkReport:
    """Sinks of each cyclic block and the resulting strong primitivity verdict.

    A sink is a vertex where two walk edges of the same block meet with equal
    position parity. The walk is strongly primitive when no cyclic block has
    two sinks joined by a block edge.
    """

    cyclic_blocks: tuple[tuple[int, ...], ...]
    sinks: tuple[tuple[int, ...], ...]
    strongly_primitive: bool


def sinks_and_strong_primitivity(
    graph: Graph, walk: ClosedEvenWalk, dec: BlockDecomposition
) -> SinkReport:
    blocks = []
    sinks = []
    strongly = True
    for bi in dec.cyclic_blocks():
        block_edges = dec.blocks[bi]
        edge_set = set(block_edges)
        block_sinks = []
        for v in dec.block_vertices[bi]:
            incident = [
                ei for _, ei in graph.adjacency[v] if ei in edge_set
            ]
            if len(incident) != 2:
                raise InternalInvariantError(
                    f"sink search of graph {graph.digest()}: vertex "
                    f"{graph.labels[v]} has {len(incident)} edges in a cyclic block"
                )
            parities = [
                _single_position(graph, walk, ei, "sink search") % 2 for ei in incident
            ]
            if parities[0] == parities[1]:
                block_sinks.append(v)
        for u, w in combinations(block_sinks, 2):
            e = graph.edge_between(u, w)
            if e is not None and e in edge_set:
                strongly = False
        blocks.append(block_edges)
        sinks.append(tuple(sorted(block_sinks)))
    return SinkReport(tuple(blocks), tuple(sinks), strongly)


def is_mixed(
    graph: Graph, walk: ClosedEvenWalk, dec: BlockDecomposition
) -> bool:
    """Whether no cyclic block is pure, i.e. none sits entirely in one class."""
    for bi in dec.cyclic_blocks():
        classes = {
            _single_position(graph, walk, e, "mixed test") % 2 for e in dec.blocks[bi]
        }
        if len(classes) == 1:
            return False
    return True


def uncompleted_crossing(
    reports: Sequence[ChordReport], records: Sequence[F4Record]
) -> tuple[ChordReport, ChordReport] | None:
    """First pair of effectively crossing odd chords that no F4 completes."""
    completed = {frozenset(rec.chords) for rec in records}
    odd = [r for r in reports if r.kind == "odd"]
    for r1, r2 in combinations(odd, 2):
        if cross_effectively(r1.span, r2.span):
            if frozenset((r1.chord, r2.chord)) not in completed:
                return r1, r2
    return None


def minimality_failures(
    graph: Graph,
    walk: ClosedEvenWalk,
    dec: BlockDecomposition,
    reports: Sequence[ChordReport],
    records: Sequence[F4Record],
) -> tuple[str, ...]:
    """Chord conditions the walk violates, as sorted codes among M1..M4.

    M1: every chord is odd. M2: odd chords crossing effectively must form an
    F4. M3: no odd chord crosses an F4. M4: the walk is strongly primitive.
    An empty result certifies membership in the universal Markov basis.
    ``dec``, ``reports`` and ``records`` are the walk's block tree, chord
    reports and F4s, worked out once by the caller.
    """
    failures = set()
    if any(r.kind != "odd" for r in reports):
        failures.add("M1")
    odd = [r for r in reports if r.kind == "odd"]
    if uncompleted_crossing(reports, records) is not None:
        failures.add("M2")
    for rec in records:
        if any(chord_crosses_F4(graph, r, rec) for r in odd):
            failures.add("M3")
            break
    if not sinks_and_strong_primitivity(graph, walk, dec).strongly_primitive:
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
    for v in dec.cut_vertices:
        for side in _sides_at_cut_vertex(dec, v):
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


def _sides_at_cut_vertex(dec: BlockDecomposition, v: int) -> list[set[int]]:
    """Split the block tree at cut vertex v into the block sets on each side."""
    sides = []
    for seed in dec.blocks_of_vertex[v]:
        seen = {seed}
        stack = [seed]
        while stack:
            bi = stack.pop()
            for w in dec.block_vertices[bi]:
                if w == v or w not in dec.cut_vertices:
                    continue
                for nb in dec.blocks_of_vertex[w]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
        sides.append(seen)
    return sides


def walk_from_primitive_subgraph(
    graph: Graph,
    edge_subset: Sequence[int],
    check: PrimitivityCheck,
    _reverse_ties: bool = False,
) -> ClosedEvenWalk:
    """Reconstruct the closed even walk whose subgraph is the given subset.

    The block tree is toured depth first from the block holding the smallest
    edge: cycle blocks are traversed once around with branches visited inline
    at their cut vertices, cut edges are crossed on the way out and back.
    Each cycle edge appears once and each cut edge twice. The tie-break knob
    flips the traversal direction inside cycle blocks; the resulting binomial
    must not depend on it. ``check`` is ``is_primitive_subgraph``'s verdict
    on this same subset.
    """
    if not check.ok:
        raise NotPrimitiveError(check.reason)
    dec = check.decomposition
    cut = set(dec.cut_vertices)
    pick = max if _reverse_ties else min

    def other_block_at(v: int, current: int) -> int:
        bs = dec.blocks_of_vertex[v]
        return bs[0] if bs[1] == current else bs[1]

    def tour_hanging(v: int, current: int) -> list[int]:
        if v in cut:
            return tour_block(other_block_at(v, current), v)
        return []

    def tour_block(bi: int, entry: int) -> list[int]:
        block = dec.blocks[bi]
        if dec.is_cut_edge(bi):
            e = block[0]
            u, w = graph.edges[e]
            far = w if u == entry else u
            return [e] + tour_hanging(far, bi) + [e]
        edge_set = set(block)
        neighbors = sorted(
            w for w, ei in graph.adjacency[entry] if ei in edge_set
        )
        order = [entry, pick(neighbors)]
        while True:
            prev, cur = order[-2], order[-1]
            nxt = [
                w
                for w, ei in graph.adjacency[cur]
                if ei in edge_set and w != prev
            ]
            if len(nxt) != 1:
                raise InternalInvariantError(
                    f"walk reconstruction of graph {graph.digest()}: cyclic "
                    "block is not a simple cycle"
                )
            if nxt[0] == entry:
                break
            order.append(nxt[0])
        seq: list[int] = []
        L = len(order)
        for k in range(L):
            a, b = order[k], order[(k + 1) % L]
            e = graph.edge_between(a, b)
            assert e is not None
            seq.append(e)
            if b != entry:
                seq.extend(tour_hanging(b, bi))
        return seq

    root = 0  # blocks are sorted by smallest edge, so block 0 holds it
    entry = min(dec.block_vertices[root])
    seq = tour_block(root, entry) + tour_hanging(entry, root)

    vseq = [entry]
    for e in seq[:-1]:
        u, w = graph.edges[e]
        vseq.append(w if vseq[-1] == u else u)
    u, w = graph.edges[seq[-1]]
    if vseq[0] not in (u, w):
        raise InternalInvariantError(
            f"walk reconstruction of graph {graph.digest()}: block tour did "
            "not close up"
        )
    return make_walk(graph, seq, vseq)
