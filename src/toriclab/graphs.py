"""Connected simple graphs with indexed edges.

Vertices are dense 0-based integers internally; the original input labels are
kept for rendering. Edge index i refers to the i-th input edge and doubles as
the variable index of the edge ring K[e1, ..., em], so every exponent vector
in this package is a length-m tuple aligned with ``Graph.edges``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterator, Sequence

from .errors import read_named


class GraphError(ValueError):
    """Malformed or unsupported graph input."""


class EmptyGraphError(GraphError):
    pass


class LoopEdgeError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class DisconnectedGraphError(GraphError):
    pass


# Longest excerpt of an input line or entry that an error message echoes.
_ECHO_CHARS = 80


def _excerpt(text: str) -> str:
    """``text`` cut to ``_ECHO_CHARS`` characters, ending in an ellipsis if cut."""
    if len(text) <= _ECHO_CHARS:
        return text
    return text[:_ECHO_CHARS - 1] + "…"


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected connected graph.

    ``edges[i]`` is a normalized pair (u, v) with u < v. ``labels[v]`` is the
    original name of vertex v, used only when rendering output.  The pass
    that validates the edges also builds ``edge_index`` and ``adjacency``.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] = ()
    # For each vertex, its sorted (neighbour, edge index) pairs.
    adjacency: tuple[tuple[tuple[int, int], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    # The index of each edge, keyed by its normalized pair.
    edge_index: dict[tuple[int, int], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.vertex_count <= 0:
            raise EmptyGraphError("graph needs at least one vertex")
        if not self.edges:
            raise EmptyGraphError("graph has no edges")
        # Checked before anything is built per vertex, so the cost of a
        # rejected graph does not grow with its claimed vertex count.
        if self.vertex_count > len(self.edges) + 1:
            raise DisconnectedGraphError(
                f"graph is disconnected; {len(self.edges)} edges cannot "
                f"connect {self.vertex_count} vertices"
            )
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(str(v + 1) for v in range(self.vertex_count))
            )
        if len(self.labels) != self.vertex_count:
            raise GraphError("label count does not match vertex count")
        index: dict[tuple[int, int], int] = {}
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise GraphError(f"edge ({u}, {v}) outside vertex range")
            if u == v:
                raise LoopEdgeError(f"loop at vertex {self.labels[u]}")
            key = (min(u, v), max(u, v))
            if key in index:
                raise DuplicateEdgeError(
                    f"duplicate edge {{{self.labels[key[0]]}, {self.labels[key[1]]}}}"
                )
            index[key] = i
            adj[u].append((v, i))
            adj[v].append((u, i))
        object.__setattr__(self, "edges", tuple(index))
        object.__setattr__(self, "edge_index", index)
        adjacency = tuple(tuple(sorted(a)) for a in adj)
        object.__setattr__(self, "adjacency", adjacency)
        reached = [False] * self.vertex_count
        reached[0] = True
        stack = [0]
        while stack:
            for w, _ in adjacency[stack.pop()]:
                if not reached[w]:
                    reached[w] = True
                    stack.append(w)
        if not all(reached):
            missing = [v for v in range(self.vertex_count) if not reached[v]]
            raise DisconnectedGraphError(
                f"graph is disconnected; vertices {[self.labels[v] for v in missing]} "
                "are not reachable from the first vertex"
            )

    def edge_between(self, u: int, v: int) -> int | None:
        """Index of the edge {u, v}, or None."""
        return self.edge_index.get((min(u, v), max(u, v)))

    def edge_label(self, i: int) -> str:
        u, v = self.edges[i]
        return f"{{{self.labels[u]}, {self.labels[v]}}}"

    def digest(self) -> str:
        """Stable short digest of the vertex count and edge list (labels do
        not enter it), hashed once per graph."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        payload = json.dumps(
            {"vertices": self.vertex_count, "edges": list(self.edges)},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def parse_graph(text: str) -> Graph:
    """Parse a graph from edge-list text or a JSON object string.

    Edge-list form: one ``u v`` pair per line; ``#`` starts a comment; blank
    lines are ignored. Labels may be arbitrary tokens and are mapped to dense
    indices (numerically when every label is an integer, else lexically).
    Integer labels of one value, such as ``1`` and ``01``, are ordered by
    their text, so the indices never depend on string hashing.
    JSON form: ``{"vertices": N, "edges": [[u, v], ...]}`` with 1-based labels.
    """
    if text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid JSON graph: {exc}") from exc
        return graph_from_json(obj)
    pairs: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(
                f"line {lineno}: expected 'u v', got {_excerpt(repr(raw.strip()))}"
            )
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise EmptyGraphError("no edges in input")
    names = {tok for pair in pairs for tok in pair}
    if all(re.fullmatch(r"-?[0-9]+", tok) for tok in names):
        ordered = sorted(names, key=lambda tok: (int(tok), tok))
    else:
        ordered = sorted(names)
    index = {tok: i for i, tok in enumerate(ordered)}
    edges = tuple((index[a], index[b]) for a, b in pairs)
    return Graph(len(ordered), edges, tuple(ordered))


def _is_integer(value: object) -> bool:
    """True for a JSON integer; booleans, floats and strings are rejected."""
    return isinstance(value, int) and not isinstance(value, bool)


def graph_from_json(obj: object) -> Graph:
    if not isinstance(obj, dict):
        raise GraphError("JSON graph must be an object")
    n = obj.get("vertices")
    if not _is_integer(n) or "edges" not in obj:
        raise GraphError("JSON graph needs integer 'vertices' and a list 'edges'")
    raw_edges = obj["edges"]
    if not isinstance(raw_edges, list):
        raise GraphError("'edges' must be a list of [u, v] pairs")
    edges = []
    for item in raw_edges:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise GraphError(f"bad edge entry {_excerpt(repr(item))}")
        u, v = item
        if not (_is_integer(u) and _is_integer(v)):
            raise GraphError(
                f"edge labels must be integers, got {_excerpt(repr(item))}"
            )
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphError(f"edge {item!r} outside 1..{n}")
        edges.append((u - 1, v - 1))
    if n <= 0 or not edges:
        raise EmptyGraphError("JSON graph has no vertices or no edges")
    return Graph(n, tuple(edges))


def graph_to_json(graph: Graph) -> dict:
    return {
        "vertices": graph.vertex_count,
        "edges": [[u + 1, v + 1] for u, v in graph.edges],
    }


def load_graph(path: str) -> Graph:
    """The graph in the file; a decode or parse error names the file."""
    return read_named(path, parse_graph, GraphError)


def degree_of(graph: Graph, exponents: Sequence[int]) -> tuple[int, ...]:
    """Incidence degree of a monomial: each edge adds its exponent at both ends."""
    if len(exponents) != len(graph.edges):
        raise ValueError(
            f"exponent vector has length {len(exponents)}, expected {len(graph.edges)}"
        )
    deg = [0] * graph.vertex_count
    for k, (u, v) in zip(exponents, graph.edges):
        if k:
            if k < 0:
                raise ValueError("exponents must be nonnegative")
            deg[u] += k
            deg[v] += k
    return tuple(deg)


def subset_vertices(graph: Graph, edge_subset: Sequence[int]) -> tuple[int, ...]:
    verts = set()
    for i in edge_subset:
        u, v = graph.edges[i]
        verts.add(u)
        verts.add(v)
    return tuple(sorted(verts))


def subset_degrees(graph: Graph, edge_subset: Sequence[int]) -> dict[int, int]:
    deg: dict[int, int] = {}
    for i in edge_subset:
        u, v = graph.edges[i]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (biconnected components) of a connected subgraph.

    ``blocks[i]`` is a sorted tuple of edge indices; blocks are sorted by their
    smallest edge. A block is a *cut edge* when it has a single edge, and
    *cyclic* when it is a cycle (edge count equals vertex count).  The
    blocks of each vertex and the cyclic blocks are worked out on
    construction, once.
    """

    blocks: tuple[tuple[int, ...], ...]
    block_vertices: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    blocks_of_vertex: dict[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )
    cyclic_blocks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        at: dict[int, tuple[int, ...]] = {}
        cyclic = []
        for bi, (edges, verts) in enumerate(zip(self.blocks, self.block_vertices)):
            for v in verts:
                at[v] = at.get(v, ()) + (bi,)
            if len(edges) >= 3 and len(edges) == len(verts):
                cyclic.append(bi)
        object.__setattr__(self, "blocks_of_vertex", at)
        object.__setattr__(self, "cyclic_blocks", tuple(cyclic))

    def is_cut_edge(self, block_index: int) -> bool:
        return len(self.blocks[block_index]) == 1

    def is_cyclic(self, block_index: int) -> bool:
        return block_index in self.cyclic_blocks


def block_decomposition(
    graph: Graph, edge_subset: Sequence[int] | None = None
) -> BlockDecomposition:
    """Hopcroft-Tarjan biconnected components of a connected edge subset.

    Raises DisconnectedGraphError when the subset does not span a connected
    subgraph, and ValueError on an empty subset.
    """
    if edge_subset is None:
        edge_subset = range(len(graph.edges))
    edge_list = sorted(set(edge_subset))
    if not edge_list:
        raise ValueError("empty edge subset")

    adj: dict[int, list[tuple[int, int]]] = {}
    for i in edge_list:
        u, v = graph.edges[i]
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    blocks, cut, reached = _biconnected(adj, min(adj))
    if reached != len(adj):
        raise DisconnectedGraphError("edge subset spans a disconnected subgraph")

    ordered = sorted(tuple(sorted(b)) for b in blocks)
    verts = tuple(subset_vertices(graph, b) for b in ordered)
    return BlockDecomposition(tuple(ordered), verts, tuple(sorted(cut)))


def _biconnected(adj, root: int) -> tuple[list[list[int]], set[int], int]:
    """Hopcroft-Tarjan from ``root`` over ``adj`` (vertex -> (neighbour,
    edge) pairs): the blocks as edge lists, the cut vertices, and the
    number of vertices reached.

    An explicit stack of (vertex, neighbour iterator) frames, so a long path
    of blocks costs no interpreter depth.
    """
    disc = {root: 0}
    low = {root: 0}
    parent_edge: dict[int, int | None] = {root: None}
    stack: list[int] = []
    blocks: list[list[int]] = []
    cut: set[int] = set()
    root_children = 0
    frames = [(root, iter(adj[root]))]
    while frames:
        u, neighbours = frames[-1]
        for w, ei in neighbours:
            if ei == parent_edge[u]:
                continue
            if w not in disc:
                parent_edge[w] = ei
                stack.append(ei)
                disc[w] = low[w] = len(disc)  # discovery order
                root_children += u == root
                frames.append((w, iter(adj[w])))
                break
            if disc[w] < disc[u]:
                stack.append(ei)
                low[u] = min(low[u], disc[w])
        else:
            frames.pop()
            if not frames:
                break
            p = frames[-1][0]
            low[p] = min(low[p], low[u])
            if low[u] >= disc[p]:
                # p closes off a block; pop edges discovered since u's edge
                block = []
                while True:
                    e = stack.pop()
                    block.append(e)
                    if e == parent_edge[u]:
                        break
                blocks.append(block)
                if p != root or root_children > 1:
                    cut.add(p)
    if stack:  # pragma: no cover - DFS on a connected subgraph drains the stack
        raise AssertionError("unpopped edges after block search")
    return blocks, cut, len(disc)


def has_four_cycle(graph: Graph) -> bool:
    """Whether any simple 4-cycle exists: some pair of vertices is the
    neighbour pair of two different vertices.  Each vertex's neighbour pairs
    go into one set until one repeats, so the work is linear in the sum of
    squared degrees."""
    pairs: set[tuple[int, int]] = set()
    for neighbors in graph.adjacency:
        # sorted by neighbour, so each pair comes in one orientation
        for pair in combinations([w for w, _ in neighbors], 2):
            if pair in pairs:
                return True
            pairs.add(pair)
    return False


def simple_cycles(graph: Graph) -> list[tuple[tuple[int, ...], int, int]]:
    """Every simple cycle once, as (vertex tuple, edge mask, vertex mask).

    A cycle is listed from its least vertex, in the one direction whose
    second vertex is smaller than its last.  An explicit stack of neighbour
    iterators walks the simple paths out of that least vertex through larger
    vertices only; a path closes into a cycle when its end is adjacent to
    its start.  A cycle lies inside one block of the graph, so a path keeps
    to the block of its first edge, and a first edge that is a bridge starts
    none: a long path between cycles, or a pendant tree, costs linear time.
    The cycles come in the order of the search over the whole graph, since
    a path that left its first edge's block could not come back to close.
    """
    adj = graph.adjacency
    # block[e]: the edge mask of e's block, or 0 when e is a bridge
    block = [0] * len(graph.edges)
    blocks, _, _ = _biconnected(adj, 0)
    for edges in blocks:
        if len(edges) > 1:
            mask = sum(1 << e for e in edges)
            for e in edges:
                block[e] = mask
    out = []
    for s in range(graph.vertex_count):
        path = [s]
        path_edges = [0]  # edge mask of each path prefix
        on_path = 1 << s
        stack = [iter(adj[s])]
        within = 0  # the block of the path's first edge
        while stack:
            for w, e in stack[-1]:
                if w == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        out.append((tuple(path), path_edges[-1] | 1 << e, on_path))
                elif w > s and not on_path >> w & 1:
                    if len(path) == 1:
                        within = block[e]
                    if within >> e & 1:
                        path.append(w)
                        path_edges.append(path_edges[-1] | 1 << e)
                        on_path |= 1 << w
                        stack.append(iter(adj[w]))
                        break
            else:
                stack.pop()
                on_path &= ~(1 << path.pop())
                path_edges.pop()
    return out


def _bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


# A block of a primitive walk in walk order: (vertices, edges), edge k
# joining vertex k to vertex k + 1 cyclically; a cut edge e = {u, v} is
# ((u, v), (e, e)).
Block = tuple[tuple[int, ...], tuple[int, ...]]


def _odd_sides(attachments: tuple, cycle_lengths: list[int]) -> bool:
    """Whether a tree of cycles has an odd side at every cut vertex.

    Every cut vertex splits the tree into one attachment's subtree and the
    rest, so that holds exactly when the cycle edges are even in number and
    every non-root attachment's subtree holds an odd number of them.  A
    parent precedes its children, so one backward pass sums the subtrees.
    """
    sizes = [cycle_lengths[cycle] for cycle, _, _ in attachments]
    for a in range(len(attachments) - 1, 0, -1):
        if sizes[a] % 2 == 0:
            return False
        sizes[attachments[a][1]] += sizes[a]
    return sizes[0] % 2 == 0


def primitive_block_trees(
    graph: Graph,
) -> Iterator[tuple[tuple[int, ...], tuple[Block, ...]]]:
    """Yield every primitive walk's edge set, once, with its block tree.

    The subgraph of a primitive walk is an even cycle, or a tree of cycles
    joined at shared vertices or by paths of cut edges, with every cut
    vertex in exactly two blocks and an odd number of cycle edges on both
    sides of it.  Such trees are grown, not searched for.  A state is (edge
    mask, vertex mask, free mask, attachments); the free mask holds the
    cycle vertices that host no attachment yet.  Each cycle seeds a state as
    its root attachment, and a state with an odd root grows at a free vertex
    ``v`` by a cycle meeting it only at ``v``, or by a simple path out of
    ``v`` that avoids it followed by a cycle meeting state and path only at
    the path's far end.  That growth is one attachment: (cycle index,
    parent attachment, path edge mask).  An edge set fixes its block tree,
    so a seen-set of edge masks expands each tree once.

    Only a tree passing ``_odd_sides`` is yielded, as its sorted edge tuple
    and its blocks in walk order: each block a (vertices, edges) pair in
    which edge k joins vertex k to vertex k + 1, cyclically.  A cycle's pair
    is the order ``simple_cycles`` found it in, worked out once per graph; a
    cut edge {u, v} is the pair ((u, v), (e, e)), out and back.  The cycles
    come first, in attachment order, then the cut edges.  A vertex in two
    blocks is a cut vertex; the blocks are the ones ``block_decomposition``
    finds.
    """
    adj = graph.adjacency
    index = graph.edge_index
    cycles = simple_cycles(graph)
    # through[v]: bitmask over the indices of the cycles through v
    through = [0] * graph.vertex_count
    for i, (verts, _, _) in enumerate(cycles):
        for v in verts:
            through[v] |= 1 << i
    # each cycle as a block in walk order
    cycle_blocks = [
        (
            verts,
            tuple(
                index[(a, b) if a < b else (b, a)]
                for a, b in zip(verts, verts[1:] + verts[:1])
            ),
        )
        for verts, _, _ in cycles
    ]
    cycle_lengths = [len(verts) for verts, _, _ in cycles]
    states = [
        (edges, verts, verts, ((i, -1, 0),))
        for i, (_, edges, verts) in enumerate(cycles)
    ]
    seen = {edge_mask for edge_mask, _, _, _ in states}
    everything = (1 << graph.vertex_count) - 1

    while states:
        edge_mask, vertex_mask, free, attachments = states.pop()
        if _odd_sides(attachments, cycle_lengths):
            blocks = [cycle_blocks[cycle] for cycle, _, _ in attachments]
            for _, _, path_edges in attachments:
                if path_edges:
                    blocks.extend((graph.edges[e], (e, e)) for e in _bits(path_edges))
            yield _bits(edge_mask), tuple(blocks)
        # A walk of two or more cycles has a leaf cycle, whose side at its
        # one cut vertex is its own edges, so odd; growth from it reaches
        # the whole tree, so a tree rooted at an even cycle need not grow.
        if cycle_lengths[attachments[0][0]] % 2 == 0:
            continue
        # the cycles through one or more, and through two or more, state vertices
        once = twice = 0
        state_rest = vertex_mask
        while state_rest:
            low = state_rest & -state_rest
            state_rest ^= low
            twice |= once & through[low.bit_length() - 1]
            once |= through[low.bit_length() - 1]
        # a free vertex lies on exactly one attachment's cycle, its parent
        for parent, (cycle, _, _) in enumerate(attachments):
            rest = free & cycles[cycle][2]
            while rest:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                still_free = free ^ bit
                # Simple paths out of v that avoid the state, as (far end,
                # edge mask, vertex mask, cycles through a taken vertex other
                # than the far end); the empty path attaches a cycle at v
                # itself, and a cycle through v meets another state vertex if
                # it meets two.
                paths = [(v, 0, 0, twice)]
                while paths:
                    end, path_edges, path_verts, blocked = paths.pop()
                    taken = vertex_mask | path_verts
                    end_bit = 1 << end
                    # the cycles meeting state and path only at the far end
                    attach = through[end] & ~blocked
                    while attach:
                        low = attach & -attach
                        attach ^= low
                        new = low.bit_length() - 1
                        _, cycle_edges, cycle_verts = cycles[new]
                        grown = edge_mask | path_edges | cycle_edges
                        if grown not in seen:
                            seen.add(grown)
                            # every vertex of the new cycle but its joint is free
                            states.append((
                                grown,
                                taken | cycle_verts,
                                still_free | (cycle_verts ^ end_bit),
                                attachments + ((new, parent, path_edges),),
                            ))
                    # a step to w pays only if w and two more vertices are untaken
                    if (everything & ~taken).bit_count() < 3:
                        continue
                    blocked = (blocked if path_verts else once) | through[end]
                    for w, e in adj[end]:
                        if not taken >> w & 1:
                            paths.append(
                                (w, path_edges | 1 << e, path_verts | 1 << w, blocked)
                            )


def connected_edge_subsets(
    graph: Graph, max_vertex_degree: int = 4
) -> Iterator[tuple[int, ...]]:
    """Yield every connected edge subset, each exactly once, sorted internally.

    Only subsets in which no vertex has degree above ``max_vertex_degree``
    are yielded.  A stack of edge masks starts from the single edges and
    grows each mask by one adjacent edge whose ends both stay within the
    bound; every such subset is reached that way, and a seen-set expands
    each mask once.  Filtered by ``walks.is_primitive_subgraph`` it is the
    test oracle for ``primitive_block_trees``; nothing in the package
    enumerates with it.
    """
    incident = [0] * graph.vertex_count
    for i, (u, v) in enumerate(graph.edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    stack = [1 << e for e in range(len(graph.edges))]
    seen = set(stack)
    while stack:
        mask = stack.pop()
        yield _bits(mask)
        touching = full = 0
        for at_v in incident:
            if at_v & mask:
                touching |= at_v
                if (at_v & mask).bit_count() >= max_vertex_degree:
                    full |= at_v
        for e in _bits(touching & ~full & ~mask):
            grown = mask | 1 << e
            if grown not in seen:
                seen.add(grown)
                stack.append(grown)
