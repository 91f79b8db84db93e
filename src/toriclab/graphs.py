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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence


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
    original name of vertex v, used only when rendering output.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[str, ...] = ()

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
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int]] = []
        for u, v in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise GraphError(f"edge ({u}, {v}) outside vertex range")
            if u == v:
                raise LoopEdgeError(f"loop at vertex {self.labels[u]}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DuplicateEdgeError(
                    f"duplicate edge {{{self.labels[key[0]]}, {self.labels[key[1]]}}}"
                )
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(norm))
        reached = self._reachable_from(0)
        if len(reached) != self.vertex_count:
            missing = sorted(set(range(self.vertex_count)) - reached)
            raise DisconnectedGraphError(
                f"graph is disconnected; vertices {[self.labels[v] for v in missing]} "
                "are not reachable from the first vertex"
            )

    def _reachable_from(self, start: int) -> set[int]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.vertex_count)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each vertex, sorted (neighbor, edge_index) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def edge_between(self, u: int, v: int) -> int | None:
        """Index of the edge {u, v}, or None."""
        return self.edge_index.get((min(u, v), max(u, v)))

    def edge_label(self, i: int) -> str:
        u, v = self.edges[i]
        return f"{{{self.labels[u]}, {self.labels[v]}}}"

    def digest(self) -> str:
        """Stable short digest of the labelled edge list."""
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
        ordered = sorted(names, key=int)
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: {exc}") from exc
    except RecursionError as exc:  # JSON nested past the interpreter's stack
        raise GraphError(f"{path}: JSON nests too deeply to read") from exc
    except GraphError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def degree_of(graph: Graph, exponents: Sequence[int]) -> tuple[int, ...]:
    """Incidence degree of a monomial: each edge adds its exponent at both ends."""
    if len(exponents) != len(graph.edges):
        raise ValueError(
            f"exponent vector has length {len(exponents)}, expected {len(graph.edges)}"
        )
    deg = [0] * graph.vertex_count
    for k, (u, v) in zip(exponents, graph.edges):
        if k < 0:
            raise ValueError("exponents must be nonnegative")
        if k:
            deg[u] += k
            deg[v] += k
    return tuple(deg)


def incidence_matrix(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """0/1 matrix with one row per vertex and one column per edge."""
    rows = [[0] * len(graph.edges) for _ in range(graph.vertex_count)]
    for i, (u, v) in enumerate(graph.edges):
        rows[u][i] = 1
        rows[v][i] = 1
    return tuple(tuple(r) for r in rows)


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
    *cyclic* when it is a cycle (edge count equals vertex count).
    """

    blocks: tuple[tuple[int, ...], ...]
    block_vertices: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]

    @cached_property
    def block_of_edge(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for bi, edges in enumerate(self.blocks):
            for e in edges:
                out[e] = bi
        return out

    @cached_property
    def blocks_of_vertex(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for bi, verts in enumerate(self.block_vertices):
            for v in verts:
                out.setdefault(v, []).append(bi)
        return {v: tuple(bs) for v, bs in out.items()}

    def is_cut_edge(self, block_index: int) -> bool:
        return len(self.blocks[block_index]) == 1

    def is_cyclic(self, block_index: int) -> bool:
        return len(self.blocks[block_index]) >= 3 and len(
            self.blocks[block_index]
        ) == len(self.block_vertices[block_index])

    def cyclic_blocks(self) -> tuple[int, ...]:
        return tuple(b for b in range(len(self.blocks)) if self.is_cyclic(b))


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

    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    parent_edge: dict[int, int | None] = {}
    stack: list[int] = []
    blocks: list[list[int]] = []
    cut: set[int] = set()
    counter = 0
    root = min(adj)

    def dfs(u: int) -> None:
        nonlocal counter
        disc[u] = low[u] = counter
        counter += 1
        children = 0
        for w, ei in adj[u]:
            if ei == parent_edge.get(u):
                continue
            if w not in disc:
                parent_edge[w] = ei
                stack.append(ei)
                children += 1
                dfs(w)
                low[u] = min(low[u], low[w])
                if low[w] >= disc[u]:
                    # u closes off a block; pop edges discovered since ei
                    block = []
                    while True:
                        e = stack.pop()
                        block.append(e)
                        if e == ei:
                            break
                    blocks.append(block)
                    if parent_edge.get(u) is not None or children > 1:
                        cut.add(u)
            elif disc[w] < disc[u]:
                stack.append(ei)
                low[u] = min(low[u], disc[w])

    parent_edge[root] = None
    dfs(root)
    if len(disc) != len(adj):
        raise DisconnectedGraphError("edge subset spans a disconnected subgraph")
    if stack:  # pragma: no cover - DFS on a connected subgraph drains the stack
        raise AssertionError("unpopped edges after block search")

    ordered = sorted(tuple(sorted(b)) for b in blocks)
    verts = tuple(subset_vertices(graph, b) for b in ordered)
    return BlockDecomposition(tuple(ordered), verts, tuple(sorted(cut)))


def has_four_cycle(graph: Graph) -> bool:
    """Whether any simple 4-cycle exists: two vertices with two common neighbors."""
    neighbor_sets = [
        {w for w, _ in graph.adjacency[v]} for v in range(graph.vertex_count)
    ]
    for u in range(graph.vertex_count):
        for v in range(u + 1, graph.vertex_count):
            if len(neighbor_sets[u] & neighbor_sets[v]) >= 2:
                return True
    return False


def simple_cycles(graph: Graph) -> list[tuple[tuple[int, ...], int, int]]:
    """Every simple cycle once, as (vertex tuple, edge mask, vertex mask).

    A cycle is listed from its least vertex, in the one direction whose
    second vertex is smaller than its last.  An explicit stack of neighbour
    iterators walks the simple paths out of that least vertex through larger
    vertices only; a path closes into a cycle when its end is adjacent to
    its start.  Trees hanging off the graph are peeled away first (what is
    left is the 2-core), so a long pendant path costs linear time.
    """
    adj = graph.adjacency
    degree = [len(a) for a in adj]
    peel = [v for v, d in enumerate(degree) if d == 1]
    core = (1 << graph.vertex_count) - 1
    while peel:
        v = peel.pop()
        core &= ~(1 << v)
        for w, _ in adj[v]:
            degree[w] -= 1
            if degree[w] == 1 and core >> w & 1:
                peel.append(w)
    out = []
    for s in range(graph.vertex_count):
        if not core >> s & 1:
            continue
        path = [s]
        path_edges = [0]  # edge mask of each path prefix
        on_path = 1 << s
        stack = [iter(adj[s])]
        while stack:
            for w, e in stack[-1]:
                if w == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        out.append((tuple(path), path_edges[-1] | 1 << e, on_path))
                elif w > s and core >> w & 1 and not on_path >> w & 1:
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


def block_tree_candidates(graph: Graph) -> Iterator[tuple[int, ...]]:
    """Yield every edge set that is a tree of cycles, once, as a sorted tuple.

    These are the candidate primitive walks: a cycle, or cycles joined at
    shared vertices or by paths of cut edges, with every cut vertex in
    exactly two blocks.  A state is (edge mask, vertex mask, free mask); the
    free mask holds the cycle vertices that host no attachment yet.  Each
    cycle seeds a state, and a state grows at a free vertex ``v`` by a cycle
    meeting it only at ``v``, or by a simple path out of ``v`` that avoids
    it followed by a cycle meeting state and path only at the path's far
    end.  An edge set fixes its block tree, so a seen-set of edge masks
    expands each candidate once.  Whether a candidate is primitive (even
    cycle, odd sides at every cut vertex) is left to
    ``walks.is_primitive_subgraph``.
    """
    m = len(graph.edges)
    adj = graph.adjacency
    cycles = simple_cycles(graph)
    # through[v]: bitmask over the indices of the cycles through v
    through = [0] * graph.vertex_count
    for i, (verts, _, _) in enumerate(cycles):
        for v in verts:
            through[v] |= 1 << i
    states = [(edges, verts, verts) for _, edges, verts in cycles]
    seen = {edge_mask for edge_mask, _, _ in states}
    everything = (1 << graph.vertex_count) - 1

    while states:
        edge_mask, vertex_mask, free = states.pop()
        yield tuple(i for i in range(m) if edge_mask >> i & 1)
        # the cycles through one or more, and through two or more, state vertices
        once = twice = 0
        state_rest = vertex_mask
        while state_rest:
            low = state_rest & -state_rest
            state_rest ^= low
            twice |= once & through[low.bit_length() - 1]
            once |= through[low.bit_length() - 1]
        rest = free
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            still_free = free ^ bit
            # Simple paths out of v that avoid the state, as (far end, edge
            # mask, vertex mask, cycles through a taken vertex other than the
            # far end); the empty path attaches a cycle at v itself, and a
            # cycle through v meets another state vertex if it meets two.
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
                    _, cycle_edges, cycle_verts = cycles[low.bit_length() - 1]
                    grown = edge_mask | path_edges | cycle_edges
                    if grown not in seen:
                        seen.add(grown)
                        # every vertex of the new cycle but its joint is free
                        states.append((
                            grown,
                            taken | cycle_verts,
                            still_free | (cycle_verts ^ end_bit),
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


def connected_edge_subsets(graph: Graph, max_vertex_degree: int = 4) -> Iterator[tuple[int, ...]]:
    """Yield every connected edge subset, each exactly once, sorted internally.

    Subsets are grown from their smallest edge so each appears once. Growth is
    pruned when some vertex already exceeds ``max_vertex_degree`` inside the
    subset, since adding edges never lowers a degree.  Filtered by
    ``walks.is_primitive_subgraph`` it is the test oracle for
    ``block_tree_candidates``; nothing in the package enumerates with it.
    """
    m = len(graph.edges)
    edge_neighbors: list[set[int]] = [set() for _ in range(m)]
    for v in range(graph.vertex_count):
        incident = [ei for _, ei in graph.adjacency[v]]
        for a in incident:
            for b in incident:
                if a != b:
                    edge_neighbors[a].add(b)

    def grow(
        subset: list[int],
        frontier: list[int],
        banned: set[int],
        degrees: dict[int, int],
    ) -> Iterator[tuple[int, ...]]:
        yield tuple(sorted(subset))
        local_banned: set[int] = set()
        for idx, e in enumerate(frontier):
            if e in local_banned:
                continue
            u, v = graph.edges[e]
            if degrees.get(u, 0) >= max_vertex_degree or degrees.get(v, 0) >= max_vertex_degree:
                local_banned.add(e)
                continue
            new_frontier = [
                f for f in frontier[idx + 1 :] if f not in local_banned and f not in banned
            ]
            for f in sorted(edge_neighbors[e]):
                if (
                    f > subset[0]
                    and f not in banned
                    and f not in local_banned
                    and f != e
                    and f not in new_frontier
                    and f not in subset
                ):
                    new_frontier.append(f)
            degrees[u] = degrees.get(u, 0) + 1
            degrees[v] = degrees.get(v, 0) + 1
            subset.append(e)
            yield from grow(subset, new_frontier, banned | local_banned, degrees)
            subset.pop()
            degrees[u] -= 1
            degrees[v] -= 1
            local_banned.add(e)

    for root in range(m):
        u, v = graph.edges[root]
        frontier = sorted(f for f in edge_neighbors[root] if f > root)
        yield from grow([root], frontier, set(), {u: 1, v: 1})
