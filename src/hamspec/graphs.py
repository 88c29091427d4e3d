"""Finite simple graphs: construction, file formats, and structural queries.

Graphs are immutable records over vertex set {0, ..., n-1}. Everything else
in the package (spectra, surgery, verification) builds on the helpers here:
BFS distances, shape classification, unique tree paths and spanning trees.
Data derived from a graph (its neighbour lists, distance matrix and graph6
text) is computed once and lives on the graph object, so it goes when the
graph goes.
A graph's distances are computed by BFS from every vertex, or handed over
when it is built: surgery derives each rewired tree's matrix from its
parent's (`_with_distances`).
"""

from __future__ import annotations

import base64
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphError(ValueError):
    """A graph value violates a precondition (bad edge, wrong size, ...)."""


class FormatError(GraphError):
    """Serialized graph data cannot be decoded."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count plus sorted edge tuple.

    Edges are (a, b) with a < b, deduplicated and sorted, so equal graphs
    compare and hash equal.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def edge_count(self) -> int:
        return len(self.edges)

    # cached_property writes the instance __dict__ directly, which a frozen
    # dataclass allows; equality and hashing still read only n and edges
    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs = [[] for _ in range(self.n)]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @cached_property
    def _distances(self) -> np.ndarray:
        rows = [_bfs(self._adjacency, src) for src in range(self.n)]
        if -1 in rows[0]:
            raise GraphError("distance matrix requires a connected graph")
        dist = np.array(rows, dtype=np.int64)
        dist.setflags(write=False)
        return dist

    @cached_property
    def _graph6(self) -> str:
        return _graph6_encode(self)


def build_graph(n: int, edges) -> Graph:
    """Validate and normalize (n, edges) into a Graph.

    Rejects n < 1, self-loops, and endpoints outside range(n). Duplicate
    edges and reversed orderings are normalized away.
    """
    if n < 1:
        raise GraphError(f"need at least one vertex, got n={n}")
    normalized = set()
    for edge in edges:
        a, b = edge
        if a == b:
            raise GraphError(f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise GraphError(f"edge {edge!r} out of range for n={n}")
        normalized.add((min(a, b), max(a, b)))
    return Graph(n, tuple(sorted(normalized)))


def _with_distances(n: int, edges: tuple[tuple[int, int], ...], dist: np.ndarray) -> Graph:
    """Graph(n, edges) with dist already in its distance cache.

    The caller vouches that edges is normalized as build_graph leaves it
    (pairs a < b, sorted, no duplicates) and that dist, an (n, n) int64
    array no other object holds, is the graph's true distance matrix; it
    is made read-only here.
    """
    g = Graph(n, edges)
    dist.setflags(write=False)
    g.__dict__["_distances"] = dist
    return g


def make_path(n: int) -> Graph:
    """Path 0-1-...-(n-1); a single vertex for n=1."""
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def make_cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0; undefined below n=3."""
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(n, tuple(sorted(edges)))


def make_complete(n: int) -> Graph:
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Neighbor tuple per vertex, each sorted ascending."""
    return g._adjacency


def degrees(g: Graph) -> tuple[int, ...]:
    return tuple(len(ns) for ns in adjacency(g))


def leaves(g: Graph) -> frozenset[int]:
    """Vertices of degree exactly 1."""
    return frozenset(v for v, d in enumerate(degrees(g)) if d == 1)


def _bfs(adj, source: int) -> list[int]:
    """Breadth-first distances from source over neighbour lists; -1 where unreached."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = [source]
    for v in queue:
        step = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = step
                queue.append(w)
    return dist


def is_connected(g: Graph) -> bool:
    return -1 not in _bfs(adjacency(g), 0)


def is_tree(g: Graph) -> bool:
    return len(g.edges) == g.n - 1 and is_connected(g)


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs shortest-path lengths by BFS from every vertex, or as
    handed over when the graph was built (see _with_distances).

    Returns a read-only (n, n) int64 array, the same one on every call for
    the same graph object; requires a connected graph so every entry is
    finite.
    """
    return g._distances


def classify_shape(g: Graph) -> str:
    """Classify a connected graph on >= 2 vertices as path, cycle, or other."""
    if g.n < 2:
        raise GraphError("shape classification needs n >= 2")
    if not is_connected(g):
        raise GraphError("shape classification needs a connected graph")
    degs = degrees(g)
    if all(d == 2 for d in degs):
        return "cycle"
    ones = sum(1 for d in degs if d == 1)
    twos = sum(1 for d in degs if d == 2)
    if ones == 2 and ones + twos == g.n:
        return "path"
    return "other"


def tree_path(t: Graph, a: int, b: int) -> tuple[int, ...]:
    """The unique path between two vertices of a tree, endpoints included."""
    in_range = 0 <= a < t.n and 0 <= b < t.n
    adj = adjacency(t)
    # one BFS serves the tree check and the walk back from b
    dist = _bfs(adj, a if in_range else 0)
    if len(t.edges) != t.n - 1 or -1 in dist:
        raise GraphError("tree_path requires a tree")
    if not in_range:
        raise GraphError(f"vertices ({a}, {b}) out of range for n={t.n}")
    path = [b]
    while path[-1] != a:
        v = path[-1]
        # in a tree exactly one neighbour lies one level closer to a
        path.append(next(w for w in adj[v] if dist[w] < dist[v]))
    return tuple(reversed(path))


def non_articulation_vertex(g: Graph) -> int:
    """Smallest vertex whose removal keeps the graph connected.

    Every connected graph on >= 2 vertices has one (any leaf of a spanning
    tree works), so the scan cannot come up empty.
    """
    if g.n < 2:
        raise GraphError("need n >= 2 to remove a vertex")
    if not is_connected(g):
        raise GraphError("articulation queries need a connected graph")
    adj = adjacency(g)
    for v in range(g.n):
        # v keeps its incoming edges but none outgoing, so it is reached
        # without being passed through: the rest stays connected exactly
        # when every vertex is reached
        rest = list(adj)
        rest[v] = ()
        if -1 not in _bfs(rest, 1 if v == 0 else 0):
            return v
    raise GraphError("no removable vertex found in a connected graph")


def _spanning_tree_iter(g: Graph):
    """Yield spanning trees as edge subsets in lexicographic order."""
    if not is_connected(g):
        raise GraphError("spanning trees require a connected graph")
    for subset in itertools.combinations(g.edges, g.n - 1):
        candidate = Graph(g.n, subset)
        if is_connected(candidate):
            yield candidate


def first_spanning_tree(g: Graph) -> Graph:
    """The spanning tree that _spanning_tree_iter yields first.

    Kruskal's algorithm over the sorted edges: greedy on the graphic
    matroid returns its lexicographically first basis, which is the first
    connected (n-1)-subset of the edges. A tree is its own only spanning
    tree, so it comes back as the same object.
    """
    if not is_connected(g):
        raise GraphError("spanning trees require a connected graph")
    if len(g.edges) == g.n - 1:
        return g
    root = list(range(g.n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    chosen = []
    for a, b in g.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
            chosen.append((a, b))
    return Graph(g.n, tuple(chosen))


# ---------------------------------------------------------------------------
# serialization

# graph6 holds the upper triangle of the adjacency matrix as one integer,
# read column by column with the first bit highest: pair (a, b), a < b, is
# bit number b(b-1)/2 + a counted from the top. The bits are padded with
# zeros to whole six-bit groups, each written as chr(63 + group).
_G6_HEADER = ">>graph6<<"
# base64 also writes six-bit groups from the top, group k as the k-th letter
# of its alphabet; translating that letter to chr(63 + k) gives graph6
_BASE64_TO_G6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


def _graph6_encode(g: Graph) -> str:
    if g.n > 62:
        raise FormatError(f"graph6 short form handles n <= 62, got {g.n}")
    need = g.n * (g.n - 1) // 2
    value = 0
    for a, b in g.edges:
        value |= 1 << (need - 1 - b * (b - 1) // 2 - a)
    groups = (need + 5) // 6
    # base64 takes whole three-byte blocks; the zero groups past the last one are cut off
    size = (groups + 3) // 4 * 3
    value <<= 8 * size - need
    body = base64.b64encode(value.to_bytes(size, "big"))[:groups].translate(_BASE64_TO_G6)
    return chr(g.n + 63) + body.decode("ascii")


def _graph6_decode(text: str) -> Graph:
    if text.startswith(_G6_HEADER):
        text = text[len(_G6_HEADER):]
    if not text:
        raise FormatError("empty graph6 string")
    n = ord(text[0]) - 63
    if not (1 <= n <= 62):
        raise FormatError(f"unsupported graph6 vertex count byte {text[0]!r}")
    need = n * (n - 1) // 2
    body = text[1:]
    if len(body) != (need + 5) // 6:
        raise FormatError(f"graph6 body has {len(body)} bytes, expected {(need + 5) // 6}")
    value = 0
    for ch in body:
        group = ord(ch) - 63
        if not (0 <= group < 64):
            raise FormatError(f"graph6 byte {ch!r} out of range")
        value = value << 6 | group
    pad = 6 * len(body) - need
    if value & ((1 << pad) - 1):
        raise FormatError("nonzero padding bits in graph6 data")
    value >>= pad
    edges = tuple(
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if value >> (need - 1 - b * (b - 1) // 2 - a) & 1
    )
    return Graph(n, edges)


def _edge_list_encode(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{a} {b}" for a, b in g.edges)
    return "\n".join(lines) + "\n"


def _is_number(token: str) -> bool:
    """True for a token of ASCII digits only; str.isdigit alone also passes
    other scripts' digits and superscripts."""
    return token.isascii() and token.isdigit()


def _edge_list_decode(text: str) -> Graph:
    n = None
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise FormatError("duplicate vertex-count line")
            if len(parts) != 2 or not _is_number(parts[1]):
                raise FormatError(f"bad vertex-count line {raw!r}")
            n = int(parts[1])
            continue
        if len(parts) != 2 or not all(map(_is_number, parts)):
            raise FormatError(f"bad edge line {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        if not edges:
            raise FormatError("edge list has no 'n <count>' line and no edges")
        n = max(max(a, b) for a, b in edges) + 1
    return build_graph(n, edges)


def render_graph(g: Graph, fmt: str = "graph6") -> str:
    """Serialize a graph as 'graph6' or 'edge-list' text.

    A graph's graph6 text is computed once and kept on the graph object.
    """
    if fmt == "graph6":
        return g._graph6
    if fmt == "edge-list":
        return _edge_list_encode(g)
    raise FormatError(f"unknown graph format {fmt!r}")


def parse_graph(data, fmt: str = "graph6") -> Graph:
    """Decode 'graph6' or 'edge-list' text (str or bytes) into a Graph."""
    text = data
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"graph data is not ASCII: byte {data[exc.start]:#04x} at offset {exc.start}"
            ) from None
    if fmt == "graph6":
        return _graph6_decode(text.strip())
    if fmt == "edge-list":
        return _edge_list_decode(text)
    raise FormatError(f"unknown graph format {fmt!r}")
