"""Reference computations the benchmark checks hamspec's outputs against.

Nothing here imports hamspec: distances, graph6 coding, spanning trees and
the exhaustive scan are written again from their definitions, so a fault in
the package cannot hide behind the same fault in its checker. Graphs are
plain (n, edges) pairs with edges as sorted (a, b) tuples, a < b.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


def normalize(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted({(min(a, b), max(a, b)) for a, b in edges}))


def neighbours(n: int, edges) -> list[list[int]]:
    nbrs = [[] for _ in range(n)]
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    return nbrs


def degree_sequence(n: int, edges) -> list[int]:
    deg = [0] * n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def bfs_distances(n: int, edges) -> list[list[int]]:
    """All-pairs shortest-path lengths; -1 marks an unreachable pair."""
    nbrs = neighbours(n, edges)
    rows = []
    for src in range(n):
        row = [-1] * n
        row[src] = 0
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in nbrs[v]:
                if row[w] < 0:
                    row[w] = row[v] + 1
                    queue.append(w)
        rows.append(row)
    return rows


def is_connected(n: int, edges) -> bool:
    return all(d >= 0 for d in bfs_distances(n, edges)[0])


def wiener_index(dist) -> int:
    """Sum of distances over unordered vertex pairs."""
    return sum(sum(row) for row in dist) // 2


def pseudo_sum(dist, h_edges, f) -> int:
    """Sum of d(f(x), f(y)) over the edges {x, y} of H."""
    return sum(dist[f[a]][f[b]] for a, b in h_edges)


def is_path(n: int, edges) -> bool:
    if n == 1:
        return not edges
    deg = degree_sequence(n, edges)
    return (
        len(edges) == n - 1
        and sorted(deg) == [1, 1] + [2] * (n - 2)
        and is_connected(n, edges)
    )


def branching_weight(n: int, edges) -> int:
    """Total degree of the vertices of degree 3 or more."""
    return sum(d for d in degree_sequence(n, edges) if d >= 3)


def lex_first_spanning_tree(n: int, edges) -> tuple[tuple[int, int], ...]:
    """Kruskal in sorted edge order: the lexicographically first spanning tree.

    Spanning trees are the bases of the graphic matroid, and the greedy
    algorithm on a matroid returns the lexicographically smallest basis.
    """
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = []
    for a, b in sorted(edges):
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            tree.append((a, b))
    if len(tree) != n - 1:
        raise ValueError("graph is not connected")
    return tuple(tree)


# ---------------------------------------------------------------------------
# graph6, written from the format description (upper triangle column by
# column, six bits per byte, each byte offset by 63)


def g6_encode(n: int, edges) -> str:
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 short form needs 1 <= n <= 62, got {n}")
    present = set(normalize(edges))
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def g6_decode(text: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    text = text.strip()
    n = ord(text[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"bad graph6 size byte {text[0]!r}")
    need = n * (n - 1) // 2
    if len(text) - 1 != (need + 5) // 6:
        raise ValueError("graph6 body has the wrong length")
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        if not 0 <= value < 64:
            raise ValueError(f"bad graph6 byte {ch!r}")
        bits.extend((value >> s) & 1 for s in range(5, -1, -1))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, normalize(p for p, bit in zip(pairs, bits) if bit)


def edges_text(n: int, edges) -> str:
    return f"n {n}\n" + "".join(f"{a} {b}\n" for a, b in edges)


# ---------------------------------------------------------------------------
# exhaustive scan


def permutation_table(n: int) -> np.ndarray:
    """All permutations of range(n) in lexicographic order, one per row.

    Built block by block: the rows starting with i are i followed by the
    table of the remaining values, which keeps lexicographic order.
    """
    table = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, n + 1):
        sub = table
        blocks = []
        for first in range(size):
            rest = np.array([v for v in range(size) if v != first], dtype=np.int8)
            head = np.full((sub.shape[0], 1), first, dtype=np.int8)
            blocks.append(np.hstack([head, rest[sub]]) if size > 1 else head)
        table = np.vstack(blocks)
    return table


class BruteForce:
    """Every bijection's sum, from a lexicographic permutation table."""

    def __init__(self, n: int):
        self.n = n
        self.table = permutation_table(n)

    def sums(self, dist, h_edges) -> np.ndarray:
        d = np.asarray(dist, dtype=np.int16)
        total = np.zeros(self.table.shape[0], dtype=np.int32)
        for a, b in h_edges:
            total += d[self.table[:, a], self.table[:, b]]
        return total

    def spectrum(self, dist, h_edges) -> dict:
        """Histogram, extremes and lexicographically smallest witnesses."""
        sums = self.sums(dist, h_edges)
        lo, hi = int(sums.argmin()), int(sums.argmax())
        values, counts = np.unique(sums, return_counts=True)
        return {
            "values": [[int(v), int(c)] for v, c in zip(values, counts)],
            "min": int(sums[lo]),
            "max": int(sums[hi]),
            "min_witness": [int(x) for x in self.table[lo]],
            "max_witness": [int(x) for x in self.table[hi]],
            "enumerated": math.factorial(self.n),
        }
