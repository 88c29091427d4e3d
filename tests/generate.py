"""Seeded random graphs and bijections for property tests and spot checks,
and small oracles the tests share."""

from __future__ import annotations

import itertools
import random

from hamspec import kernels
from hamspec.graphs import Graph, GraphError, build_graph, is_connected


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree via a random Pruefer sequence."""
    if n < 1:
        raise GraphError(f"trees need n >= 1, got {n}")
    if n <= 2:
        return build_graph(n, [(0, 1)] if n == 2 else [])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return build_graph(n, edges)


def random_connected_graph(n: int, rng: random.Random, extra_edges: int | None = None) -> Graph:
    """Random tree plus a few random chords; always connected."""
    tree = random_tree(n, rng)
    present = set(tree.edges)
    chords = [e for e in itertools.combinations(range(n), 2) if e not in present]
    if extra_edges is None:
        extra_edges = rng.randint(0, min(n, len(chords)))
    if extra_edges > len(chords):
        raise GraphError(f"asked for {extra_edges} chords, only {len(chords)} exist")
    picked = rng.sample(chords, extra_edges)
    return build_graph(n, list(tree.edges) + picked)


def random_bijection(n: int, rng: random.Random) -> tuple[int, ...]:
    """Uniform random permutation of range(n)."""
    values = list(range(n))
    rng.shuffle(values)
    return tuple(values)


def tree_path(t: Graph, a: int, b: int) -> tuple[int, ...]:
    """The unique path between two vertices of a tree, endpoints included:
    each vertex's parent in a search from a, walked back from b."""
    if len(t.edges) != t.n - 1 or not is_connected(t):
        raise GraphError("tree_path requires a tree")
    if not (0 <= a < t.n and 0 <= b < t.n):
        raise GraphError(f"vertices ({a}, {b}) out of range for n={t.n}")
    nbrs = [[] for _ in range(t.n)]
    for x, y in t.edges:
        nbrs[x].append(y)
        nbrs[y].append(x)
    parent = {a: a}
    stack = [a]
    while stack:
        v = stack.pop()
        for w in nbrs[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def bit_code(n: int, edges, perm) -> int:
    """Adjacency bit code of the ordering perm (position -> vertex): the
    upper triangle row by row, first pair in the most significant bit."""
    edge_set = {frozenset(e) for e in edges}
    code = 0
    for i, j in itertools.combinations(range(n), 2):
        code = code << 1 | (frozenset((perm[i], perm[j])) in edge_set)
    return code


def canonical_code(n: int, edges) -> tuple[int, int]:
    """Canonical code (the minimum of kernels.code_sums over all orderings)
    and the number of orderings attaining it."""
    codes = kernels.code_sums(n, edges)
    best = int(codes.min())
    return best, int((codes == best).sum())
