"""Seeded random graphs and bijections for property tests and spot checks."""

from __future__ import annotations

import itertools
import random

from hamspec.graphs import Graph, GraphError, build_graph


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
