"""Correctness of the permutation-scan kernels, checked against pure-python
brute force.
"""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from hamspec import kernels
from hamspec.graphs import build_graph, distance_matrix, make_complete, make_cycle, make_path
from hamspec.spectra import _branch_and_bound, pseudo_sum


def _brute_force_scan(dist, h_edges):
    """Histogram of edge-distance sums over itertools.permutations, with the
    first permutation (in lexicographic order) attaining each sum."""
    d = dist.tolist()
    counts = Counter()
    first = {}
    for perm in itertools.permutations(range(len(d))):
        s = 0
        for a, b in h_edges:
            s += d[perm[a]][perm[b]]
        counts[s] += 1
        if s not in first:
            first[s] = perm
    return counts, first


def test_scan_sums_witnesses_are_lex_smallest():
    rng = random.Random(8128)
    g8 = build_graph(8, [(rng.randrange(i), i) for i in range(1, 8)] + [(0, 7), (2, 5)])
    g9 = build_graph(9, [(rng.randrange(i), i) for i in range(1, 9)] + [(1, 8)])
    instances = [
        (
            build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)]),
            build_graph(5, [(0, 2), (1, 3), (2, 4), (0, 1)]),
        ),
        # table route: one pass over the cached 8! permutation table
        (g8, build_graph(8, [(0, 3), (1, 6), (2, 7), (3, 5), (4, 6), (0, 7)])),
        # block route: one block of the 8! table per first vertex
        (g9, make_path(9)),
    ]
    for g, h in instances:
        dist = distance_matrix(g)
        hu = np.array([a for a, _ in h.edges], dtype=np.int64)
        hv = np.array([b for _, b in h.edges], dtype=np.int64)
        want, first = _brute_force_scan(dist, h.edges)
        counts, lo, hi, mw, xw = kernels.scan_sums(dist, hu, hv)
        assert {s: int(c) for s, c in enumerate(counts) if c} == dict(want)
        assert (lo, hi) == (min(want), max(want))
        assert tuple(mw) == first[lo]
        assert tuple(xw) == first[hi]


def test_scan_sums_two_vertex_prefix():
    # n = 10 runs 90 blocks, each a two-vertex prefix over the 8! table,
    # and builds or caches no larger table
    kernels._permutation_table.cache_clear()
    rng = random.Random(1010)
    g = build_graph(10, [(rng.randrange(i), i) for i in range(1, 10)] + [(0, 9), (3, 7)])
    h = make_cycle(10)
    hu = np.array([a for a, _ in h.edges], dtype=np.int64)
    hv = np.array([b for _, b in h.edges], dtype=np.int64)
    counts, lo, hi, mw, xw = kernels.scan_sums(distance_matrix(g), hu, hv)
    assert kernels._permutation_table.cache_info().currsize == 1
    assert kernels._permutation_table(8).shape == (math.factorial(8), 8)
    assert kernels._permutation_table.cache_info().misses == 1
    assert counts.sum() == math.factorial(10)
    assert lo == _branch_and_bound(h, g, "min")[0]
    assert hi == _branch_and_bound(h, g, "max")[0]
    assert pseudo_sum(h, g, tuple(mw)) == lo
    assert pseudo_sum(h, g, tuple(xw)) == hi


def test_scan_sums_edgeless_h():
    dist = distance_matrix(make_cycle(4))
    empty = np.zeros(0, dtype=np.int64)
    counts, lo, hi, mw, xw = kernels.scan_sums(dist, empty, empty)
    assert counts.tolist() == [24]
    assert (lo, hi) == (0, 0)
    assert tuple(mw) == tuple(xw) == (0, 1, 2, 3)


def test_scan_sums_single_vertex():
    dist = np.zeros((1, 1), dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    counts, lo, hi, mw, xw = kernels.scan_sums(dist, empty, empty)
    assert counts.tolist() == [1]
    assert (lo, hi) == (0, 0)


def test_canonical_code_is_isomorphism_invariant():
    rng = random.Random(31337)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [(perm[a], perm[b]) for a, b in edges]
        code_a, aut_a = kernels.canonical_code(n, edges)
        code_b, aut_b = kernels.canonical_code(n, relabeled)
        assert code_a == code_b
        assert aut_a == aut_b


def test_automorphism_counts():
    cases = [
        (make_path(4), 2),
        (make_cycle(4), 8),
        (make_complete(4), 24),
        (build_graph(4, [(0, 1), (0, 2), (0, 3)]), 6),
        (build_graph(1, []), 1),
    ]
    for g, expected in cases:
        _, aut = kernels.canonical_code(g.n, g.edges)
        assert aut == expected, g


def _brute_force_canonical(n, edges):
    """Minimum bit code over itertools.permutations, read as position ->
    vertex, and the number of orderings attaining it."""
    adj = [[0] * n for _ in range(n)]
    for a, b in edges:
        adj[a][b] = adj[b][a] = 1
    pairs = list(itertools.combinations(range(n), 2))
    codes = Counter()
    for perm in itertools.permutations(range(n)):
        code = 0
        for i, j in pairs:
            code = code << 1 | adj[perm[i]][perm[j]]
        codes[code] += 1
    best = min(codes)
    return best, codes[best]


def test_canonical_code_matches_brute_force():
    rng = random.Random(4407)
    for n in range(1, 8):
        pairs = list(itertools.combinations(range(n), 2))
        graphs = [[], pairs]
        graphs += [[p for p in pairs if rng.random() < density] for density in (0.3, 0.6)]
        for edges in graphs:
            want = _brute_force_canonical(n, edges)
            got = kernels.canonical_code(n, edges)
            assert got == want, (n, edges)


def test_edges_from_code_round_trip():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(1, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        code, _ = kernels.canonical_code(n, edges)
        rebuilt = kernels.edges_from_code(n, code)
        rebuilt_code, _ = kernels.canonical_code(n, rebuilt)
        assert rebuilt_code == code
        assert len(rebuilt) == len(edges)


def test_canonical_code_size_guard():
    # codes come from the cached 8! table only
    with pytest.raises(ValueError):
        kernels.canonical_code(9, make_path(9).edges)


def _connected_stack(rng, n, k):
    """k seeded connected graphs on n vertices (a random tree plus chords),
    stacked as distance matrices."""
    graphs = []
    for _ in range(k):
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        edges += [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
        graphs.append(build_graph(n, edges))
    return np.stack([distance_matrix(g) for g in graphs])


def _edge_arrays(edges):
    hu = np.array([a for a, _ in edges], dtype=np.int64)
    hv = np.array([b for _, b in edges], dtype=np.int64)
    return hu, hv


def test_max_sums_matches_scan_sums():
    rng = random.Random(2718)
    cases = []
    for n in range(1, 10):
        k = 2 if n == 9 else 7
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        cases.append((_connected_stack(rng, n, k), edges))
    # edgeless H: every sum, so every maximum, is 0
    cases.append((_connected_stack(rng, 5, 3), []))
    # a disconnected H: a triangle beside a path
    cases.append((_connected_stack(rng, 7, 5), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]))
    # more graphs than one tile of columns, and not a multiple of it
    cases.append((_connected_stack(rng, 6, kernels._TILE_COLS + 44), list(make_cycle(6).edges)))
    # k = 1, straight from the read-only distance_matrix cache
    cases.append((distance_matrix(make_cycle(8))[None], list(make_path(8).edges)))
    # a maximum found only in the last block: H is the star on centre 0, so
    # a sum is the total distance from the image of 0; in G (the path
    # 8-7-6-5-4 with 0, 1, 2, 3 hung on 4) only vertex 8 attains the
    # maximum 30, and every permutation that maps 0 to 8 lies in the last
    # of the nine blocks
    broom = build_graph(9, [(8, 7), (7, 6), (6, 5), (5, 4), (0, 4), (1, 4), (2, 4), (3, 4)])
    cases.append((distance_matrix(broom)[None], [(0, v) for v in range(1, 9)]))
    for dists, edges in cases:
        hu, hv = _edge_arrays(edges)
        want = [kernels.scan_sums(d, hu, hv)[2] for d in dists]
        got = kernels.max_sums(dists, hu, hv)
        assert got.dtype == np.int64
        assert got.tolist() == want, (dists.shape, edges)

