"""Correctness of the permutation-scan kernels, checked against pure-python
brute force.
"""

import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hamspec import kernels
from hamspec.graphs import build_graph, distance_matrix, make_complete, make_cycle, make_path
from hamspec.spectra import _branch_and_bound, pseudo_sum
from hamspec.verify import enumerate_connected_graphs


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
    g9b = build_graph(9, [(rng.randrange(i), i) for i in range(1, 9)] + [(2, 7), (4, 8)])
    instances = [
        (
            build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 4)]),
            [(0, 2), (1, 3), (2, 4), (0, 1)],
        ),
        # table route: one pass over the cached 8! permutation table
        (g8, [(0, 3), (1, 6), (2, 7), (3, 5), (4, 6), (0, 7)]),
        # block route: one block of the 8! table per first vertex
        (g9, list(make_path(9).edges)),
        # edges at the prefix vertex 0, one given reversed, land at its
        # constant position 0; the others at positions from the 8! table
        (g9b, [(0, 1), (0, 4), (8, 0), (2, 3), (5, 7), (3, 6)]),
    ]
    for g, edges in instances:
        dist = distance_matrix(g)
        want, first = _brute_force_scan(dist, edges)
        counts, lo, hi, mw, xw = kernels.scan_sums(dist, edges)
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
    counts, lo, hi, mw, xw = kernels.scan_sums(distance_matrix(g), h.edges)
    assert kernels._permutation_table.cache_info().currsize == 1
    # the one table form: vertex v's uint8 position in permutation r at [v, r]
    table = kernels._permutation_table(8)
    assert table.shape == (8, math.factorial(8))
    assert table.dtype == np.uint8
    assert not table.flags.writeable
    assert kernels._permutation_table.cache_info().misses == 1
    assert counts.sum() == math.factorial(10)
    assert lo == _branch_and_bound(h, g, "min")[0]
    assert hi == _branch_and_bound(h, g, "max")[0]
    assert pseudo_sum(h, g, tuple(mw)) == lo
    assert pseudo_sum(h, g, tuple(xw)) == hi
    # a complete H sums every bijection to the Wiener index of G, which for
    # the path P10 is C(11, 3) = 165, past what an int8 sum holds
    counts, lo, hi, _, _ = kernels.scan_sums(distance_matrix(make_path(10)), make_complete(10).edges)
    assert {s: int(c) for s, c in enumerate(counts) if c} == {165: math.factorial(10)}


def _block_gather_scan(dist, edges):
    """Reference scan for n >= 9: each lexicographic block as a whole
    (8!, n) permutation array, every edge distance gathered from it."""
    hu = np.array([a for a, _ in edges], dtype=np.int64)
    hv = np.array([b for _, b in edges], dtype=np.int64)
    n = dist.shape[0]
    k = n - 8
    table = np.array(list(itertools.permutations(range(8))), dtype=np.int64)
    top = int(len(hu) * dist.max())
    counts = np.zeros(top + 1, dtype=np.int64)
    lo, hi = (top + 1, None), (-1, None)
    for prefix in itertools.permutations(range(n), k):
        rest = np.array([v for v in range(n) if v not in prefix], dtype=np.int64)
        perms = np.hstack([np.tile(np.array(prefix, dtype=np.int64), (len(table), 1)), rest[table]])
        sums = dist[perms[:, hu], perms[:, hv]].sum(axis=1)
        counts += np.bincount(sums, minlength=top + 1)
        i, j = int(sums.argmin()), int(sums.argmax())
        if sums[i] < lo[0]:
            lo = (int(sums[i]), tuple(perms[i]))
        if sums[j] > hi[0]:
            hi = (int(sums[j]), tuple(perms[j]))
    return {s: int(c) for s, c in enumerate(counts) if c}, lo, hi


def test_scan_sums_prefix_to_prefix_edge():
    # n = 10 puts vertices 0 and 1 in the prefix, so edge (0, 1) is a
    # per-block constant; the others have one or no end in the prefix
    rng = random.Random(1001)
    g = build_graph(10, [(rng.randrange(i), i) for i in range(1, 10)] + [(1, 9), (3, 6)])
    dist = distance_matrix(g)
    edges = [(0, 1), (1, 5), (9, 0), (2, 3), (3, 8), (6, 7)]
    counts, lo, hi, mw, xw = kernels.scan_sums(dist, edges)
    hist = {s: int(c) for s, c in enumerate(counts) if c}
    assert (hist, (lo, tuple(mw)), (hi, tuple(xw))) == _block_gather_scan(dist, edges)


def test_scan_sums_edgeless_h():
    dist = distance_matrix(make_cycle(4))
    counts, lo, hi, mw, xw = kernels.scan_sums(dist, [])
    assert counts.tolist() == [24]
    assert (lo, hi) == (0, 0)
    assert tuple(mw) == tuple(xw) == (0, 1, 2, 3)


def test_scan_sums_single_vertex():
    dist = np.zeros((1, 1), dtype=np.int64)
    counts, lo, hi, mw, xw = kernels.scan_sums(dist, [])
    assert counts.tolist() == [1]
    assert (lo, hi) == (0, 0)


def _canonical_code(n, edges):
    """Canonical code (the minimum code_columns sum over all orderings) and
    the number of orderings attaining it."""
    codes = kernels.code_columns(n, edges).sum(axis=1)
    best = int(codes.min())
    return best, int((codes == best).sum())


def test_canonical_code_is_isomorphism_invariant():
    rng = random.Random(31337)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [(perm[a], perm[b]) for a, b in edges]
        code_a, aut_a = _canonical_code(n, edges)
        code_b, aut_b = _canonical_code(n, relabeled)
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
        _, aut = _canonical_code(g.n, g.edges)
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
            got = _canonical_code(n, edges)
            assert got == want, (n, edges)


def test_edges_from_code_round_trip():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(1, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        code, _ = _canonical_code(n, edges)
        rebuilt = kernels.edges_from_code(n, code)
        rebuilt_code, _ = _canonical_code(n, rebuilt)
        assert rebuilt_code == code
        assert len(rebuilt) == len(edges)


def test_canonical_code_size_guard():
    # codes come from the cached 8! table only
    with pytest.raises(ValueError, match="n <= 8"):
        kernels.code_columns(9, make_path(9).edges)


def _connected_stack(rng, n, k):
    """k seeded connected graphs on n vertices (a random tree plus chords),
    stacked as distance matrices."""
    graphs = []
    for _ in range(k):
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        edges += [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2]
        graphs.append(build_graph(n, edges))
    return np.stack([distance_matrix(g) for g in graphs])


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
    # 300 graphs get 2^17 // 300 = 436 of the 720 permutations a tile, so
    # the last tile is partial
    assert 720 % (kernels._TILE_SUMS // 300) != 0 and kernels._TILE_SUMS // 300 < 720
    cases.append((_connected_stack(rng, 6, 300), list(make_cycle(6).edges)))
    # every connected class at n = 7, as verify upper-bound stacks them
    classes = np.stack([distance_matrix(g) for g in enumerate_connected_graphs(7)])
    cases += [(classes, list(make_path(7).edges)), (classes, list(make_cycle(7).edges))]
    # a maximum found only in the last tile of a block: 40 graphs get
    # 2^17 // 40 = 3276 of the 8! permutations a tile, and G attains its
    # maximum under the last permutation alone
    g = build_graph(
        8, [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 7), (3, 5), (3, 6), (4, 5), (4, 6)]
    )
    edges = [(0, 1), (0, 2), (0, 3), (0, 7), (1, 5), (1, 6), (1, 7), (2, 5), (3, 4)]
    counts, _, hi, _, xw = kernels.scan_sums(distance_matrix(g), edges)
    assert (counts[hi], tuple(xw)) == (1, tuple(range(7, -1, -1)))
    assert kernels._TILE_SUMS // 40 < math.factorial(8)
    cases.append((np.concatenate([_connected_stack(rng, 8, 39), distance_matrix(g)[None]]), edges))
    # k = 1, straight from the read-only distance_matrix cache
    cases.append((distance_matrix(make_cycle(8))[None], list(make_path(8).edges)))
    # a maximum found only in the last block: H is the star on centre 0, so
    # a sum is the total distance from the image of 0; in G (the path
    # 8-7-6-5-4 with 0, 1, 2, 3 hung on 4) only vertex 8 attains the
    # maximum 30, and every permutation that maps 0 to 8 lies in the last
    # of the nine blocks
    broom = build_graph(9, [(8, 7), (7, 6), (6, 5), (5, 4), (0, 4), (1, 4), (2, 4), (3, 4)])
    cases.append((distance_matrix(broom)[None], [(0, v) for v in range(1, 9)]))
    # n = 10 puts vertices 0 and 1 in the prefix: edge (0, 1) lands on one
    # number per block, and prefix-to-rest edges come in both orientations
    g = build_graph(10, [(rng.randrange(i), i) for i in range(1, 10)] + [(1, 9), (2, 6)])
    cases.append((distance_matrix(g)[None], [(0, 1), (1, 5), (9, 0), (2, 3), (3, 8), (6, 7)]))
    # the edge inside the prefix given reversed, as (1, 0)
    cases.append((distance_matrix(g)[None], [(1, 0), (5, 1), (0, 9), (2, 3), (8, 3)]))
    for dists, edges in cases:
        want = [kernels.scan_sums(d, edges)[2] for d in dists]
        got = kernels.max_sums(dists, edges)
        assert got.dtype == np.int64
        assert got.tolist() == want, (dists.shape, edges)


def test_max_sums_memory_is_tiled():
    # the 853 classes at n = 7 walked a tile of 2^17 int16 sums at a time
    # peak at about 1 MB traced; one tile per 7! block would hold 16 MB
    dists = np.stack([distance_matrix(g) for g in enumerate_connected_graphs(7)])
    edges = list(make_cycle(7).edges)
    kernels.max_sums(dists, edges)
    tracemalloc.start()
    try:
        kernels.max_sums(dists, edges)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
