"""Correctness of the permutation-scan kernels, checked against pure-python
brute force.
"""

import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from generate import bit_code, canonical_code, random_connected_graph
from hamspec import kernels
from hamspec.graphs import adjacency, build_graph, distance_matrix, make_complete, make_cycle, make_path
from hamspec.spectra import _aut_orbit, _branch_and_bound, pseudo_sum, spectrum
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


def _gather_block(dist, edges, prefix):
    """One block of the walk as a whole ((n - k)!, n) permutation array,
    the prefix followed by the other vertices in lexicographic
    arrangements, and each permutation's int64 sum gathered from it."""
    n = dist.shape[0]
    hu = np.array([a for a, _ in edges], dtype=np.int64)
    hv = np.array([b for _, b in edges], dtype=np.int64)
    rest = np.array([v for v in range(n) if v not in prefix], dtype=np.int64)
    table = _lexicographic_rows(len(rest))
    perms = np.hstack([np.tile(np.array(prefix, dtype=np.int64), (len(table), 1)), rest[table]])
    return perms, dist[perms[:, hu], perms[:, hv]].astype(np.int64).sum(axis=1)


@functools.lru_cache(maxsize=2)
def _lexicographic_rows(m):
    """The m! permutations of range(m), one int64 row each, in lexicographic order."""
    return np.array(list(itertools.permutations(range(m))), dtype=np.int64).reshape(-1, m)


def _block_gather_scan(dist, edges):
    """Reference scan for n >= 9: each lexicographic block gathered whole."""
    n = dist.shape[0]
    top = int(len(edges) * dist.max())
    counts = np.zeros(top + 1, dtype=np.int64)
    lo, hi = (top + 1, None), (-1, None)
    for prefix in itertools.permutations(range(n), n - 8):
        perms, sums = _gather_block(dist, edges, prefix)
        counts += np.bincount(sums, minlength=top + 1)
        i, j = int(sums.argmin()), int(sums.argmax())
        if sums[i] < lo[0]:
            lo = (int(sums[i]), tuple(perms[i]))
        if sums[j] > hi[0]:
            hi = (int(sums[j]), tuple(perms[j]))
    return {s: int(c) for s, c in enumerate(counts) if c}, lo, hi


def test_walk_reads_the_prefixes_it_is_given():
    # the branch-and-bound hands the walk its surviving prefixes in search
    # order; each block holds the sums of the matching block of the
    # lexicographic walk, and best_completion reads its first maximum
    rng = random.Random(91011)
    for n in (9, 10):
        dist = distance_matrix(random_connected_graph(n, rng))
        edges = _random_h(rng, n, 2 * n)
        k = kernels._prefixes(n)[0]
        walk = {tuple(order[:k].tolist()): sums for order, _, sums in kernels._sum_tiles(dist, edges)}
        assert list(walk) == list(itertools.permutations(range(n), k))
        tiles = kernels._block_sums(dist, edges, k)
        best = kernels.best_completion(dist, edges, k)
        for prefix in rng.sample(list(walk), 8):
            ((order, start, sums),) = tiles(prefix)
            assert (start, tuple(order[:k].tolist())) == (0, prefix)
            assert sums.tolist() == walk[prefix].tolist()
            perms, want = _gather_block(dist, edges, prefix)
            assert sums.tolist() == want.tolist()
            value, p = best(prefix, -1)
            assert (value, tuple(p)) == (want.max(), tuple(perms[want.argmax()].tolist()))
            assert best(prefix, value) is None


def test_best_completion_mate_scores_the_tail():
    # mate scores the completions with p[k] > p[0]: the block's rows from
    # c * (n - k - 1)!, c the free vertices below prefix[0], in table order
    rng = random.Random(8899)
    for n in (9, 10):
        k = n - 8
        dist = distance_matrix(random_connected_graph(n, rng))
        edges = _random_h(rng, n, 2 * n)
        best = kernels.best_completion(dist, edges, k, mate=True)
        prefixes = list(itertools.permutations(range(n), k))
        for prefix in rng.sample(prefixes, min(len(prefixes), 12)):
            perms, sums = _gather_block(dist, edges, prefix)
            tail = perms[:, k] > perms[:, 0]
            if not tail.any():
                assert best(prefix, -1) is None
                continue
            r = int(np.flatnonzero(tail)[sums[tail].argmax()])
            value, p = best(prefix, -1)
            assert (value, tuple(p)) == (sums[r], tuple(perms[r].tolist()))
    # the one pair (3, 4) above 3 weighs 100 and the pair (3, 2) below it
    # 200, so a tail started one chunk late or early misses or passes 100
    matrix = np.zeros((9, 9), dtype=np.int64)
    matrix[3, 4] = matrix[4, 3] = 100
    matrix[3, 2] = matrix[2, 3] = 200
    value, p = kernels.best_completion(matrix, [(0, 1)], 1, mate=True)((3,), -1)
    assert (value, p[:2]) == (100, [3, 4])
    assert kernels.best_completion(matrix, [(0, 1)], 1)((3,), -1)[0] == 200
    # no free vertex above prefix[0]: the tail is empty
    for n, prefixes in ((10, [(8, 9), (9, 8)]), (9, [(8,)])):
        path = make_path(n)
        best = kernels.best_completion(distance_matrix(path), path.edges, n - 8, mate=True)
        for prefix in prefixes:
            assert best(prefix, -100) is None


def test_block_sums_past_int16():
    # K9's 36 edges on entries of 950 to 1000 sum to at least 34200, past
    # the 32767 an int16 sum holds, so the block sums in int32
    rng = np.random.default_rng(32768)
    matrix = rng.integers(950, 1001, size=(9, 9))
    edges = list(make_complete(9).edges)
    for prefix in ((0,), (8,)):
        perms, want = _gather_block(matrix, edges, prefix)
        assert want.min() > np.iinfo(np.int16).max
        ((_, _, sums),) = kernels._block_sums(matrix, edges, 1)(prefix)
        assert sums.tolist() == want.tolist()
        value, p = kernels.best_completion(matrix, edges, 1)(prefix, -1)
        assert value == sum(int(matrix[p[u], p[v]]) for u, v in edges) == want.max()
    # the exhaustive scan reads the same walk
    counts, lo, hi, mw, xw = kernels.scan_sums(matrix, edges)
    assert lo == sum(int(matrix[mw[u], mw[v]]) for u, v in edges) > np.iinfo(np.int16).max
    assert hi == sum(int(matrix[xw[u], xw[v]]) for u, v in edges)
    assert counts.sum() == math.factorial(9)


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


def _random_h(rng, n, m):
    """m random edges on n >= 2 vertices, some of them an earlier edge
    repeated, as given or reversed."""
    edges = []
    for _ in range(m):
        if edges and rng.random() < 0.25:
            u, v = rng.choice(edges)
            edges.append((v, u) if rng.random() < 0.5 else (u, v))
        else:
            edges.append(tuple(rng.sample(range(n), 2)))
    return edges


def test_grouped_scan_matches_brute_force():
    # groups hold up to 2 vertices at n <= 5, 3 at n = 6 and 4 at n = 7
    assert [kernels._group_size(n, 1) for n in range(1, 8)] == [2, 2, 2, 2, 2, 3, 4]
    rng = random.Random(2203)
    for n in range(1, 8):
        for _ in range(4):
            g = build_graph(n, [(rng.randrange(i), i) for i in range(1, n)] + [(0, n - 1)] * (n > 2))
            dist = distance_matrix(g)
            hs = [[], _random_h(rng, n, rng.randint(1, 2 * n))] if n > 1 else [[]]
            for edges in hs:
                want, first = _brute_force_scan(dist, edges)
                counts, lo, hi, mw, xw = kernels.scan_sums(dist, edges)
                assert {s: int(c) for s, c in enumerate(counts) if c} == dict(want), (n, edges)
                assert (lo, hi) == (min(want), max(want))
                assert (tuple(mw), tuple(xw)) == (first[lo], first[hi]), (n, edges)


def test_grouped_scan_with_groups_in_the_prefix():
    # n = 9 puts vertex 0 in the prefix, n = 10 vertices 0 and 1: a group
    # holding a prefix vertex reads it as one position per block
    rng = random.Random(9010)
    g = build_graph(9, [(rng.randrange(i), i) for i in range(1, 9)] + [(2, 8), (1, 5)])
    edges = [(3, 0), (0, 5), (5, 2), (2, 3), (8, 0), (1, 7), (7, 6), (6, 4), (4, 1), (5, 0), (7, 1)]
    cover = kernels._cover(edges, kernels._group_size(9, 1))
    assert [vertices for vertices, _ in cover] == [[3, 0, 5, 2], [8, 0, 1, 7], [7, 6, 4, 1]]
    dist = distance_matrix(g)
    counts, lo, hi, mw, xw = kernels.scan_sums(dist, edges)
    hist = {s: int(c) for s, c in enumerate(counts) if c}
    assert (hist, (lo, tuple(mw)), (hi, tuple(xw))) == _block_gather_scan(dist, edges)
    # the last group lies wholly in the prefix: one number per block
    g = build_graph(10, [(rng.randrange(i), i) for i in range(1, 10)] + [(0, 9), (4, 8)])
    edges = [(2, 3), (3, 4), (5, 4), (6, 0), (0, 7), (8, 7), (1, 0), (0, 1)]
    cover = kernels._cover(edges, kernels._group_size(10, 1))
    assert [vertices for vertices, _ in cover] == [[2, 3, 4, 5], [6, 0, 7, 8], [1, 0]]
    dist = distance_matrix(g)
    counts, lo, hi, mw, xw = kernels.scan_sums(dist, edges)
    hist = {s: int(c) for s, c in enumerate(counts) if c}
    assert (hist, (lo, tuple(mw)), (hi, tuple(xw))) == _block_gather_scan(dist, edges)


def test_cover_puts_each_edge_in_one_group():
    rng = random.Random(4242)
    cases = [(9, list(make_cycle(9).edges)), (9, list(make_path(9).edges))]
    cases += [(n, _random_h(rng, n, rng.randint(1, 3 * n))) for n in range(2, 11) for _ in range(5)]
    for n, edges in cases:
        size = kernels._group_size(n, 1)
        cover = kernels._cover(edges, size)
        # every edge once, in its given orientation, and in edge order
        # within its group
        assert sorted(e for _, members in cover for e in members) == sorted(edges)
        for vertices, members in cover:
            assert 2 <= len(vertices) <= size
            assert len(set(vertices)) == len(vertices)
            assert {w for e in members for w in e} == set(vertices)
            rest = iter(edges)
            assert all(e in rest for e in members)
    assert kernels._group_size(9, 1) == 4
    for edges in (make_cycle(9).edges, make_path(9).edges):
        assert len(kernels._cover(edges, 4)) <= 3
    assert kernels._cover([], 4) == []


def test_grouped_max_sums_matches_scan_sums():
    # a stack keeps groups of 3 or more vertices while n^s tables of its
    # width fit a tile, and falls back to one take per edge past that
    rng = random.Random(3141)
    cases = [(5, 4, 2), (6, 200, 3), (7, 5, 4), (7, 60, 3), (7, 400, 2), (8, 3, 5)]
    for n, width, size in cases:
        assert kernels._group_size(n, width) == size
        dists = _connected_stack(rng, n, width)
        edges = _random_h(rng, n, rng.randint(n, 2 * n))
        picks = rng.sample(range(width), min(width, 5))
        want = [kernels.scan_sums(dists[i], edges)[2] for i in picks]
        assert kernels.max_sums(dists, edges)[picks].tolist() == want, (n, width, edges)


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


def test_canonical_code_is_isomorphism_invariant():
    rng = random.Random(31337)
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = [(perm[a], perm[b]) for a, b in edges]
        code_a, aut_a = canonical_code(n, edges)
        code_b, aut_b = canonical_code(n, relabeled)
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
        _, aut = canonical_code(g.n, g.edges)
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
            got = canonical_code(n, edges)
            assert got == want, (n, edges)


def test_edges_from_code_round_trip():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(1, 7)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        code, _ = canonical_code(n, edges)
        rebuilt = kernels.edges_from_code(n, code)
        rebuilt_code, _ = canonical_code(n, rebuilt)
        assert rebuilt_code == code
        assert len(rebuilt) == len(edges)


def test_code_sums_match_bit_codes():
    # entry r reads permutation r as vertex -> position and bit_code reads
    # its ordering as position -> vertex, so entry r is the bit code of the
    # inverse of permutation r
    rng = random.Random(4242)
    out = np.full(math.factorial(8), -1, dtype=np.int32)
    for n in (2, 5, 7, 8):
        for _ in range(4):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            expected = [
                bit_code(n, edges, sorted(range(n), key=perm.__getitem__))
                for perm in itertools.permutations(range(n))
            ]
            codes = kernels.code_sums(n, edges)
            assert codes.dtype == np.int32
            assert codes.tolist() == expected, (n, edges)
            row = out[: math.factorial(n)]
            assert kernels.code_sums(n, edges, out=row) is row
            assert row.tolist() == expected
    # K8 sets all C(8, 2) = 28 bits under every ordering: past int16, inside int32
    assert set(kernels.code_sums(8, make_complete(8).edges).tolist()) == {(1 << 28) - 1}


def test_canonical_code_size_guard():
    # codes come from the cached 8! table only
    with pytest.raises(ValueError, match="n <= 8"):
        kernels.code_sums(9, make_path(9).edges)


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
    # blocks of several tiles at n = 9: 20 graphs get 2^17 // 20 = 6553 of
    # the 8! permutations a tile, so each block past the first reads its
    # reordered tables in seven tiles
    assert kernels._TILE_SUMS // 20 < math.factorial(8)
    cases.append((_connected_stack(rng, 9, 20), list(make_path(9).edges) + [(0, 4), (2, 7)]))
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


def test_max_sums_memory_is_tiled(monkeypatch):
    # the 853 classes at n = 7 walked a tile of 2^17 int16 sums at a time
    # peak at about 1 MB traced; one tile per 7! block would hold 16 MB.
    # A 9! scan peaks at about 0.9 MB for a cycle H and 1.4 MB for K9
    tables = []
    group_table = kernels._group_table

    def recorded(*args):
        table = group_table(*args)
        tables.append((table.dtype, table.size))
        return table

    monkeypatch.setattr(kernels, "_group_table", recorded)
    classes = np.stack([distance_matrix(g) for g in enumerate_connected_graphs(7)])
    dist = distance_matrix(build_graph(9, [(v // 2, v) for v in range(1, 9)] + [(3, 8)]))
    calls = [
        (kernels.max_sums, classes, make_cycle(7).edges, 4 << 20),
        (kernels.max_sums, classes, make_complete(7).edges, 4 << 20),
        (kernels.scan_sums, dist, make_cycle(9).edges, 2 << 20),
        (kernels.scan_sums, dist, make_complete(9).edges, 2 << 20),
    ]
    for kernel, matrix, edges, bound in calls:
        kernel(matrix, edges)
        tables.clear()
        tracemalloc.start()
        try:
            kernel(matrix, edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (kernel.__name__, len(edges), peak)
        # each group's table, a view of the block or a sum of its edges,
        # holds at most one tile of int16 entries
        assert tables and all(dtype == np.int16 and size <= kernels._TILE_SUMS for dtype, size in tables)


def _transitive_shapes(n):
    """Vertex-transitive H on n vertices: the cycle, K_n, the edgeless graph,
    the perfect matching, and at n = 6 the prism, K3,3 and C3 + C3."""
    shapes = [make_cycle(n), make_complete(n), build_graph(n, [])]
    if n % 2 == 0:
        shapes.append(build_graph(n, [(2 * k, 2 * k + 1) for k in range(n // 2)]))
    if n == 6:
        triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        shapes += [
            build_graph(6, triangles + [(0, 3), (1, 4), (2, 5)]),
            build_graph(6, [(a, b) for a in range(3) for b in range(3, 6)]),
            build_graph(6, triangles),
        ]
    return shapes


def test_transitive_h_scans_one_slice():
    # spectrum takes the f(0) = 0 slice for these H; the full walk agrees
    rng = random.Random(23023)
    for n in range(3, 9):
        for h in _transitive_shapes(n):
            assert _aut_orbit(adjacency(h), 0) == set(range(n)), h
            for _ in range(2):
                g = random_connected_graph(n, rng)
                dist = distance_matrix(g)
                rep = spectrum(h, g)
                counts, lo, hi, mw, xw = kernels.scan_sums(dist, h.edges)
                assert rep.values == tuple((s, int(c)) for s, c in enumerate(counts) if c), (h, g)
                assert (rep.min, rep.max) == (lo, hi)
                assert (rep.min_witness, rep.max_witness) == (tuple(mw), tuple(xw)), (h, g)
                assert rep.enumerated == math.factorial(n)
    # the slice reads (n - 1)! of the n! permutations
    dist = distance_matrix(make_path(5))
    edges = make_cycle(5).edges
    full = sum(sums.shape[0] for _, _, sums in kernels._sum_tiles(dist, edges))
    pinned = sum(sums.shape[0] for _, _, sums in kernels._sum_tiles(dist, edges, range(5)))
    assert (full, pinned) == (120, 24)


def test_transitive_slice_past_the_table():
    # n = 9 and 10 take the blocks whose prefix starts with 0
    rng = random.Random(91010)
    for n in (9, 10):
        g = random_connected_graph(n, rng)
        dist = distance_matrix(g)
        edges = make_cycle(n).edges
        counts, lo, hi, mw, xw = kernels.scan_sums(dist, edges, orbit=range(n))
        want = kernels.scan_sums(dist, edges)
        assert (counts.tolist(), lo, hi) == (want[0].tolist(), want[1], want[2])
        assert (tuple(mw), tuple(xw)) == (tuple(want[3]), tuple(want[4]))


def test_regular_h_that_is_not_transitive_takes_the_full_walk():
    # C3 + C4 is 2-regular, but no automorphism maps a triangle vertex into the square
    c3c4 = build_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    assert _aut_orbit(adjacency(c3c4), 0) == {0, 1, 2}
    assert _aut_orbit(adjacency(make_path(7)), 0) == {0, 6}
    g = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 5), (0, 3)])
    rep = spectrum(c3c4, g)
    want = kernels.scan_sums(distance_matrix(g), c3c4.edges)
    got = kernels.scan_sums(distance_matrix(g), c3c4.edges, orbit=range(7))
    # the slice would miscount this H
    assert got[0].tolist() != want[0].tolist()
    assert rep.values == tuple((s, int(c)) for s, c in enumerate(want[0]) if c)
    assert (rep.min_witness, rep.max_witness) == (tuple(want[3]), tuple(want[4]))


def test_transitive_max_sums_over_the_class_stack():
    classes = enumerate_connected_graphs(7)
    dists = np.stack([distance_matrix(g) for g in classes])
    edges = make_cycle(7).edges
    want = [kernels.scan_sums(d, edges)[2] for d in dists]
    assert kernels.max_sums(dists, edges, orbit=range(7)).tolist() == want


# an 11-edge H on 9 vertices whose automorphisms are generated by
# (0 5)(3 8) and (2 7): the mate of vertex 0 is 5, not the last vertex
MATE_5 = build_graph(
    9, [(0, 8), (1, 4), (1, 6), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (4, 8), (6, 7), (6, 8)]
)
# a 10-path with ends 0 and 1: the mate lies in the two-vertex prefix
MATE_1 = build_graph(10, [(0, 2), *((v, v + 1) for v in range(2, 9)), (9, 1)])


def _pair_shapes():
    """(H, orbit of vertex 0) for H with a two-vertex orbit past the table."""
    return [(make_path(9), {0, 8}), (make_path(10), {0, 9}), (MATE_5, {0, 5}), (MATE_1, {0, 1})]


def test_pair_slice_matches_the_full_walk():
    # spectrum takes the p[0] < p[m] slice for these H: counts, extremes and
    # lexicographically first witnesses agree with the full walk's
    rng = random.Random(92)
    for h, orbit in _pair_shapes():
        n = h.n
        assert _aut_orbit(adjacency(h), 0) == orbit
        graphs = [random_connected_graph(n, rng) for _ in range(2)]
        graphs += [make_path(n), make_complete(n)]
        for g in graphs:
            dist = distance_matrix(g)
            got = kernels.scan_sums(dist, h.edges, orbit=orbit)
            want = kernels.scan_sums(dist, h.edges)
            assert got[0].tolist() == want[0].tolist(), (h, g)
            assert got[1:3] == want[1:3]
            assert (tuple(got[3]), tuple(got[4])) == (tuple(want[3]), tuple(want[4])), (h, g)
        # every sum ties on K_n, so the rows' order alone picks the witness
        _, _, _, mw, xw = kernels.scan_sums(distance_matrix(make_complete(n)), h.edges, orbit=orbit)
        assert tuple(mw) == tuple(xw) == tuple(range(n))
        dists = np.stack([distance_matrix(g) for g in graphs[:3]])
        assert kernels.max_sums(dists, h.edges, orbit=orbit).tolist() == [
            kernels.scan_sums(d, h.edges)[2] for d in dists
        ]
    rep = spectrum(make_path(9), make_complete(9))
    assert rep.values == ((8, math.factorial(9)),)
    assert rep.min_witness == rep.max_witness == tuple(range(9))


def test_pair_slice_reads_half_the_walk():
    # the slice reads n!/2 sums; an orbit of 3 to n - 1 vertices, or a pair
    # at n <= 8, reads all n!
    for h, orbit in _pair_shapes():
        n = h.n
        dist = distance_matrix(make_cycle(n))
        read = sum(sums.shape[0] for _, _, sums in kernels._sum_tiles(dist, h.edges, orbit))
        assert read == math.factorial(n) // 2, h
        assert kernels._prefixes(n, orbit)[3] == 2
    triangle_path = build_graph(9, [(0, 1), (1, 2), (0, 2), *((v, v + 1) for v in range(3, 8))])
    star = build_graph(9, [(v, 8) for v in range(8)])
    for h, size in ((triangle_path, 3), (star, 8), (make_path(8), 2)):
        orbit = _aut_orbit(adjacency(h), 0)
        assert len(orbit) == size
        dist = distance_matrix(make_cycle(h.n))
        read = sum(sums.shape[0] for _, _, sums in kernels._sum_tiles(dist, h.edges, orbit))
        assert read == math.factorial(h.n), h
        assert kernels._prefixes(h.n, orbit)[3] == 1
