"""Hot loops over all n! vertex bijections, as numpy gathers over one table.

Every scan reads the cached lexicographic table of permutations, built
once per n <= 8 (2.6 MB at n = 8). For n <= 8 that table is the whole
scan; for n >= 9 the scan runs over lexicographic blocks, each one prefix
of n - 8 vertices followed by the remaining vertices arranged by the 8!
table, so no larger table is ever built (see _permutation_chunks). The
blocks come in global lexicographic order, so the first permutation
attaining an extreme is the lexicographically smallest one. A 9! sum scan
takes about 0.08 s and a 10! one about 0.74 s.

max_sums needs only the maximum, for a whole stack of graphs against one
H: per block, a 0/1 matrix with one row per permutation and one column
per position pair, marking where H's edges land, times the matrix of
G-distances (one BLAS product per tile). It scores the 853 connected
classes at n = 7 in about 0.01 s per H, where 853 scan_sums calls took
about 0.3 s, and the 11117 at n = 8 in about 1 s per H.

The code of a graph under every ordering is a sum of one weight column
per edge, gathered from the cached table (see code_columns), so canonical
codes exist for n <= 8 only: canonical_code is the minimum of those sums
and the count of orderings that reach it. The class enumeration in
verify.py uses the same columns to extend one base graph to all its
one-vertex extensions by subset sums; it takes about 0.2 s for the 853
classes at n = 7 and about 18 s for the 11117 at n = 8. Timings are
Python 3.11, numpy 2.4, one core of a 2-core Xeon.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

# the largest n whose whole permutation table is cached: 8! rows take
# 2.6 MB, where 9! would take 26 MB
_TABLE_N = 8


@lru_cache(maxsize=_TABLE_N)
def _permutation_table(n: int) -> np.ndarray:
    """All n! permutations of range(n) as rows, in lexicographic order."""
    table = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int64,
    ).reshape(-1, n)
    # shared by every caller, and scans read it without a copy
    table.setflags(write=False)
    return table


def _permutation_chunks(n: int):
    """Row blocks of all n! permutations of range(n), in lexicographic order.

    For n <= 8 the one block is the cached table itself, not a copy. Past
    it, each length-(n-8) prefix in lexicographic order gives one block:
    the prefix followed by the remaining vertices, in ascending order,
    permuted by the rows of the 8! table.
    """
    if n <= _TABLE_N:
        yield _permutation_table(n)
        return
    table = _permutation_table(_TABLE_N)
    k = n - _TABLE_N
    for prefix in itertools.permutations(range(n), k):
        rest = np.setdiff1d(np.arange(n, dtype=np.int64), prefix)
        block = np.empty((table.shape[0], n), dtype=np.int64)
        block[:, :k] = prefix
        block[:, k:] = rest[table]
        yield block


def code_columns(n: int, us, vs) -> np.ndarray:
    """Canonical-code weight of each edge (us[k], vs[k]) under every ordering.

    Row r reads permutation r of the lexicographic table as the map vertex ->
    position, and entry (r, k) is the bit that edge k sets in the code of
    that ordering: the weight of the position pair it lands on, the first
    pair of the upper triangle being the most significant bit. A graph's
    code under ordering r is the sum of its edges' entries in row r. Rows
    range over all n! orderings, so the minimum of those sums and its
    multiplicity are the canonical code and the automorphism count that
    canonical_code returns.
    """
    perms = _permutation_table(n)
    return _pair_weights(n)[perms[:, us], perms[:, vs]]


def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle position pairs (rows, cols), row by row, and the
    symmetric matrix of each pair's index in that order (0 on the diagonal)."""
    rows, cols = np.triu_indices(n, k=1)
    index = np.zeros((n, n), dtype=np.int64)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size, dtype=np.int64)
    return rows, cols, index


def _pair_weights(n: int) -> np.ndarray:
    """Symmetric matrix of the code bit each position pair sets, first pair highest."""
    rows, cols, index = _pair_index(n)
    weights = np.int64(1) << (rows.size - 1 - index)
    np.fill_diagonal(weights, 0)
    return weights


def scan_sums(dist: np.ndarray, hu: np.ndarray, hv: np.ndarray):
    """Exhaustive sum scan; returns (counts, min, max, min_witness, max_witness).

    counts[s] is the number of permutations p with sum over edges k of
    dist[p[hu[k]], p[hv[k]]] equal to s, and each witness is the
    lexicographically first permutation attaining its extreme.
    """
    n = dist.shape[0]
    m = hu.shape[0]
    top = int(m * dist.max()) if m else 0
    counts = np.zeros(top + 1, dtype=np.int64)
    min_wit = np.zeros(n, dtype=np.int64)
    max_wit = np.zeros(n, dtype=np.int64)
    best_min, best_max = top + 1, -1
    for perms in _permutation_chunks(n):
        sums = dist[perms[:, hu], perms[:, hv]].sum(axis=1)
        counts += np.bincount(sums, minlength=top + 1)
        k = int(sums.argmin())
        if sums[k] < best_min:
            best_min = int(sums[k])
            min_wit[:] = perms[k]
        k = int(sums.argmax())
        if sums[k] > best_max:
            best_max = int(sums[k])
            max_wit[:] = perms[k]
    return counts, best_min, best_max, min_wit, max_wit


# max_sums multiplies tiles of up to _TILE_COLS graphs by as many
# permutations as keep one product at 2^18 multiply-adds. OpenBLAS runs a
# product that small on the calling thread; larger ones woke its second
# thread, which on a busy 2-core host made a 5040 x 21 x 256 product take
# 6-16 ms instead of 0.2 ms (0.22 s against 0.01 s per H at n = 7).
_TILE_COLS = 256
_TILE_MADDS = 1 << 18


def max_sums(dists: np.ndarray, hu: np.ndarray, hv: np.ndarray) -> np.ndarray:
    """Exhaustive maximum sum for each of a stack of distance matrices.

    dists is a (k, n, n) stack; entry i of the result is the maximum over
    all permutations p of the sum over edges e of dists[i, p[hu[e]], p[hv[e]]],
    which is scan_sums(dists[i], hu, hv)[2] (0 for an edgeless H). For
    each permutation block, row r of a 0/1 incidence matrix marks the
    position pairs that H's edges land on under permutation r; its product
    with the (pairs, k) matrix of G-distances gives every sum. The product
    runs tile by tile, keeping a running maximum per G, so its memory stays
    flat in k. The sums are integers far below 2^53, so the float64
    products are exact.
    """
    k, n, _ = dists.shape
    rows, cols, index = _pair_index(n)
    # one row per G, so each block of G columns is one contiguous slice
    pair_dists = dists[:, rows, cols].astype(np.float64)
    width = max(1, min(k, _TILE_COLS))
    tile_rows = max(1, _TILE_MADDS // (width * max(rows.size, 1)))
    best = np.zeros(k, dtype=np.float64)
    for perms in _permutation_chunks(n):
        incidence = np.zeros((perms.shape[0], rows.size), dtype=np.float64)
        np.put_along_axis(incidence, index[perms[:, hu], perms[:, hv]], 1.0, axis=1)
        for lo in range(0, k, width):
            block = pair_dists[lo : lo + width].T
            top = best[lo : lo + width]
            for r in range(0, incidence.shape[0], tile_rows):
                np.maximum(top, (incidence[r : r + tile_rows] @ block).max(axis=0), out=top)
    return best.astype(np.int64)


def canonical_code(n: int, edges) -> tuple[int, int]:
    """Canonical bit code and automorphism count of a graph on n <= 8 vertices.

    The code is the minimum, over all orderings, of the upper triangle
    packed row by row with the first pair in the most significant bit; the
    number of orderings attaining it is the automorphism group order. Both
    are read from the code_columns sums; edges are distinct pairs (a, b)
    with a != b.
    """
    if n > _TABLE_N:
        raise ValueError(f"canonical codes need n <= {_TABLE_N}, got n={n}")
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    codes = code_columns(n, pairs[:, 0], pairs[:, 1]).sum(axis=1)
    best = int(codes.min())
    return best, int((codes == best).sum())


def edges_from_code(n: int, code: int) -> tuple[tuple[int, int], ...]:
    """Invert the canonical bit packing back into an edge tuple."""
    m = n * (n - 1) // 2
    edges = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (code >> (m - 1 - k)) & 1:
                edges.append((i, j))
            k += 1
    return tuple(edges)
