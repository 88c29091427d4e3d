"""Hot loops over all n! vertex bijections, as numpy takes from one table.

Every kernel asks one question of each permutation p: which pair
{p[u], p[v]} does each edge (u, v) of H land on? _landings answers it, for
any square matrix, over the cached lexicographic table of permutations,
built once per n <= 8 and held as one uint8 position per vertex and
permutation (0.3 MB at n = 8), in lexicographic blocks: a prefix of
k = max(n - 8, 0) fixed vertices followed by the remaining vertices
arranged by the table, so no larger table is ever built and for n <= 8 the
one block is the table itself. The blocks come in global lexicographic
order, so the first permutation attaining an extreme is the
lexicographically smallest one. Each block reorders the matrix by its
vertex order once, and each edge is one take from that table of n^2 <= 81
entries, at the flat column of the edge's two positions, built once per
walk.

Three kernels read that one walk, with two matrices between them:

- scan_sums reads G's distances and adds them up per permutation: the
  spectrum, its extremes and their witnesses. A 9! scan takes about
  0.01 s and a 10! one about 0.08 s.
- max_sums reads the index of each position pair and marks where H's
  edges land in a 0/1 matrix, one row per permutation; its product with
  the G-distances of a whole stack of graphs gives every sum. It scores
  the 853 connected classes at n = 7 in about 0.01 s per H, and the 11117
  at n = 8 in about 1 s per H.
- code_columns reads the same pair index and turns each landing into the
  code bit of its pair, for n <= 8 only: a graph's code under every
  ordering is the sum of its edges' columns, and the minimum is its
  canonical code. The class enumeration in verify.py extends one base
  graph to all its one-vertex extensions by subset sums of those columns;
  it takes about 0.1-0.2 s for the 853 classes at n = 7 and about 18 s for
  the 11117 at n = 8.

Timings are Python 3.11, numpy 2.4, one core of a 2-core Xeon.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

# the largest n whose whole permutation table is cached (0.3 MB of uint8
# positions at n = 8); larger n walk lexicographic blocks of it
_TABLE_N = 8


@lru_cache(maxsize=_TABLE_N)
def _permutation_table(n: int) -> np.ndarray:
    """All n! permutations of range(n) in lexicographic order, as uint8
    positions: entry [v, r] is vertex v's position in permutation r."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    table = np.fromiter(flat, dtype=np.uint8).reshape(-1, n).T.copy()
    # shared by every caller, and walks read it without a copy
    table.setflags(write=False)
    return table


def _landings(matrix: np.ndarray, edges):
    """Return (columns, blocks) for the lexicographic blocks of the n! permutations p.

    blocks yields (order, pairs) per block. order is a prefix of
    k = max(n - 8, 0) distinct vertices, the prefixes coming in
    lexicographic order, then the other vertices in ascending order; the
    block maps each vertex u to order[pos[u]], where pos[u] is u inside the
    prefix and k plus u's row of the cached (n - k)! table past it. pairs
    is matrix reordered by order and flattened, and columns holds one flat
    column pos[u] * n + pos[v] per edge (u, v), in edge order, so that
    pairs.take(column) is matrix[p[u], p[v]] over the block.
    """
    n = matrix.shape[0]
    k = max(n - _TABLE_N, 0)
    pos = [*range(k), *(_permutation_table(n - k) + np.uint8(k))]
    # uint8 holds every flat column, below n * n <= 256 for n <= 16
    columns = [pos[u] * n + pos[v] for u, v in edges]

    def blocks():
        for prefix in itertools.permutations(range(n), k):
            # not np.setdiff1d: its first call alone adds about 1.7 MB of RSS
            order = np.array([*prefix, *[v for v in range(n) if v not in prefix]], dtype=np.int64)
            yield order, matrix[np.ix_(order, order)].ravel()

    return columns, blocks()


def code_columns(n: int, edges) -> np.ndarray:
    """Canonical-code weight of each edge under every ordering, for n <= 8.

    Row r reads permutation r of the lexicographic table as the map vertex ->
    position, and entry (r, e) is the bit that edge e sets in the code of
    that ordering: bit m - 1 - i for the i-th position pair it lands on, the
    first pair of the upper triangle being the most significant bit. A
    graph's code under ordering r is the sum of its edges' entries in row r;
    the minimum over all n! rows is its canonical code, and the number of
    rows attaining it is its automorphism count.
    """
    if n > _TABLE_N:
        raise ValueError(f"canonical codes need n <= {_TABLE_N}, got n={n}")
    rows, _, index = _pair_index(n)
    columns, blocks = _landings(index, edges)
    ((_, pairs),) = blocks
    out = np.empty((math.factorial(n), len(edges)), dtype=np.int64)
    for e, column in enumerate(columns):
        out[:, e] = 1 << (rows.size - 1 - pairs.take(column))
    return out


@lru_cache(maxsize=_TABLE_N)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle position pairs (rows, cols), row by row, and the
    symmetric matrix of each pair's index in that order (0 on the diagonal)."""
    rows, cols = np.triu_indices(n, k=1)
    index = np.zeros((n, n), dtype=np.int64)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size, dtype=np.int64)
    # cached and read-only: building them takes about 20 us, ten times what
    # edges_from_code does with them, and a sweep decodes about 1000 codes
    for array in (rows, cols, index):
        array.setflags(write=False)
    return rows, cols, index


def scan_sums(dist: np.ndarray, edges):
    """Exhaustive sum scan; returns (counts, min, max, min_witness, max_witness).

    counts[s] is the number of permutations p with sum over edges (u, v) of
    dist[p[u], p[v]] equal to s, and each witness is the lexicographically
    first permutation attaining its extreme. Each block adds one take per
    edge from its _landings pairs, n^2 <= 81 distances, to an int32 sum per
    permutation.
    """
    n = dist.shape[0]
    table = _permutation_table(min(n, _TABLE_N))
    k = n - table.shape[0]
    m = len(edges)
    top = int(m * dist.max()) if m else 0
    # a sum is at most m * diam(G) <= 66 * 11 for n <= 12, so int32 holds it
    sums = np.empty(table.shape[1], dtype=np.int32)
    counts = np.zeros(top + 1, dtype=np.int64)
    min_wit = np.zeros(n, dtype=np.int64)
    max_wit = np.zeros(n, dtype=np.int64)
    best_min, best_max = top + 1, -1
    columns, blocks = _landings(dist.astype(np.int32), edges)
    for order, pairs in blocks:
        sums.fill(0)
        for column in columns:
            sums += pairs.take(column)
        counts += np.bincount(sums, minlength=top + 1)
        i = int(sums.argmin())
        if sums[i] < best_min:
            best_min = int(sums[i])
            min_wit[:k] = order[:k]
            min_wit[k:] = order[k + table[:, i]]
        i = int(sums.argmax())
        if sums[i] > best_max:
            best_max = int(sums[i])
            max_wit[:k] = order[:k]
            max_wit[k:] = order[k + table[:, i]]
    return counts, best_min, best_max, min_wit, max_wit


# max_sums multiplies as many permutations at a time by the whole (pairs, k)
# distance stack as keep one product at 2^18 multiply-adds or fewer. OpenBLAS
# runs a product that small on the calling thread; larger ones woke its
# second thread, which on a busy 2-core host made a 5040 x 21 x 256 product
# take 6-16 ms instead of 0.2 ms (0.22 s against 0.01 s per H at n = 7).
_TILE_MADDS = 1 << 18


def max_sums(dists: np.ndarray, edges) -> np.ndarray:
    """Exhaustive maximum sum for each of a stack of distance matrices.

    dists is a (k, n, n) stack; entry i of the result is the maximum over
    all permutations p of the sum over edges (u, v) of dists[i, p[u], p[v]],
    which is scan_sums(dists[i], edges)[2] (0 for an edgeless H). For each
    block, row r of a 0/1 incidence matrix marks the position pairs that
    the edges land on under permutation r (the _landings of the pair index
    matrix); its product with the (pairs, k) matrix of G-distances gives
    every sum. The product runs a slice of incidence rows at a time against
    all k graphs, keeping a running maximum per G. The sums are integers
    far below 2^53, so the float64 products are exact.
    """
    k, n, _ = dists.shape
    rows, cols, index = _pair_index(n)
    pair_dists = dists[:, rows, cols].astype(np.float64).T
    tile_rows = max(1, _TILE_MADDS // max(k * rows.size, 1))
    best = np.zeros(k, dtype=np.float64)
    incidence = np.empty((math.factorial(min(n, _TABLE_N)), rows.size), dtype=np.float64)
    perm_rows = np.arange(incidence.shape[0])
    columns, blocks = _landings(index, edges)
    for _, pairs in blocks:
        incidence.fill(0.0)
        for column in columns:
            incidence[perm_rows, pairs.take(column)] = 1.0
        for r in range(0, incidence.shape[0], tile_rows):
            np.maximum(best, (incidence[r : r + tile_rows] @ pair_dists).max(axis=0), out=best)
    return best.astype(np.int64)


def edges_from_code(n: int, code: int) -> tuple[tuple[int, int], ...]:
    """Invert the canonical bit packing back into an edge tuple.

    Pair k of _pair_index(n) is bit m - 1 - k of the code, as code_columns
    packs it.
    """
    rows, cols, _ = _pair_index(n)
    m = rows.size
    return tuple(
        (i, j)
        for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist()))
        if (code >> (m - 1 - k)) & 1
    )
