"""Hot loops over all n! vertex bijections, as numpy takes from one table.

Every kernel asks one question of each permutation p: which pair
{p[u], p[v]} does each edge (u, v) of H land on? _landings answers it, for
one square matrix or a stack of them, over the cached lexicographic table
of permutations, built once per n <= 8 and held as one uint8 position per
vertex and permutation (0.3 MB at n = 8), in lexicographic blocks: a
prefix of k = max(n - 8, 0) fixed vertices followed by the remaining
vertices arranged by the table, so no larger table is ever built and for
n <= 8 the one block is the table itself. The blocks come in global lexicographic
order, so the first permutation attaining an extreme is the
lexicographically smallest one. Each block reorders the matrix, or each
matrix of a stack, by its vertex order once into n^2 <= 81 rows, and each
edge is one take of rows at the flat column of the edge's two positions,
built once per walk.

Three kernels read that one walk:

- scan_sums and max_sums add each edge's take of G-distances into int16
  sums, one per permutation and graph, through _sum_tiles, which holds
  at most 2^17 sums at a time. scan_sums reads one graph, whose block is
  one tile: the spectrum, its extremes and their witnesses. A 9! scan
  takes about 0.009 s and a 10! one about 0.09 s. max_sums reads a stack
  of graphs and keeps a running maximum per graph: it scores the 853
  connected classes at n = 7 in about 0.006 s per H, and the 11117 at
  n = 8 in about 0.6-0.75 s per H.
- code_columns reads the index of each position pair and turns each
  landing into the code bit of its pair, for n <= 8 only: a graph's code
  under every ordering is the sum of its edges' columns, and the minimum
  is its canonical code. The class enumeration in verify.py extends one
  base graph to all its one-vertex extensions by subset sums of those
  columns; it takes about 0.08 s for the 853 classes at n = 7 and about
  16-18 s for the 11117 at n = 8.

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

    matrix is one (n, n) matrix or a (s, n, n) stack of them. blocks yields
    (order, cells) per block. order is a prefix of k = max(n - 8, 0)
    distinct vertices, the prefixes coming in lexicographic order, then the
    other vertices in ascending order; the block maps each vertex u to
    order[pos[u]], where pos[u] is u inside the prefix and k plus u's row
    of the cached (n - k)! table past it. cells is matrix reordered by
    order and flattened to n^2 rows, each one entry or, for a stack, the s
    entries of one position pair. columns has one row per edge (u, v), in
    edge order, of flat columns pos[u] * n + pos[v], so that
    cells.take(columns[e], axis=0) is matrix[..., p[u], p[v]] over the
    block, one row per permutation.
    """
    n = matrix.shape[-1]
    k = max(n - _TABLE_N, 0)
    pos = [*range(k), *(_permutation_table(n - k) + np.uint8(k))]
    columns = np.empty((len(edges), math.factorial(n - k)), dtype=np.uint8)
    for e, (u, v) in enumerate(edges):
        # uint8 holds every flat column, below n * n <= 256 for n <= 16; an
        # edge inside the prefix has one column for the whole block
        columns[e] = pos[u] * n + pos[v]
    # position pairs first, the stack axis last
    cells = np.moveaxis(matrix, 0, -1) if matrix.ndim == 3 else matrix

    def blocks():
        for prefix in itertools.permutations(range(n), k):
            # not np.setdiff1d: its first call alone adds about 1.7 MB of RSS
            order = np.array([*prefix, *[v for v in range(n) if v not in prefix]], dtype=np.int64)
            yield order, cells[np.ix_(order, order)].reshape(n * n, *cells.shape[2:])

    return columns, blocks()


# the int16 sums _sum_tiles holds at a time (256 KB). One matrix's block, at
# most 8! sums, is one tile; a stack of s matrices is walked 2^17 // s
# permutations a tile, which keeps max_sums over the 853 classes at n = 7
# near 1 MB of traced allocations instead of 16 MB
_TILE_SUMS = 1 << 17


def _sum_tiles(matrix: np.ndarray, edges):
    """Yield (order, start, sums) over the _landings walk, in walk order.

    sums[r] holds, for the permutation p at row start + r of the block's
    table, the sum over edges (u, v) of matrix[..., p[u], p[v]]: one int16
    per permutation, or a row of s for a stack. Each edge adds one take
    from the block's cells. A sum is at most C(n, 2) * (n - 1) <= 1800 for
    n <= 16, so int16 holds it.
    """
    columns, blocks = _landings(matrix.astype(np.int16), edges)
    width = math.prod(matrix.shape[:-2])
    tile = max(1, _TILE_SUMS // max(width, 1))
    for order, cells in blocks:
        for start in range(0, columns.shape[1], tile):
            tile_columns = columns[:, start : start + tile]
            sums = np.zeros((tile_columns.shape[1], *cells.shape[1:]), dtype=np.int16)
            for column in tile_columns:
                sums += cells.take(column, axis=0)
            yield order, start, sums


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
    return (1 << (rows.size - 1 - pairs.take(columns))).T


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
    first permutation attaining its extreme. The sums come from _sum_tiles.
    """
    n = dist.shape[0]
    table = _permutation_table(min(n, _TABLE_N))
    k = n - table.shape[0]
    top = int(len(edges) * dist.max())
    counts = np.zeros(top + 1, dtype=np.int64)
    min_wit = np.zeros(n, dtype=np.int64)
    max_wit = np.zeros(n, dtype=np.int64)
    best_min, best_max = top + 1, -1
    for order, start, sums in _sum_tiles(dist, edges):
        counts += np.bincount(sums, minlength=top + 1)
        i = int(sums.argmin())
        if sums[i] < best_min:
            best_min = int(sums[i])
            min_wit[:k] = order[:k]
            min_wit[k:] = order[k + table[:, start + i]]
        i = int(sums.argmax())
        if sums[i] > best_max:
            best_max = int(sums[i])
            max_wit[:k] = order[:k]
            max_wit[k:] = order[k + table[:, start + i]]
    return counts, best_min, best_max, min_wit, max_wit


def max_sums(dists: np.ndarray, edges) -> np.ndarray:
    """Exhaustive maximum sum for each of a stack of distance matrices.

    dists is a (s, n, n) stack; entry i of the result is the maximum over
    all permutations p of the sum over edges (u, v) of dists[i, p[u], p[v]],
    which is scan_sums(dists[i], edges)[2] (0 for an edgeless H). The sums
    come from _sum_tiles, a tile of permutations against all s graphs at a
    time, under a running maximum per graph.
    """
    best = np.zeros(dists.shape[0], dtype=np.int16)
    for _, _, sums in _sum_tiles(dists, edges):
        np.maximum(best, sums.max(axis=0), out=best)
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
