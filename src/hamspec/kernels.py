"""Hot loops over all n! vertex bijections, as numpy takes from small tables.

Every kernel asks one question of each permutation p: which positions
p[u] do the vertices u of H land on? _landings answers it, for one square
matrix or a stack of them, over the cached lexicographic table of
permutations, built once per n <= 8 and held as one uint8 position per
vertex and permutation (0.3 MB at n = 8), in lexicographic blocks: a
prefix of k = max(n - 8, 0) fixed vertices followed by the remaining
vertices arranged by the table, so no larger table is ever built and for
n <= 8 the one block is the table itself. The blocks come in global
lexicographic order, so the first permutation attaining an extreme is the
lexicographically smallest one. Each block reorders the matrix, or each
matrix of a stack, by its vertex order once, and the walk reads a group of
H-vertices as one uint16 column per permutation, the mixed-radix number of
the group's positions, built once per walk.

Three kernels read that one walk:

- scan_sums and max_sums add int16 sums, one per permutation and graph,
  through _sum_tiles, which holds at most 2^17 sums at a time. It covers
  H's edges by groups of up to s vertices (_cover, one greedy pass) and
  reads each group's edges with one take from the group's table: the
  n^s entries, one per placement of the group, of the block's matrix
  summed over the group's edges. s is the largest size whose n^s table
  fits the block length and, times the stack width, the 2^17-entry tile
  (_group_size): 4 at n = 9, so a 9-cycle or 9-path is three takes per
  block, not nine; 2 for the 853 graphs of a stack at n = 7, one take
  per edge. scan_sums reads one graph, whose block is one tile: the
  spectrum, its extremes and their witnesses. A 9! scan of a cycle takes
  about 0.003-0.005 s (0.005-0.010 s with one take per edge) and a 10!
  one about 0.05-0.06 s (0.09 s). max_sums reads a stack of graphs and keeps a running
  maximum per graph: it scores the 853 connected classes at n = 7 in
  about 0.006 s per H, and the 11117 at n = 8 in about 0.6-0.75 s per H.
- code_columns reads each edge as its own group, the index of each
  position pair as the table, and turns each landing into the code bit of
  its pair, for n <= 8 only: a graph's code under every ordering is the
  sum of its edges' columns, and the minimum is its canonical code. The
  class enumeration in verify.py extends one base graph to all its
  one-vertex extensions by subset sums of those columns; it takes about
  0.08 s for the 853 classes at n = 7 and about 16-18 s for the 11117 at
  n = 8.

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


def _landings(matrix: np.ndarray, groups):
    """Return (columns, blocks) for the lexicographic blocks of the n! permutations p.

    matrix is one (n, n) matrix or a (w, n, n) stack of them, and groups is
    a sequence of H-vertex tuples. blocks yields (order, cells) per block.
    order is a prefix of k = max(n - 8, 0) distinct vertices, the prefixes
    coming in lexicographic order, then the other vertices in ascending
    order; the block maps each vertex u to order[pos[u]], where pos[u] is u
    inside the prefix and k plus u's row of the cached (n - k)! table past
    it. cells is matrix reordered by order, (n, n) or, for a stack, (n, n,
    w) with the stack axis last. columns has one uint16 row per group, in
    group order: the mixed-radix number of the group's positions, its
    first vertex the most significant digit, so that a table of n^len
    entries indexed by those positions, flattened, is read over the block
    by one take at the row, one entry per permutation.
    """
    n = matrix.shape[-1]
    k = max(n - _TABLE_N, 0)
    pos = [*range(k), *(_permutation_table(n - k) + np.uint8(k))]
    columns = np.zeros((len(groups), math.factorial(n - k)), dtype=np.uint16)
    for column, vertices in zip(columns, groups):
        # uint16 holds every column: n^len is at most the block length
        # 8! < 2^16 or n^2 <= 256 (see _group_size); a prefix vertex is one
        # position for the whole block
        for v in vertices:
            column *= n
            column += pos[v]
    # position pairs first, the stack axis last
    cells = np.moveaxis(matrix, 0, -1) if matrix.ndim == 3 else matrix

    def blocks():
        for prefix in itertools.permutations(range(n), k):
            # not np.setdiff1d: its first call alone adds about 1.7 MB of RSS
            order = np.array([*prefix, *[v for v in range(n) if v not in prefix]], dtype=np.int64)
            yield order, cells[np.ix_(order, order)]

    return columns, blocks()


# the int16 sums _sum_tiles holds at a time (256 KB), and the most entries
# a table of three or more H-vertices may hold. One matrix's block, at most
# 8! sums, is one tile; a stack of w matrices is walked 2^17 // w
# permutations a tile, which keeps max_sums over the 853 classes at n = 7
# near 1 MB of traced allocations instead of 16 MB
_TILE_SUMS = 1 << 17


def _group_size(n: int, width: int) -> int:
    """The most H-vertices one table reads: the largest s >= 2 with n^s at
    most the block length min(n, 8)! and n^s * width at most _TILE_SUMS
    (2 when none is, which reads one position pair per take)."""
    block = math.factorial(min(n, _TABLE_N))
    s = 2
    while s < n and n ** (s + 1) <= block and n ** (s + 1) * width <= _TILE_SUMS:
        s += 1
    return s


def _cover(edges, size: int) -> list[tuple[list[int], list[tuple[int, int]]]]:
    """Split H's edges into (vertices, edges) groups of at most size vertices.

    A greedy pass in edge order puts each edge in exactly one group: the
    first of those needing the fewest new vertices to hold both its ends,
    or a new group when none has room. A group's vertices come in the order
    its edges first reach them.
    """
    groups: list[tuple[list[int], list[tuple[int, int]]]] = []
    for u, v in edges:
        best = None
        for vertices, members in groups:
            new = [w for w in (u, v) if w not in vertices]
            if len(vertices) + len(new) <= size and (best is None or len(new) < len(best[2])):
                best = (vertices, members, new)
        if best is None:
            best = ([], [], [u, v])
            groups.append(best[:2])
        vertices, members, new = best
        vertices.extend(new)
        members.append((u, v))
    return groups


def _group_table(cells: np.ndarray, vertices, edges) -> np.ndarray:
    """The flattened n^len table of one group over a block's cells.

    Entry (a_0, ..., a_len-1), one axis per vertex in group order, is the
    sum over the group's edges (u, v) of cells[a_i, a_j], u and v being the
    group's i-th and j-th vertex: each edge's cells broadcast on its two
    axes, the stack axis staying last. A group of one edge holds its two
    ends in edge order, so its table is cells itself, not a copy.
    """
    n = cells.shape[0]
    rest = cells.shape[2:]
    if len(edges) == 1:
        return cells.reshape(n * n, *rest)
    axis = {v: i for i, v in enumerate(vertices)}
    table = np.zeros((n,) * len(vertices) + rest, dtype=cells.dtype)
    for u, v in edges:
        i, j = axis[u], axis[v]
        shape = [1] * len(vertices)
        shape[i] = shape[j] = n
        table += (cells if i < j else cells.swapaxes(0, 1)).reshape(*shape, *rest)
    return table.reshape(-1, *rest)


def _sum_tiles(matrix: np.ndarray, edges):
    """Yield (order, start, sums) over the _landings walk, in walk order.

    sums[r] holds, for the permutation p at row start + r of the block's
    table, the sum over edges (u, v) of matrix[..., p[u], p[v]]: one int16
    per permutation, or a row of w for a stack. The edges, pairs of
    distinct vertices, are covered by groups of up to _group_size vertices,
    and each group adds one take from its table. A sum is at most
    C(n, 2) * (n - 1) <= 1800 for n <= 16, so int16 holds it.
    """
    width = math.prod(matrix.shape[:-2])
    groups = _cover(edges, _group_size(matrix.shape[-1], width))
    columns, blocks = _landings(matrix.astype(np.int16), [vertices for vertices, _ in groups])
    tile = max(1, _TILE_SUMS // max(width, 1))
    for order, cells in blocks:
        tables = [_group_table(cells, *group) for group in groups]
        for start in range(0, columns.shape[1], tile):
            tile_columns = columns[:, start : start + tile]
            sums = np.zeros((tile_columns.shape[1], *cells.shape[2:]), dtype=np.int16)
            for table, column in zip(tables, tile_columns):
                sums += table.take(column, axis=0)
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
    # each edge is its own group, its column a flat index into the n^2 pairs
    columns, blocks = _landings(index, edges)
    ((_, pairs),) = blocks
    return (1 << (rows.size - 1 - pairs.reshape(-1).take(columns))).T


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
