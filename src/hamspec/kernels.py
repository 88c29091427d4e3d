"""Hot loops over all n! vertex bijections, as numpy takes from small tables.

Every kernel asks one question of each permutation p: which positions
p[u] do the vertices u of H land on? The cached lexicographic table of
permutations answers it, built once per n <= 8 and held as one uint8
position per vertex and permutation (0.3 MB at n = 8).

Three kernels read it through one walk, _block_sums, for one square
matrix or a stack of them, one block per prefix: a prefix of k fixed
vertices followed by the remaining vertices arranged by the (n - k)!
table, so no table past 8! is ever built. The walk reads the prefixes it
is given. The scans give it the lexicographic k-permutations for
k = max(n - 8, 0) (_prefixes), which come in global lexicographic order,
so the first permutation attaining an extreme is the lexicographically
smallest one (the pair slice below ranks a block's rows to keep that),
and for n <= 8 the one block is the table itself. The
branch-and-bound in spectra.py gives it the prefixes that survive its
bound, one at a time. The walk reads a group of H-vertices as one uint16
column per permutation, the mixed-radix number of the group's positions,
and the group's table of matrix entries over the matrix's own labels;
both are built once per walk (_columns, _group_table). Each block reads
each table in its vertex order, one take per table axis, just before the
table's take at its column, and reads it as it is when that order is the
identity, as for every scan at n <= 8.

- scan_sums and max_sums add int16 sums, one per permutation and graph,
  and the walk holds at most 2^17 sums at a time; past 32767, |E(H)|
  times the largest |entry|, the sums are int32. It covers
  H's edges by groups of up to s vertices (_cover, one greedy pass) and
  reads each group's edges with one take from the group's table: the
  n^s entries, one per placement of the group, of the block's matrix
  summed over the group's edges. s is the largest size whose n^s table
  fits the block length and, times the stack width, the 2^17-entry tile
  (_group_size): 4 at n = 9, so a 9-cycle or 9-path is three takes per
  block, not nine; 2 for the 853 graphs of a stack at n = 7, one take
  per edge. scan_sums reads one graph, whose block is one tile: the
  spectrum, its extremes and their witnesses. A full 9! scan of a path
  takes about 0.0024-0.0028 s and a full 10! one about 0.025 s. max_sums
  reads a stack of graphs and keeps a running maximum per graph: it
  scores the 853 connected classes at n = 7 in about 0.006 s per H, and
  the 11117 at n = 8 in about 0.6-0.75 s per H.
- Both read one slice of the walk, set by orbit, the Aut(H)-orbit of
  vertex 0 that the caller finds once per H (_prefixes). An orbit of all
  n vertices reads the permutations with p[0] = 0: the prefixes that
  start with 0, for k = max(n - 8, 1), so for n <= 8 the one prefix (0,)
  over the (n - 1)! table, the first (n - 1)! columns of the n! table;
  scan_sums multiplies the counts by n. An orbit {0, m} at n >= 9 reads
  the permutations with p[0] < p[m]: H is relabelled so that m is vertex
  k, the table's slowest digit, and each block is read from its mate tail
  (_tail_row), the tail best_completion reads; scan_sums doubles the
  counts and takes each witness by its rank in H's own order
  (_swapped_rank). Any other orbit, or a pair at n <= 8, reads the whole
  walk. The lexicographically first optimum always lies in the slice. A
  cycle's 9! scan then takes about 0.0004-0.001 s instead of
  0.0034-0.0044 s, and its 10! scan 0.004 s instead of 0.035 s; a path's
  9! scan about 0.0015 s and its 10! scan 0.015 s.
- best_completion scores the (n - k)! completions of one prefix, for
  k = max(n - 8, 1), as one block and returns the block's first maximum.
  The branch-and-bound places the first k H-vertices in Python and calls
  it at each prefix that survives its bound, with mate set when an orbit
  mate of H's first vertex comes next, so that only the block's tail past
  the mirrored completions is scored. For a path or cycle H a whole block
  takes about 0.15-0.19 ms at n = 9, 0.17-0.27 ms at n = 10 and
  0.25-0.42 ms at n = 12, and a mate tail 0.09-0.11, 0.10-0.16 and
  0.13-0.23 ms (whole blocks took 0.19-0.33, 0.20-0.41 and 0.28-0.55 ms
  when each block rebuilt its group tables). A whole search over the 21
  stored 9- and 10-vertex instances of the benchmark pool takes about
  1.1 ms per call in the median and 54 ms in all (1.6 ms and 64 ms with
  rebuilt tables and no tails, in the same session; 2.0 s in all when the
  search placed every vertex in Python). It caches the columns of its
  last 16 H (_cached_columns).

code_sums reads the table directly, for n <= 8 only: each edge adds one
take of the code bits of the position pairs it lands on, so a graph's code
under every ordering is one row of n! sums, and the minimum is its
canonical code. The class enumeration in verify.py extends one base graph
to all its one-vertex extensions by subset sums of the rows of the n - 1
edges that can attach the new vertex; it takes about 0.04-0.05 s for the
853 classes at n = 7 and about 3.2-3.5 s for the 11117 at n = 8.

Timings are Python 3.11, numpy 2.4, one core of a 2-core Xeon; scans are
the best of 15 calls (5 at n = 10) on a tree plus three chords, blocks
the best of 7 runs of 50 on a tree plus three chords.
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
    table = np.fromiter(flat, dtype=np.uint8).reshape(math.factorial(n), n).T.copy()
    # shared by every caller, and walks read it without a copy
    table.setflags(write=False)
    return table


def _prefixes(n: int, orbit=(0,)):
    """Return (k, prefixes, mate, factor), the scan's walk over the n! permutations.

    orbit is the Aut(H)-orbit of H's vertex 0, or (0,) to claim no
    symmetry. The blocks are the lexicographic k-permutations of range(n)
    for k = max(n - 8, 0), in global lexicographic order, so no table past
    8! is built. The walk reads a slice of them that holds the
    lexicographically first optimum and 1/factor of the permutations at
    each sum, so the counts are multiplied by factor:

    - |orbit| = n: the permutations with p[0] = 0, which come first: the
      prefixes that start with 0, for k = max(n - 8, 1), so for n <= 8 the
      one prefix (0,) over the (n - 1)! table, the first (n - 1)! columns
      of the n! table. factor is n.
    - |orbit| = 2, say {0, m}, and n > 8: the permutations with
      p[0] < p[m], factor 2. For m < k those are the prefixes with
      prefix[0] < prefix[m]. Otherwise mate is m: the walk relabels H so
      that m becomes vertex k, the table's slowest digit, and reads each
      block from its mate tail (_tail_row).
    - any other orbit: the whole walk, factor 1.

    mate is None when the walk reads whole blocks.
    """
    if len(orbit) == n:
        k = max(n - _TABLE_N, 1)
        return k, ((0, *rest) for rest in itertools.permutations(range(1, n), k - 1)), None, n
    k = max(n - _TABLE_N, 0)
    prefixes = itertools.permutations(range(n), k)
    if len(orbit) != 2 or k == 0:
        return k, prefixes, None, 1
    m = max(orbit)
    if m < k:
        return k, (p for p in prefixes if p[0] < p[m]), None, 2
    return k, prefixes, m, 2


def _tail_row(prefix, chunk: int) -> int:
    """The first row of a block's mate tail, the completions that place
    vertex k above prefix[0]: vertex k's position is the table's slowest
    digit and the free vertices take the G-vertices off the prefix in
    ascending order, so the tail starts at c * chunk, chunk = (n - k - 1)!
    and c the number of free G-vertices below prefix[0]."""
    return (prefix[0] - sum(v < prefix[0] for v in prefix[1:])) * chunk


def _columns(n: int, k: int, groups: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """One read-only uint16 row per group, in group order, over the (n - k)! table.

    Row g is the mixed-radix number of the positions of group g's vertices,
    its first vertex the most significant digit, where vertex u's position
    is u for u < k (a prefix vertex, one position for the whole block) and
    k plus u's row of the table past it. A table of n^len entries indexed
    by those positions, flattened, is then read over a block by one take at
    the row, one entry per permutation.
    """
    table = _permutation_table(n - k)
    pos = [*range(k), *(table + np.uint8(k))]
    columns = np.zeros((len(groups), table.shape[1]), dtype=np.uint16)
    for column, vertices in zip(columns, groups):
        # uint16 holds every column: n^len is at most the block length
        # 8! < 2^16 or n^2 <= 256 (see _group_size)
        for v in vertices:
            column *= n
            column += pos[v]
    columns.setflags(write=False)
    return columns


# The branch-and-bound builds its columns once per call, for the same
# relabelled H in call after call, and holds them while its Python search
# runs. A fresh 0.2-0.4 MB array per call, live across the search,
# fragments the heap: peak RSS over 20 s of the search workload's calls
# grew from 31 to 41 MB, and with this cache to 35 MB. Scans build theirs
# afresh: their H varies from call to call, and cached columns for each
# would hold memory that no later call reads.
_cached_columns = lru_cache(maxsize=16)(_columns)


# the sums _block_sums holds at a time (256 KB as int16), and the most entries
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
    """The n^len table of one group over cells, one axis per vertex.

    Entry (a_0, ..., a_len-1), in group order, is the sum over the group's
    edges (u, v) of cells[a_i, a_j], u and v being the group's i-th and
    j-th vertex: each edge's cells broadcast on its two axes, the stack
    axis staying last. A group of one edge holds its two ends in edge
    order, so its table is cells itself, not a copy.
    """
    n = cells.shape[0]
    rest = cells.shape[2:]
    if len(edges) == 1:
        return cells
    axis = {v: i for i, v in enumerate(vertices)}
    table = np.zeros((n,) * len(vertices) + rest, dtype=cells.dtype)
    for u, v in edges:
        i, j = axis[u], axis[v]
        shape = [1] * len(vertices)
        shape[i] = shape[j] = n
        table += (cells if i < j else cells.swapaxes(0, 1)).reshape(*shape, *rest)
    return table


def _block_sums(matrix: np.ndarray, edges, k: int, cache: bool = False):
    """Return tiles(prefix, first=0), which yields (order, start, sums) over one block.

    matrix is one (n, n) matrix or a (w, n, n) stack of them, and the block
    is the permutations p extending a prefix of k distinct vertices: order
    is the prefix followed by the other vertices in ascending order, and p
    maps each vertex u to order[pos[u]], pos[u] being u's position (see
    _columns), so vertex u < k lands on prefix[u]. sums[r] holds, for the
    permutation p at row start + r of the block's table, the sum over edges
    (u, v) of matrix[..., p[u], p[v]]: one per permutation, or a row of w
    for a stack. The tiles cover the table's rows from first on. The edges,
    pairs of distinct vertices, are covered by groups of up to _group_size
    vertices, and each group adds one take from its table at its row of
    _columns(n, k, groups), from _cached_columns when cache is set.

    Neither the columns nor the group tables depend on the prefix, so a
    walk reads any prefixes it is given, in any order, against one set of
    each. A group's table is built once per walk over the matrix's own
    labels; a tile reads it in its block's positions, one take of order
    per table axis just before the take at its column, and reads it as it
    is when order is the identity (every block of a scan at n <= 8). One
    reordered table at a time is live: with all of a block's reordered
    tables live at once, a 12-vertex search took about 10^5 page faults
    per call (0.41 s against 0.27 s for a cycle H), as glibc handed the
    freed pages back after each block. A block of several tiles, a stack
    at n >= 9, reorders its tables once per tile. The sums are int16 while
    |edges| times the largest |entry| bounds them by 32767, which holds for
    any distance matrix at n <= 16 (C(n, 2) * (n - 1) <= 1800), and int32
    past that.
    """
    n = matrix.shape[-1]
    width = math.prod(matrix.shape[:-2])
    groups = _cover(edges, _group_size(n, width))
    top = len(edges) * int(np.abs(matrix).max(initial=0))
    dtype = np.int16 if top <= np.iinfo(np.int16).max else np.int32
    columns = (_cached_columns if cache else _columns)(
        n, k, tuple(tuple(vertices) for vertices, _ in groups)
    )
    # position pairs first, the stack axis last
    cells = matrix.astype(dtype)
    if cells.ndim == 3:
        cells = np.ascontiguousarray(np.moveaxis(cells, 0, -1))
    rest = cells.shape[2:]
    tables = [_group_table(cells, *group) for group in groups]
    tile = max(1, _TILE_SUMS // max(width, 1))

    def tiles(prefix, first=0):
        # not np.setdiff1d: its first call alone adds about 1.7 MB of RSS
        order = np.array([*prefix, *[v for v in range(n) if v not in prefix]], dtype=np.int64)
        reorder = tuple(prefix) != tuple(range(k))
        for start in range(first, columns.shape[1], tile):
            tile_columns = columns[:, start : start + tile]
            sums = np.zeros((tile_columns.shape[1], *rest), dtype=dtype)
            for table, column in zip(tables, tile_columns):
                if reorder:
                    for axis in range(table.ndim - len(rest)):
                        table = table.take(order, axis=axis)
                sums += table.reshape(-1, *rest).take(column, axis=0)
            yield order, start, sums

    return tiles


def _sum_tiles(matrix: np.ndarray, edges, orbit=(0,)):
    """Yield (order, start, sums) over the scan's walk, in walk order: the
    blocks of _block_sums at the prefixes of _prefixes(n, orbit), each read
    from its mate tail, with H's mate relabelled k, when the walk has one."""
    n = matrix.shape[-1]
    k, prefixes, mate, _ = _prefixes(n, orbit)
    if mate is not None:
        label = _swap(n, mate, k)
        edges = [(label[u], label[v]) for u, v in edges]
        chunk = math.factorial(n - k - 1)
    tiles = _block_sums(matrix, edges, k)
    for prefix in prefixes:
        yield from tiles(prefix, 0 if mate is None else _tail_row(prefix, chunk))


def _swap(n: int, a: int, b: int) -> list[int]:
    """range(n) with a and b swapped: H-vertex u is the walk's vertex
    label[u], and the swap is its own inverse."""
    label = list(range(n))
    label[a], label[b] = b, a
    return label


@lru_cache(maxsize=_TABLE_N)
def _swapped_rank(m: int, d: int) -> np.ndarray:
    """Entry r is the lexicographic rank of permutation r of the m! table
    read with its digits 0 and d swapped: the order, within a block, of the
    rows of a walk that relabels H's mate, in H's own labels. Read-only
    int32, 161 KB at m = 8."""
    table = _permutation_table(m)
    digits = _swap(m, 0, d)
    code = np.zeros(table.shape[1], dtype=np.int64)
    for digit in digits:
        code *= m
        code += table[digit]
    rank = np.empty(code.size, dtype=np.int32)
    rank[code.argsort()] = np.arange(code.size, dtype=np.int32)
    rank.setflags(write=False)
    return rank


def best_completion(matrix: np.ndarray, edges, k: int, mate: bool = False):
    """Return best(prefix, floor), the best permutation extending a prefix.

    matrix is (n, n), and each prefix is k distinct vertices, 1 <= k < n
    and n - k <= 8. best scores the permutations p with p[:k] = prefix as
    one block of _block_sums and returns (value, p), p a list, for the
    first p in the block whose sum over edges (u, v) of matrix[p[u], p[v]]
    is the maximum of the scored ones, or None when that maximum is not
    above floor or nothing is scored.

    mate scores only the permutations with p[k] > p[0], the block's mate
    tail (_tail_row); the branch-and-bound sets it when an automorphism of
    H maps vertex 0 to vertex k.
    """
    n = matrix.shape[0]
    table = _permutation_table(n - k)
    chunk = math.factorial(n - k - 1)
    tiles = _block_sums(matrix, edges, k, cache=True)

    def best(prefix, floor):
        first = _tail_row(prefix, chunk) if mate else 0
        if first == table.shape[1]:
            return None
        # one matrix's block, at most 8! sums, is one tile
        ((order, start, sums),) = tiles(prefix, first)
        r = int(sums.argmax())
        if sums[r] <= floor:
            return None
        return int(sums[r]), [*prefix, *order[k + table[:, start + r]].tolist()]

    return best


def code_sums(n: int, edges, out: np.ndarray | None = None) -> np.ndarray:
    """A graph's code under every ordering of the lexicographic table, for n <= 8.

    Entry r reads permutation r of the table as the map vertex -> position
    and sums, over the edges, the bit each edge sets in the code of that
    ordering: bit m - 1 - i for the i-th position pair it lands on, the
    first pair of the upper triangle being the most significant bit. The
    minimum over all n! entries is the graph's canonical code, and the
    number of entries attaining it is its automorphism count. Each edge
    adds one take of the n^2 pair bits at its positions, so no temporary
    holds more than one row of n! entries: an (n!, |edges|) array of the
    bits, 0.1-0.8 MB per graph at n = 7, sits above malloc's mmap
    threshold and cost the n = 7 enumeration about 10000 page faults, a
    fifth of its time. A code has C(n, 2) <= 28 bits at n <= 8, so the
    codes are int32; out, an int32 row of n! entries, receives them.
    """
    if n > _TABLE_N:
        raise ValueError(f"canonical codes need n <= {_TABLE_N}, got n={n}")
    rows, _, index = _pair_index(n)
    # the bit of each position pair, flat; the diagonal is never read
    bits = (1 << (rows.size - 1 - index)).astype(np.int32).reshape(-1)
    table = _permutation_table(n)
    if out is None:
        out = np.zeros(table.shape[1], dtype=np.int32)
    else:
        out.fill(0)
    for u, v in edges:
        # the flat index of the pair (p[u], p[v]), under n^2 <= 64
        out += bits.take(table[u] * np.uint8(n) + table[v])
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


def scan_sums(dist: np.ndarray, edges, orbit=(0,)):
    """Exhaustive sum scan; returns (counts, min, max, min_witness, max_witness).

    counts[s] is the number of permutations p with sum over edges (u, v) of
    dist[p[u], p[v]] equal to s, and each witness is the lexicographically
    first permutation attaining its extreme. The sums come from _sum_tiles.

    orbit is the Aut(H)-orbit of vertex 0, H the graph of the edges on
    dist's n vertices (see _prefixes). When it has n vertices the scan
    reads only the (n - 1)! permutations with p[0] = 0 and multiplies the
    counts by n. That is exact: an automorphism s of H with s(0) = x maps
    {p[0] = a} onto {p[x] = a} by p -> p . s^-1, so each count is n times
    its count at p[0] = 0; and for any optimum p, p . s with
    s(0) = p^-1(0) is an optimum with p[0] = 0, so the lexicographically
    first optimum lies in the slice. When it is {0, m} and n > 8 the scan
    reads only the n!/2 permutations with p[0] < p[m] and doubles the
    counts: the automorphism s with s(0) = m also has s(m) = 0, so
    p -> p . s swaps the two halves at equal sums, and p . s is the smaller
    of the two where p[m] < p[0]. A walk that relabels H (its mate) reads
    each block's rows out of lexicographic order, so a tile that improves
    an extreme takes, of its rows attaining it, the one first in H's own
    labels.
    """
    n = dist.shape[0]
    k, _, mate, factor = _prefixes(n, orbit)
    table = _permutation_table(n - k)
    label = list(range(n)) if mate is None else _swap(n, mate, k)
    rank = None if mate is None else _swapped_rank(n - k, mate - k)
    top = int(len(edges) * dist.max())
    counts = np.zeros(top + 1, dtype=np.int64)
    best_min, best_max = top + 1, -1
    min_wit = max_wit = None

    def witness(order, start, sums, i):
        row = start + i
        if rank is not None:
            # of the rows attaining sums[i], the first in H's own order
            ranks = rank[start : start + sums.shape[0]]
            row = start + int(np.where(sums == sums[i], ranks, rank.size).argmin())
        walk = np.concatenate([order[:k], order[k + table[:, row]]])
        return walk[label]

    for order, start, sums in _sum_tiles(dist, edges, orbit):
        counts += np.bincount(sums, minlength=top + 1)
        i = int(sums.argmin())
        if sums[i] < best_min:
            best_min = int(sums[i])
            min_wit = witness(order, start, sums, i)
        i = int(sums.argmax())
        if sums[i] > best_max:
            best_max = int(sums[i])
            max_wit = witness(order, start, sums, i)
    counts *= factor
    return counts, best_min, best_max, min_wit, max_wit


def max_sums(dists: np.ndarray, edges, orbit=(0,)) -> np.ndarray:
    """Exhaustive maximum sum for each of a stack of distance matrices.

    dists is a (s, n, n) stack; entry i of the result is the maximum over
    all permutations p of the sum over edges (u, v) of dists[i, p[u], p[v]],
    which is scan_sums(dists[i], edges)[2] (0 for an edgeless H). The sums
    come from _sum_tiles, a tile of permutations against all s graphs at a
    time, under a running maximum per graph, over the slice that orbit,
    the Aut(H)-orbit of vertex 0 as in scan_sums, allows.
    """
    best = np.zeros(dists.shape[0], dtype=np.int64)
    for _, _, sums in _sum_tiles(dists, edges, orbit):
        np.maximum(best, sums.max(axis=0), out=best)
    return best


def edges_from_code(n: int, code: int) -> tuple[tuple[int, int], ...]:
    """Invert the canonical bit packing back into an edge tuple.

    Pair k of _pair_index(n) is bit m - 1 - k of the code, as code_sums
    packs it.
    """
    rows, cols, _ = _pair_index(n)
    m = rows.size
    return tuple(
        (i, j)
        for k, (i, j) in enumerate(zip(rows.tolist(), cols.tolist()))
        if (code >> (m - 1 - k)) & 1
    )
