"""Hot loops over all n! vertex bijections, with two interchangeable backends.

The numpy backend is the one that runs where numba is not installed. For
n <= 8 it works from one cached lexicographic table of all n! permutations
(2.6 MB at n = 8): the sum scan reads the table as a single chunk, and the
canonical code of a graph under every ordering is a sum of one weight
column per edge, gathered from the table (see code_columns). The class
enumeration in verify.py uses those columns to extend one base graph to
all its one-vertex extensions by subset sums; it takes about 0.2 s for the
853 classes at n = 7 and about 18 s for the 11117 at n = 8 (Python 3.11,
numpy 2.4, one core of a 2-core Xeon). For n >= 9 the scan and the
canonical code generate permutations in chunks of _NUMPY_CHUNK instead of
caching a table (26 MB at n = 9).

The numba backend compiles the scalar loops below; it is picked when numba
imports cleanly. Set HAMSPEC_KERNEL to "numba" or "numpy" to force one; any
other value (or unset) means numba if importable. Both backends return
identical results, including the lexicographically smallest witness
permutations.
"""

from __future__ import annotations

import itertools
import math
import os
from functools import lru_cache

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

_ENV_VAR = "HAMSPEC_KERNEL"
_NUMPY_CHUNK = 40320


def active_backend() -> str:
    """Backend selected by HAMSPEC_KERNEL: 'numba' or 'numpy'."""
    choice = os.environ.get(_ENV_VAR, "auto").strip().lower()
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError(f"{_ENV_VAR}=numba but numba is not importable")
        return "numba"
    return "numba" if HAVE_NUMBA else "numpy"


def _resolve(backend: str | None) -> str:
    if backend is None:
        return active_backend()
    if backend == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    if backend not in ("numba", "numpy"):
        raise ValueError(f"unknown kernel backend {backend!r}")
    return backend


def _next_permutation(perm):
    """Advance perm to its lexicographic successor; False after the last one."""
    n = perm.shape[0]
    i = n - 2
    while i >= 0 and perm[i] >= perm[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = n - 1
    while perm[j] <= perm[i]:
        j -= 1
    perm[i], perm[j] = perm[j], perm[i]
    lo = i + 1
    hi = n - 1
    while lo < hi:
        perm[lo], perm[hi] = perm[hi], perm[lo]
        lo += 1
        hi -= 1
    return True


def _sum_scan_loop(dist, hu, hv, counts, min_wit, max_wit):
    """Histogram edge-distance sums over all permutations of range(n).

    Fills counts[s] with the number of permutations achieving sum s and
    records the lexicographically first permutation attaining the minimum
    and the maximum. Returns (best_min, best_max).
    """
    n = dist.shape[0]
    m = hu.shape[0]
    perm = np.arange(n, dtype=np.int64)
    best_min = np.int64(counts.shape[0])
    best_max = np.int64(-1)
    more = True
    while more:
        s = np.int64(0)
        for e in range(m):
            s += dist[perm[hu[e]], perm[hv[e]]]
        counts[s] += 1
        if s < best_min:
            best_min = s
            for i in range(n):
                min_wit[i] = perm[i]
        if s > best_max:
            best_max = s
            for i in range(n):
                max_wit[i] = perm[i]
        more = _next_permutation(perm)
    return best_min, best_max


def _canonical_loop(adj):
    """Minimum adjacency bit code over all permutations, with its multiplicity.

    The code packs the upper triangle row by row, first pair into the most
    significant bit. The multiplicity of the minimum is the automorphism
    group order.
    """
    n = adj.shape[0]
    perm = np.arange(n, dtype=np.int64)
    best = np.int64(0x7FFFFFFFFFFFFFFF)
    hits = np.int64(0)
    more = True
    while more:
        code = np.int64(0)
        for i in range(n):
            for j in range(i + 1, n):
                code = (code << 1) | adj[perm[i], perm[j]]
        if code < best:
            best = code
            hits = 1
        elif code == best:
            hits += 1
        more = _next_permutation(perm)
    return best, hits


if HAVE_NUMBA:
    _next_permutation = njit(cache=True, nogil=True)(_next_permutation)
    _sum_scan_numba = njit(cache=True, nogil=True)(_sum_scan_loop)
    _canonical_numba = njit(cache=True, nogil=True)(_canonical_loop)


@lru_cache(maxsize=8)
def _permutation_table(n: int) -> np.ndarray:
    """All n! permutations of range(n) as rows, in lexicographic order."""
    table = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int64,
    )
    return table.reshape(-1, n)


def _permutation_chunks(n: int):
    """Row blocks of all n! permutations in lexicographic order."""
    if math.factorial(n) <= _NUMPY_CHUNK:
        yield _permutation_table(n)
        return
    perm_iter = itertools.permutations(range(n))
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(perm_iter, _NUMPY_CHUNK)),
            dtype=np.int64,
        )
        if flat.size == 0:
            return
        yield flat.reshape(-1, n)


def _sum_scan_numpy(dist, hu, hv, counts, min_wit, max_wit):
    best_min = counts.shape[0]
    best_max = -1
    for perms in _permutation_chunks(dist.shape[0]):
        if hu.size:
            sums = dist[perms[:, hu], perms[:, hv]].sum(axis=1)
        else:
            sums = np.zeros(perms.shape[0], dtype=np.int64)
        counts += np.bincount(sums, minlength=counts.shape[0])
        k = int(sums.argmin())
        if sums[k] < best_min:
            best_min = int(sums[k])
            min_wit[:] = perms[k]
        k = int(sums.argmax())
        if sums[k] > best_max:
            best_max = int(sums[k])
            max_wit[:] = perms[k]
    return best_min, best_max


def code_columns(n: int, us, vs) -> np.ndarray:
    """Canonical-code weight of each edge (us[k], vs[k]) under every ordering.

    Row r reads permutation r of the lexicographic table as the map vertex ->
    position, and entry (r, k) is the bit that edge k sets in the code of
    that ordering: the weight of the position pair it lands on, the first
    pair of the upper triangle being the most significant bit. A graph's
    code under ordering r is the sum of its edges' entries in row r. Rows
    range over all n! orderings, so the minimum of those sums and its
    multiplicity are the canonical code and the automorphism count that
    _canonical_loop computes.
    """
    perms = _permutation_table(n)
    return _pair_weights(n)[perms[:, us], perms[:, vs]]


def _pair_weights(n: int) -> np.ndarray:
    """Symmetric matrix of the code bit each position pair sets, first pair highest."""
    rows, cols = np.triu_indices(n, k=1)
    weights = np.zeros((n, n), dtype=np.int64)
    weights[rows, cols] = np.int64(1) << np.arange(rows.size - 1, -1, -1, dtype=np.int64)
    return weights + weights.T


def _canonical_numpy(adj):
    """Running minimum code and its count over the permutation chunks.

    For n <= 8 the single chunk is the cached table, so this is the sum of
    code_columns; past it no n! table is built or cached.
    """
    n = adj.shape[0]
    us, vs = np.nonzero(np.triu(adj, k=1))
    weights = _pair_weights(n)
    best = None
    hits = 0
    for perms in _permutation_chunks(n):
        codes = weights[perms[:, us], perms[:, vs]].sum(axis=1)
        low = int(codes.min())
        if best is None or low < best:
            best, hits = low, 0
        if low == best:
            hits += int((codes == low).sum())
    return best, hits


def scan_sums(dist: np.ndarray, hu: np.ndarray, hv: np.ndarray, backend: str | None = None):
    """Exhaustive sum scan; returns (counts, min, max, min_witness, max_witness)."""
    n = dist.shape[0]
    m = hu.shape[0]
    top = int(m * dist.max()) if m else 0
    counts = np.zeros(top + 1, dtype=np.int64)
    min_wit = np.zeros(n, dtype=np.int64)
    max_wit = np.zeros(n, dtype=np.int64)
    chosen = _resolve(backend)
    if chosen == "numba":
        best_min, best_max = _sum_scan_numba(dist, hu, hv, counts, min_wit, max_wit)
    else:
        best_min, best_max = _sum_scan_numpy(dist, hu, hv, counts, min_wit, max_wit)
    return counts, int(best_min), int(best_max), min_wit, max_wit


def canonical_code(adj: np.ndarray, backend: str | None = None) -> tuple[int, int]:
    """Canonical bit code and automorphism count of an adjacency matrix."""
    n = adj.shape[0]
    if n * (n - 1) // 2 > 62:
        raise ValueError(f"canonical code needs n*(n-1)/2 <= 62 bits, got n={n}")
    chosen = _resolve(backend)
    if chosen == "numba":
        code, hits = _canonical_numba(adj)
    else:
        code, hits = _canonical_numpy(adj)
    return int(code), int(hits)


def adjacency_matrix(n: int, edges) -> np.ndarray:
    """Dense int64 0/1 adjacency matrix for the kernel entry points."""
    adj = np.zeros((n, n), dtype=np.int64)
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1
    return adj


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
