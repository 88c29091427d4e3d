"""Distance sums over vertex bijections and the numbers they induce.

Given two graphs H and G on the same number of vertices, each bijection f
from V(H) to V(G) gets the sum of G-distances d(f(x), f(y)) over the edges
{x, y} of H. The achievable sums form the spectrum; its minimum and maximum
are the lower and upper numbers. Taking H to be a cycle or a path recovers
the classic Hamiltonian and traceable numbers.

G must be connected so distances are finite; H may be disconnected.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from . import kernels
from .graphs import (
    Graph,
    GraphError,
    adjacency,
    distance_matrix,
    is_connected,
    make_cycle,
    make_path,
    _bfs,
)

# n! grows too fast for exhaustive scans much past this; spectrum refuses
# larger n, and every exhaustive number reads spectrum
EXHAUSTIVE_CAP = 9


def _check_scan_cap(n: int) -> None:
    """Refuse an exhaustive scan over n! bijections for n above EXHAUSTIVE_CAP."""
    if n > EXHAUSTIVE_CAP:
        raise GraphError(
            f"exhaustive scan over {n}! permutations exceeds cap n <= {EXHAUSTIVE_CAP}"
        )


def _check_same_order(h: Graph, g: Graph) -> None:
    if h.n != g.n:
        raise GraphError(f"vertex counts differ: H has {h.n}, G has {g.n}")


def _check_connected(g: Graph) -> None:
    if not is_connected(g):
        raise GraphError("a distance sum needs a connected G")


def _check_bijection(f, n: int) -> tuple[int, ...]:
    """f as a tuple of ints, each entry read by operator.index, so numpy
    integers become ints and floats are refused."""
    f = tuple(f)
    try:
        ints = tuple(map(operator.index, f))
    except TypeError:
        raise GraphError(f"{f!r} is not a bijection on range({n})") from None
    if sorted(ints) != list(range(n)):
        raise GraphError(f"{f!r} is not a bijection on range({n})")
    return ints


def pseudo_sum(h: Graph, g: Graph, f) -> int:
    """Sum of G-distances d(f(x), f(y)) over the edges {x, y} of H."""
    _check_same_order(h, g)
    f = _check_bijection(f, g.n)
    dg = distance_matrix(g)
    return int(sum(dg[f[a], f[b]] for a, b in h.edges))


@dataclass(frozen=True)
class SpectrumReport:
    """Distinct sums with multiplicities, extremes, and witness bijections."""

    values: tuple[tuple[int, int], ...]
    min: int
    max: int
    min_witness: tuple[int, ...]
    max_witness: tuple[int, ...]
    enumerated: int

    def value_set(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.values)

    def to_dict(self) -> dict:
        return {
            "values": [[v, c] for v, c in self.values],
            "min": self.min,
            "max": self.max,
            "min_witness": list(self.min_witness),
            "max_witness": list(self.max_witness),
            "enumerated": self.enumerated,
        }


def spectrum(h: Graph, g: Graph) -> SpectrumReport:
    """Every achievable sum over all bijections, with multiplicities.

    Witnesses are the lexicographically smallest bijections attaining the
    extremes, so reports are reproducible across runs. The scan covers all
    n! bijections, so n above EXHAUSTIVE_CAP is refused. It reads a slice
    set by the Aut(H)-orbit of vertex 0 (see kernels.scan_sums): for a
    vertex-transitive H the (n - 1)! bijections with f(0) = 0, each
    counted n times; for an orbit {0, m} at n >= 9, as for the path, the
    n!/2 with f(0) < f(m), each counted twice; otherwise all n!.
    """
    _check_same_order(h, g)
    _check_connected(g)
    _check_scan_cap(g.n)
    dg = distance_matrix(g)
    counts, best_min, best_max, min_wit, max_wit = kernels.scan_sums(
        dg, h.edges, orbit=_aut_orbit(adjacency(h), 0)
    )
    values = tuple((s, int(c)) for s, c in enumerate(counts) if c)
    return SpectrumReport(
        values=values,
        min=best_min,
        max=best_max,
        min_witness=tuple(int(x) for x in min_wit),
        max_witness=tuple(int(x) for x in max_wit),
        enumerated=math.factorial(g.n),
    )


def _aut_orbit(adj: tuple[tuple[int, ...], ...], x0: int) -> set[int]:
    """Vertices that some automorphism of the graph with neighbor tuples adj maps x0 to.

    The orbit starts as {x0} and is kept closed under every automorphism
    found so far. Each candidate x of x0's degree that it does not yet hold
    gets one backtracking search for an automorphism sending x0 to x:
    vertices are mapped by BFS distance from x0 (the other components after
    it), each to an unused vertex of the same degree whose adjacency to
    every vertex mapped so far matches.
    """
    n = len(adj)
    nbrs = [set(a) for a in adj]
    dist = _bfs(adj, x0)
    seq = sorted(range(n), key=lambda v: (dist[v] < 0, dist[v], v))
    sigma = [-1] * n
    taken = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        v = seq[k]
        for w in range(n):
            if taken[w] or len(adj[w]) != len(adj[v]):
                continue
            if any((u in nbrs[v]) != (sigma[u] in nbrs[w]) for u in seq[:k]):
                continue
            sigma[v] = w
            taken[w] = True
            if extend(k + 1):
                return True
            taken[w] = False
        sigma[v] = -1
        return False

    orbit = {x0}
    found: list[list[int]] = []
    for x in range(n):
        if x in orbit or len(adj[x]) != len(adj[x0]):
            continue
        sigma[x0] = x
        taken[x] = True
        if extend(1):
            found.append(sigma[:])
            frontier = list(orbit)
            while frontier:
                v = frontier.pop()
                for automorphism in found:
                    w = automorphism[v]
                    if w not in orbit:
                        orbit.add(w)
                        frontier.append(w)
        sigma[:] = [-1] * n
        taken[:] = [False] * n
    return orbit


def _search_order(adj: tuple[tuple[int, ...], ...], k: int) -> tuple[list[int], set[int]]:
    """The branch-and-bound's vertex order for a prefix of k, and x0's Aut(H)-orbit.

    The order is descending degree, ties by label, and x0 is its first
    vertex. When an orbit mate of x0 lies at depth k or later, the first
    such moves to depth k, the first vertex a kernel block places, and the
    others keep their order; with k = n (no blocks) the order is unchanged.
    """
    order = sorted(range(len(adj)), key=lambda v: (-len(adj[v]), v))
    orbit = _aut_orbit(adj, order[0])
    mate = next((v for v in order[k:] if v in orbit), None)
    if mate is not None:
        order.remove(mate)
        order.insert(k, mate)
    return order, orbit


def _branch_and_bound(
    h: Graph, g: Graph, sense: str, incumbent: int | None = None, blocks: bool = True
) -> tuple[int, tuple[int, ...]]:
    """Exact extremal sum by a bound-pruned depth-first walk of kernel blocks.

    The minimum is the maximum over negated distances, so one search with
    one bound serves both senses: it maximizes sign * d for sign = +1 (max)
    or -1 (min) and returns sign times the best value. H is relabelled by
    the search order (_search_order), and a Python depth-first search
    places its first k = max(n - 8, 1) vertices; each prefix that survives
    the bound gets its (n - k)! completions scored as one block by the
    take-and-add walk of the exhaustive scan (kernels.best_completion), and
    the block's best raises the incumbent when it beats it. A partial
    assignment is pruned when its bound cannot beat the incumbent strictly.
    The bound, on sign * d, is the finished edges plus the smaller of two
    bounds on the remaining ones:

    - each edge with one end u placed adds at most ecc_G(f(u)), and the
      edges with no end placed add at most the sum of that many largest
      distances over distinct pairs of G (distinct H-edges land on distinct
      G-pairs);
    - all remaining edges together add at most the sum of that many largest
      distinct-pair distances.

    Symmetries of H are broken on the first vertex x0: every coset
    {f . sigma : sigma in Aut(H)} has one score and a member that maps x0
    below every other vertex of x0's Aut(H)-orbit O, so x0 only takes the
    G-vertices 0..n - |O| and the other orbit vertices in the prefix only
    take G-vertices above f(x0). So does the orbit mate that the search
    order puts at depth k, the first vertex a block places: the block
    scores only its completions that place the mate above f(x0), one tail
    of its table (kernels.best_completion's mate). The other orbit vertices
    inside a block are not restricted, so the search reads a superset of
    those members. The witness is mapped back to H's labels; it is the
    first optimum found, an optimum but not necessarily the
    lexicographically smallest.

    An incumbent value starts the search as the best found so far, so only
    bijections strictly better than it are completed; when none is, the
    result is (incumbent, ()). blocks=False places every vertex in Python,
    k = n, so each edge is checked as soon as both its ends are placed.
    """
    n = g.n
    sign = 1 if sense == "max" else -1
    dist = sign * distance_matrix(g)
    dg = dist.tolist()
    ecc = [max(row) for row in dg]
    top = [0]
    for d in sorted((dg[a][b] for a in range(n) for b in range(a + 1, n)), reverse=True):
        top.append(top[-1] + d)
    h_adj = adjacency(h)
    k = max(n - kernels._TABLE_N, 1) if blocks else n
    order, orbit = _search_order(h_adj, k)
    position = [0] * n
    for depth, v in enumerate(order):
        position[v] = depth
    # H relabelled by the search order: vertex depth is H's order[depth]
    edges = [(position[u], position[v]) for u, v in h.edges]
    placed_nbrs = [[position[u] for u in h_adj[v] if position[u] < depth] for depth, v in enumerate(order)]
    later = [len(h_adj[v]) - len(placed_nbrs[depth]) for depth, v in enumerate(order)]
    remaining = [0] * (n + 1)
    inner = [0] * (n + 1)
    for depth in range(n - 1, -1, -1):
        remaining[depth] = remaining[depth + 1] + len(placed_nbrs[depth])
        inner[depth] = inner[depth + 1] + later[depth]
    in_orbit = [depth > 0 and v in orbit for depth, v in enumerate(order)]
    # the cap added by placing vertex depth on gv: its edges to later vertices
    opening = [[m * e for e in ecc] for m in later]
    zero_row = [0] * n
    best = kernels.best_completion(dist, edges, k, mate=order[k] in orbit) if k < n else None

    fmap = [-1] * n
    used = [False] * n
    best_val = -math.inf if incumbent is None else sign * incumbent
    best_wit: list[int] = []

    def search(depth: int, partial: int, cap: int) -> None:
        nonlocal best_val, best_wit
        if depth == k:
            if k == n:
                best_val, best_wit = partial, fmap[:]
            elif (found := best(fmap[:k], best_val)) is not None:
                best_val, best_wit = found
            return
        images = [fmap[u] for u in placed_nbrs[depth]]
        # gains[gv]: what placing vertex depth on gv adds to the finished edges
        if len(images) == 1:
            gains = dg[images[0]]
        else:
            gains = list(map(sum, zip(zero_row, *[dg[x] for x in images])))
        closed = cap
        for x in images:
            closed -= ecc[x]
        opened = opening[depth]
        inner_top = top[inner[depth + 1]]
        remaining_top = top[remaining[depth + 1]]
        if depth == 0:
            choices = range(n - len(orbit) + 1)
        else:
            choices = range(fmap[0] + 1 if in_orbit[depth] else 0, n)
        for gv in choices:
            if used[gv]:
                continue
            gained = partial + gains[gv]
            child_cap = closed + opened[gv]
            bound = child_cap + inner_top
            if bound > remaining_top:
                bound = remaining_top
            if gained + bound <= best_val:
                continue
            used[gv] = True
            fmap[depth] = gv
            search(depth + 1, gained, child_cap)
            used[gv] = False
        fmap[depth] = -1

    search(0, 0, 0)
    return sign * best_val, tuple(best_wit[position[v]] for v in range(n)) if best_wit else ()


def extremal_number(
    h: Graph,
    g: Graph,
    sense: str,
    method: str = "exhaustive",
) -> tuple[int, tuple[int, ...]]:
    """Minimum or maximum achievable sum, with a witness bijection.

    method='exhaustive' reads the extreme and its witness (the
    lexicographically smallest) from spectrum(h, g), under its default cap;
    method='bnb' maximizes over distances negated for min, so both senses
    run one search with one admissible bound (the smaller of an
    eccentricity-plus-distinct-pairs bound and a distinct-pairs bound) and
    Aut(H)-orbit symmetry breaking: a Python depth-first search places the
    first k = max(n - 8, 1) H-vertices, and the kernel scores the (n - k)!
    completions of each prefix that survives the bound as one block. It
    returns the first optimal witness it finds: an optimum, not necessarily
    the lexicographically smallest (see _branch_and_bound).
    """
    _check_same_order(h, g)
    _check_connected(g)
    if sense not in ("min", "max"):
        raise GraphError(f"sense must be 'min' or 'max', got {sense!r}")
    if method == "bnb":
        return _branch_and_bound(h, g, sense)
    if method != "exhaustive":
        raise GraphError(f"method must be 'exhaustive' or 'bnb', got {method!r}")
    report = spectrum(h, g)
    if sense == "min":
        return report.min, report.min_witness
    return report.max, report.max_witness


class ClassicNumbers(NamedTuple):
    h: int
    h_plus: int
    t: int
    t_plus: int


def traceable_numbers(g: Graph) -> tuple[int, int]:
    """Minimum and maximum open-tour sums; defined from n = 2 up."""
    if g.n < 2:
        raise GraphError(f"traceable numbers need n >= 2, got n={g.n}")
    report = spectrum(make_path(g.n), g)
    return report.min, report.max


def hamiltonian_numbers(g: Graph) -> tuple[int, int]:
    """Minimum and maximum closed-tour sums; defined from n = 3 up."""
    if g.n < 3:
        raise GraphError(f"hamiltonian numbers need n >= 3, got n={g.n}")
    report = spectrum(make_cycle(g.n), g)
    return report.min, report.max


def classic_numbers(g: Graph) -> ClassicNumbers:
    """All four classic tour numbers (closed min/max, open min/max)."""
    h_lo, h_hi = hamiltonian_numbers(g)
    t_lo, t_hi = traceable_numbers(g)
    return ClassicNumbers(h_lo, h_hi, t_lo, t_hi)


def contains_subgraph(h: Graph, g: Graph) -> bool:
    """True iff H is isomorphic to a subgraph of G (same vertex count).

    Equivalent to the minimum sum hitting its floor |E(H)|: a bijection
    achieves distance exactly 1 on every H-edge iff it embeds H into G.
    The min-sense search starts from the incumbent |E(H)| + 1, so it only
    completes a bijection at the floor. It places every vertex in Python
    (blocks=False), so it backtracks on the first H-edge that lands on a
    G-distance above 1 and stops at the first embedding; scoring kernel
    blocks would read (n - k)! completions where this check reads one
    placement. No scan runs, so no cap applies.
    """
    _check_same_order(h, g)
    _check_connected(g)
    floor = len(h.edges)
    return _branch_and_bound(h, g, "min", incumbent=floor + 1, blocks=False)[0] == floor


def isomorphic_via_h(h: Graph, g: Graph) -> bool:
    """True iff G and H are isomorphic, decided through the minimum sum.

    Graphs with different vertex or edge counts are not isomorphic; with
    equal counts, a subgraph embedding of H into G is forced to be onto the
    edges of G as well.
    """
    return h.n == g.n and len(h.edges) == len(g.edges) and contains_subgraph(h, g)
