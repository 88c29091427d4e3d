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
# larger n, and every exhaustive answer reads spectrum
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


def _check_bijection(f, n: int) -> tuple[int, ...]:
    f = tuple(f)
    if sorted(f) != list(range(n)):
        raise GraphError(f"{f!r} is not a bijection on range({n})")
    return f


def pseudo_sum(h: Graph, g: Graph, f) -> int:
    """Sum of G-distances d(f(x), f(y)) over the edges {x, y} of H."""
    _check_same_order(h, g)
    f = _check_bijection(f, g.n)
    dg = distance_matrix(g)
    return int(sum(dg[f[a], f[b]] for a, b in h.edges))


def cyclic_sum(g: Graph, order) -> int:
    """Closed-tour sum: consecutive distances along order, plus the wrap-around."""
    if g.n < 3:
        raise GraphError(f"cyclic sums need n >= 3, got n={g.n}")
    return pseudo_sum(make_cycle(g.n), g, order)


def trail_sum(g: Graph, order) -> int:
    """Open-tour sum: consecutive distances along order, no wrap-around."""
    if g.n < 2:
        raise GraphError(f"trail sums need n >= 2, got n={g.n}")
    return pseudo_sum(make_path(g.n), g, order)


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
    n! bijections, so n above EXHAUSTIVE_CAP is refused.
    """
    _check_same_order(h, g)
    if not is_connected(g):
        raise GraphError("spectrum needs a connected G")
    _check_scan_cap(g.n)
    dg = distance_matrix(g)
    counts, best_min, best_max, min_wit, max_wit = kernels.scan_sums(dg, h.edges)
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

    For each candidate x of x0's degree, backtracks for an automorphism
    sending x0 to x: vertices are mapped by BFS distance from x0 (the other
    components after it), each to an unused vertex of the same degree whose
    adjacency to every vertex mapped so far matches.
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

    orbit = set()
    for x in range(n):
        if len(adj[x]) != len(adj[x0]):
            continue
        sigma[x0] = x
        taken[x] = True
        if extend(1):
            orbit.add(x)
        sigma[:] = [-1] * n
        taken[:] = [False] * n
    return orbit


def _branch_and_bound(h: Graph, g: Graph, sense: str) -> tuple[int, tuple[int, ...]]:
    """Exact extremal sum by depth-first assignment with admissible bounds.

    The minimum is the maximum over negated distances, so one search with
    one bound serves both senses: it maximizes sign * d for sign = +1 (max)
    or -1 (min) and returns sign times the best value. H-vertices are placed
    in descending degree order, and a partial assignment is pruned when its
    bound cannot beat the incumbent strictly. The bound, on sign * d, is the
    finished edges plus the smaller of two bounds on the remaining ones:

    - each edge with one end u placed adds at most ecc_G(f(u)), and the
      edges with no end placed add at most the sum of that many largest
      distances over distinct pairs of G (distinct H-edges land on distinct
      G-pairs);
    - all remaining edges together add at most the sum of that many largest
      distinct-pair distances.

    Symmetries of H are broken on the first vertex x0: every orbit
    {f . sigma : sigma in Aut(H)} has the same score and exactly one member
    that maps x0 below every other vertex of x0's Aut(H)-orbit, so the other
    orbit vertices only take G-vertices above f(x0). The witness is the first
    optimum completed, which need not be the lexicographically smallest.
    """
    n = g.n
    sign = 1 if sense == "max" else -1
    dg = (sign * distance_matrix(g)).tolist()
    ecc = [max(row) for row in dg]
    top = [0]
    for d in sorted((dg[a][b] for a in range(n) for b in range(a + 1, n)), reverse=True):
        top.append(top[-1] + d)
    h_adj = adjacency(h)
    order = sorted(range(n), key=lambda v: (-len(h_adj[v]), v))
    position = {v: k for k, v in enumerate(order)}
    placed_nbrs = [[u for u in h_adj[v] if position[u] < position[v]] for v in order]
    later = [len(h_adj[v]) - len(placed_nbrs[k]) for k, v in enumerate(order)]
    remaining = [0] * (n + 1)
    inner = [0] * (n + 1)
    for depth in range(n - 1, -1, -1):
        remaining[depth] = remaining[depth + 1] + len(placed_nbrs[depth])
        inner[depth] = inner[depth + 1] + later[depth]
    orbit = _aut_orbit(h_adj, order[0])
    in_orbit = [depth > 0 and v in orbit for depth, v in enumerate(order)]
    # the cap added by placing order[depth] on gv: its edges to later vertices
    opening = [[k * e for e in ecc] for k in later]
    zero_row = [0] * n

    fmap = [-1] * n
    used = [False] * n
    best_val = -math.inf
    best_wit: tuple[int, ...] = ()

    def search(depth: int, partial: int, cap: int) -> None:
        nonlocal best_val, best_wit
        if depth == n:
            best_val = partial
            best_wit = tuple(fmap)
            return
        hv = order[depth]
        images = [fmap[u] for u in placed_nbrs[depth]]
        # gains[gv]: what placing hv on gv adds to the finished edges
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
        for gv in range(fmap[order[0]] + 1 if in_orbit[depth] else 0, n):
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
            fmap[hv] = gv
            search(depth + 1, gained, child_cap)
            used[gv] = False
        fmap[hv] = -1

    search(0, 0, 0)
    return sign * best_val, best_wit


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
    run one depth-first search with one admissible bound (the smaller of an
    eccentricity-plus-distinct-pairs bound and a distinct-pairs bound) and
    Aut(H)-orbit symmetry breaking, and returns the first optimal witness it
    completes: an optimum, not necessarily the lexicographically smallest
    (see _branch_and_bound).
    """
    _check_same_order(h, g)
    if not is_connected(g):
        raise GraphError("extremal numbers need a connected G")
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
    """
    return spectrum(h, g).min == len(h.edges)


def isomorphic_via_h(h: Graph, g: Graph) -> bool:
    """True iff G and H are isomorphic, decided through the minimum sum.

    Graphs with different vertex or edge counts are not isomorphic; with
    equal counts, a subgraph embedding of H into G is forced to be onto the
    edges of G as well.
    """
    return h.n == g.n and len(h.edges) == len(g.edges) and contains_subgraph(h, g)
