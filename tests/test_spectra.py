"""Distance sums, spectra, extremal numbers, and the classic tour numbers."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamspec import kernels
from generate import random_bijection, random_connected_graph
from hamspec.graphs import (
    GraphError,
    adjacency,
    build_graph,
    distance_matrix,
    make_complete,
    make_cycle,
    make_path,
)
from hamspec.spectra import (
    SpectrumReport,
    _aut_orbit,
    _search_order,
    classic_numbers,
    contains_subgraph,
    extremal_number,
    hamiltonian_numbers,
    isomorphic_via_h,
    pseudo_sum,
    spectrum,
    traceable_numbers,
)
from hamspec.verify import enumerate_connected_graphs

STAR4 = build_graph(4, [(0, 1), (0, 2), (0, 3)])


def test_pseudo_sum_identity_cases():
    c4 = make_cycle(4)
    assert pseudo_sum(c4, c4, (0, 1, 2, 3)) == 4
    # swapping two adjacent labels on a cycle keeps distances symmetric
    assert pseudo_sum(c4, c4, (1, 0, 2, 3)) == 6
    p4 = make_path(4)
    assert pseudo_sum(p4, p4, (0, 1, 2, 3)) == 3
    assert pseudo_sum(p4, p4, (3, 2, 1, 0)) == 3
    assert pseudo_sum(p4, p4, (0, 2, 1, 3)) == 2 + 1 + 2


def test_pseudo_sum_validation():
    with pytest.raises(GraphError):
        pseudo_sum(make_path(3), make_path(4), (0, 1, 2, 3))
    with pytest.raises(GraphError):
        pseudo_sum(make_path(4), make_path(4), (0, 1, 2, 2))
    with pytest.raises(GraphError):
        pseudo_sum(make_path(4), make_path(4), (0, 1, 2))


def test_pseudo_sum_reads_entries_as_ints():
    p2 = make_path(2)
    # a float is no vertex, even when it equals one
    with pytest.raises(GraphError, match="not a bijection"):
        pseudo_sum(p2, p2, [0.0, 1.0])


def test_tour_sums_small_cases():
    # a tour sum is the pseudo sum of the path (open) or the cycle (closed)
    p4 = make_path(4)
    assert pseudo_sum(make_path(4), p4, (0, 1, 2, 3)) == 3
    assert pseudo_sum(make_cycle(4), p4, (0, 1, 2, 3)) == 6
    c4 = make_cycle(4)
    assert pseudo_sum(make_cycle(4), c4, (0, 1, 2, 3)) == 4
    assert pseudo_sum(make_path(4), c4, (0, 2, 1, 3)) == 5
    assert pseudo_sum(make_cycle(4), c4, (0, 2, 1, 3)) == 6
    with pytest.raises(GraphError):
        make_cycle(2)
    with pytest.raises(GraphError):
        pseudo_sum(make_path(2), make_path(2), (0, 0))


@settings(max_examples=60)
@given(st.data())
def test_tour_sums_are_pseudo_sums(data):
    n = data.draw(st.integers(min_value=3, max_value=7))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    g = random_connected_graph(n, rng)
    order = random_bijection(n, rng)
    closed = pseudo_sum(make_cycle(n), g, order)
    trail = pseudo_sum(make_path(n), g, order)
    # the closed tour adds the wrap-around edge {0, n - 1}
    assert closed == trail + distance_matrix(g)[order[0], order[-1]]
    assert closed >= trail + 1


def test_spectrum_path_pair():
    rep = spectrum(make_path(3), make_path(3))
    assert rep.values == ((2, 2), (3, 4))
    assert rep.value_set() == (2, 3)
    assert (rep.min, rep.max) == (2, 3)
    assert rep.enumerated == 6
    assert rep.min_witness == (0, 1, 2)
    assert pseudo_sum(make_path(3), make_path(3), rep.max_witness) == 3


def test_spectrum_cycle_pair():
    c4 = make_cycle(4)
    rep = spectrum(c4, c4)
    assert rep.values == ((4, 8), (6, 16))
    assert rep.enumerated == 24
    assert sum(c for _, c in rep.values) == 24
    assert pseudo_sum(c4, c4, rep.min_witness) == 4
    assert pseudo_sum(c4, c4, rep.max_witness) == 6


def test_spectrum_requires_connected_host():
    with pytest.raises(GraphError):
        spectrum(make_path(4), build_graph(4, [(0, 1), (2, 3)]))


def test_spectrum_respects_cap():
    p10 = make_path(10)
    with pytest.raises(GraphError):
        spectrum(p10, p10)
    # the kernel itself has no cap
    _, best_min, _, _, _ = kernels.scan_sums(distance_matrix(p10), p10.edges)
    assert best_min == 9


def test_extremal_number_respects_cap():
    p10 = make_path(10)
    with pytest.raises(GraphError, match="exceeds cap"):
        extremal_number(p10, p10, "max")
    _, _, best_max, _, max_wit = kernels.scan_sums(distance_matrix(p10), p10.edges)
    # the open-tour closed form floor(n^2/2) - 1
    assert best_max == 49
    assert pseudo_sum(p10, p10, max_wit) == 49


def test_subgraph_and_isomorphism_past_the_scan_cap():
    # both answer through the seeded min-sense search, which has no cap
    rng = random.Random(1012)
    for n in (10, 12):
        path = make_path(n)
        relabel = random_bijection(n, rng)
        relabeled = build_graph(n, [(relabel[a], relabel[b]) for a, b in path.edges])
        assert isomorphic_via_h(path, relabeled)
        assert contains_subgraph(path, relabeled)
        star = build_graph(n, [(0, k) for k in range(1, n)])
        assert not isomorphic_via_h(path, star)
        assert not contains_subgraph(path, star)
        assert contains_subgraph(make_cycle(n), make_complete(n))
        assert not contains_subgraph(make_complete(n), make_cycle(n))
        # a disconnected G is refused as before
        with pytest.raises(GraphError, match="needs a connected G"):
            contains_subgraph(path, build_graph(n, path.edges[1:]))


def test_spectrum_report_serialization():
    rep = spectrum(make_path(3), make_path(3))
    out = rep.to_dict()
    assert out == {
        "values": [[2, 2], [3, 4]],
        "min": 2,
        "max": 3,
        "min_witness": [0, 1, 2],
        "max_witness": [0, 2, 1],
        "enumerated": 6,
    }
    assert isinstance(rep, SpectrumReport)


@settings(max_examples=40)
@given(st.data())
def test_spectrum_bounds_and_extremes(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    g = random_connected_graph(n, rng)
    h = random_connected_graph(n, rng)
    rep = spectrum(h, g)
    diameter = int(distance_matrix(g).max())
    m = len(h.edges)
    assert rep.min >= m
    assert rep.max <= m * diameter
    assert rep.value_set()[0] == rep.min
    assert rep.value_set()[-1] == rep.max
    assert sum(c for _, c in rep.values) == math.factorial(n)
    lo, lo_wit = extremal_number(h, g, "min")
    hi, hi_wit = extremal_number(h, g, "max")
    assert (lo, hi) == (rep.min, rep.max)
    assert lo_wit == rep.min_witness
    assert hi_wit == rep.max_witness


def test_extremal_number_validation():
    p4 = make_path(4)
    with pytest.raises(GraphError):
        extremal_number(p4, p4, "biggest")
    with pytest.raises(GraphError):
        extremal_number(p4, p4, "min", method="magic")
    with pytest.raises(GraphError):
        extremal_number(p4, build_graph(4, [(0, 1), (2, 3)]), "min")
    with pytest.raises(GraphError):
        extremal_number(make_path(10), make_path(10), "min")


def test_branch_and_bound_agrees_with_exhaustive():
    rng = random.Random(60901)
    for _ in range(40):
        n = rng.randint(2, 6)
        g = random_connected_graph(n, rng)
        h = random_connected_graph(n, rng)
        for sense in ("min", "max"):
            value, witness = extremal_number(h, g, sense, method="bnb")
            expected, _ = extremal_number(h, g, sense)
            assert value == expected
            assert pseudo_sum(h, g, witness) == value
    # H denser than G, where the min bound's distinct pairs reach past distance 1
    for n in (7, 8, 9):
        g = random_connected_graph(n, rng, extra_edges=1)
        _assert_bnb_matches_scan(random_connected_graph(n, rng, extra_edges=2 * n), g)


def test_branch_and_bound_beyond_exhaustive_cap():
    # the pruning search has no factorial cap
    value, witness = extremal_number(make_path(10), make_path(10), "min", method="bnb")
    assert value == 9
    assert pseudo_sum(make_path(10), make_path(10), witness) == 9


def _assert_bnb_matches_scan(h, g):
    rep = spectrum(h, g)
    for sense, expected in (("min", rep.min), ("max", rep.max)):
        value, witness = extremal_number(h, g, sense, method="bnb")
        assert value == expected, (h.edges, g.edges, sense)
        assert pseudo_sum(h, g, witness) == value


# spine 0-1-2-3-4-5 with a leaf 6 on vertex 2: branches of lengths 2, 3 and 1
# meet at 2, so no two vertices are interchangeable (the smallest rigid tree)
RIGID_TREE = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])


def test_aut_orbit_known_groups():
    for n in (3, 6, 9):
        assert _aut_orbit(adjacency(make_cycle(n)), 0) == set(range(n))
    for n in (4, 7, 10):
        assert _aut_orbit(adjacency(make_path(n)), 1) == {1, n - 2}
        assert _aut_orbit(adjacency(make_path(n)), 0) == {0, n - 1}
    star = build_graph(6, [(0, k) for k in range(1, 6)])
    assert _aut_orbit(adjacency(star), 0) == {0}
    assert _aut_orbit(adjacency(star), 3) == {1, 2, 3, 4, 5}
    for v in range(RIGID_TREE.n):
        assert _aut_orbit(adjacency(RIGID_TREE), v) == {v}
    # a triangle and a disjoint path 3-4-5: vertex 4 has degree 2 but is fixed
    mixed = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
    assert _aut_orbit(adjacency(mixed), 0) == {0, 1, 2}
    assert _aut_orbit(adjacency(mixed), 4) == {4}
    assert _aut_orbit(adjacency(build_graph(5, [])), 2) == set(range(5))


def _brute_force_orbits(g):
    """Each vertex's orbit under the permutations of range(n) that map the
    edge set onto itself, all n! of them tried."""
    edges = {frozenset(e) for e in g.edges}
    orbits = [set() for _ in range(g.n)]
    for perm in itertools.permutations(range(g.n)):
        if all(frozenset((perm[u], perm[v])) in edges for u, v in g.edges):
            for v, image in enumerate(perm):
                orbits[v].add(image)
    return orbits


def test_aut_orbit_matches_brute_force():
    # every connected class at n <= 6, and disconnected graphs whose
    # components differ or repeat: C3 + C4, the edgeless graph, K3 + 2K1
    graphs = [g for n in range(1, 7) for g in enumerate_connected_graphs(n)]
    graphs += [
        build_graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),
        build_graph(5, []),
        build_graph(5, [(0, 1), (1, 2), (0, 2)]),
    ]
    assert len(graphs) == 146
    for g in graphs:
        adj = adjacency(g)
        for x0, want in enumerate(_brute_force_orbits(g)):
            assert _aut_orbit(adj, x0) == want, (g, x0)


def _symmetric_shapes(n):
    """H with large automorphism groups, where a wrong orbit prunes optima."""
    shapes = [
        make_path(n),
        make_complete(n),
        build_graph(n, []),
        build_graph(n, [(0, k) for k in range(1, n)]),
        build_graph(n, [(2 * k, 2 * k + 1) for k in range(n // 2)]),
        # two joined stars, swapped by Aut(H) for even n
        build_graph(n, [(0, 1)] + [(k % 2, k) for k in range(2, n)]),
    ]
    if n >= 3:
        shapes.append(make_cycle(n))
    if n >= 6:
        # a triangle beside a path: same degrees, different orbits, the
        # triangle first and then last in label order
        triangle = [(0, 1), (1, 2), (0, 2)]
        shapes.append(build_graph(n, triangle + [(k, k + 1) for k in range(3, n - 1)]))
        last = [(u + n - 3, v + n - 3) for u, v in triangle]
        shapes.append(build_graph(n, [(k, k + 1) for k in range(n - 4)] + last))
    if n >= 7:
        shapes.append(build_graph(n, list(RIGID_TREE.edges) + [(6, k) for k in range(7, n)]))
    return shapes


def test_branch_and_bound_symmetric_h():
    rng = random.Random(5150)
    for n in range(2, 9):
        for h in _symmetric_shapes(n):
            for _ in range(3):
                _assert_bnb_matches_scan(h, random_connected_graph(n, rng))


def test_branch_and_bound_symmetric_h_past_one_block():
    # n = 9 and 10, where each block places the orbit mate of x0 first and
    # scores only the completions that put it above f(x0)
    rng = random.Random(91010)
    for h in _symmetric_shapes(9):
        _assert_bnb_matches_scan(h, random_connected_graph(9, rng))
    for h in _symmetric_shapes(10):
        g = random_connected_graph(10, rng)
        _, lo, hi, _, _ = kernels.scan_sums(distance_matrix(g), h.edges)
        for sense, expected in (("min", lo), ("max", hi)):
            value, witness = extremal_number(h, g, sense, method="bnb")
            assert value == expected, (h.edges, g.edges, sense)
            assert pseudo_sum(h, g, witness) == value


def test_search_order_moves_one_orbit_mate_to_the_first_block_vertex():
    for n in (2, 6, 9, 10):
        for h in _symmetric_shapes(n):
            adj = adjacency(h)
            by_degree = sorted(range(n), key=lambda v: (-len(adj[v]), v))
            orbit = _aut_orbit(adj, by_degree[0])
            # placing every vertex in Python keeps descending degree
            assert _search_order(adj, n) == (by_degree, orbit)
            k = max(n - 8, 1)
            order, _ = _search_order(adj, k)
            mates = [v for v in by_degree[k:] if v in orbit]
            if mates:
                # the first mate past the prefix moves to depth k, and only it
                assert order[k] == mates[0]
                assert order[:k] + order[k + 1 :] == [v for v in by_degree if v != mates[0]]
            else:
                assert order == by_degree
    # a triangle beside a path 0-1-2-3-4-5: x0 = 1, whose orbit is {1, 4},
    # moves 4 ahead of 2, 3 and the triangle, which share its degree
    h = build_graph(9, [(k, k + 1) for k in range(5)] + [(6, 7), (7, 8), (6, 8)])
    assert _search_order(adjacency(h), 1) == ([1, 4, 2, 3, 6, 7, 8, 0, 5], {1, 4})


def test_branch_and_bound_agrees_at_n9():
    rng = random.Random(90901)
    for h in (make_cycle(9), make_path(9), random_connected_graph(9, rng), random_connected_graph(9, rng)):
        _assert_bnb_matches_scan(h, random_connected_graph(9, rng))


def test_branch_and_bound_closed_forms_past_exhaustive_cap():
    # on the path G the maximum open-tour sum is floor(n^2/2) - 1 and the
    # maximum closed-tour sum floor(n^2/2); neither needs an n! scan to check
    cases = [(make_path(n), n * n // 2 - 1) for n in (10, 11)]
    cases += [(make_cycle(n), n * n // 2) for n in (10, 11, 12)]
    for h, expected in cases:
        g = make_path(h.n)
        value, witness = extremal_number(h, g, "max", method="bnb")
        assert value == expected
        assert pseudo_sum(h, g, witness) == expected


def test_branch_and_bound_two_prefix_vertices():
    # n = 10: the search places two H-vertices and scores the 8!
    # completions of each surviving prefix as one kernel block
    rng = random.Random(100210)
    n = 10
    shapes = [
        make_path(n),
        make_cycle(n),
        build_graph(n, [(0, k) for k in range(1, n)]),
        build_graph(n, [(0, 1), (1, 2), (0, 2)] + [(k, k + 1) for k in range(3, n - 1)]),
        build_graph(n, list(RIGID_TREE.edges) + [(6, k) for k in range(7, n)]),
        random_connected_graph(n, rng),
        random_connected_graph(n, rng, extra_edges=n),
    ]
    for h in shapes:
        g = random_connected_graph(n, rng)
        _, lo, hi, _, _ = kernels.scan_sums(distance_matrix(g), h.edges)
        for sense, expected in (("min", lo), ("max", hi)):
            value, witness = extremal_number(h, g, sense, method="bnb")
            assert value == expected, (h.edges, g.edges, sense)
            assert pseudo_sum(h, g, witness) == value


def test_branch_and_bound_first_vertex_reaches_the_last_label():
    # x0 takes G-vertices 0..n - |Orb(x0)|. The star's centre is fixed by
    # Aut(H), so it may take n - 1, and on the star G centred at n - 1 the
    # minimum n - 1 needs exactly that; the maximum puts it on a leaf
    for n in (5, 9, 10):
        h = build_graph(n, [(0, k) for k in range(1, n)])
        g = build_graph(n, [(n - 1, k) for k in range(n - 1)])
        value, witness = extremal_number(h, g, "min", method="bnb")
        assert (value, witness[0]) == (n - 1, n - 1)
        assert pseudo_sum(h, g, witness) == value
        assert extremal_number(h, g, "max", method="bnb")[0] == 1 + 2 * (n - 2)


def test_classic_numbers_cycle():
    assert classic_numbers(make_cycle(4)) == (4, 6, 3, 5)


def test_classic_numbers_of_smallest_graphs():
    assert traceable_numbers(make_path(2)) == (1, 1)
    with pytest.raises(GraphError):
        hamiltonian_numbers(make_path(2))
    with pytest.raises(GraphError):
        classic_numbers(make_path(2))
    with pytest.raises(GraphError):
        traceable_numbers(build_graph(1, []))


def test_classic_numbers_complete_graph():
    # every bijection of the complete graph walks distance 1 per step
    n = 5
    assert classic_numbers(make_complete(n)) == (n, n, n - 1, n - 1)


def test_closed_forms_small():
    for n in range(2, 8):
        assert traceable_numbers(make_path(n))[1] == n * n // 2 - 1
    for n in range(3, 8):
        assert hamiltonian_numbers(make_path(n))[1] == n * n // 2


def _embeds(h, g):
    """Brute force: some bijection maps every edge of h onto an edge of g."""
    g_edges = set(g.edges)
    for perm in itertools.permutations(range(g.n)):
        if all(tuple(sorted((perm[a], perm[b]))) in g_edges for a, b in h.edges):
            return True
    return False


def test_contains_subgraph_matches_brute_force():
    rng = random.Random(777)
    for _ in range(30):
        n = rng.randint(2, 5)
        g = random_connected_graph(n, rng)
        h = random_connected_graph(n, rng)
        assert contains_subgraph(h, g) == _embeds(h, g)


def test_contains_subgraph_known_cases():
    assert not contains_subgraph(STAR4, make_path(4))
    assert contains_subgraph(make_path(4), make_complete(4))
    assert contains_subgraph(STAR4, make_complete(4))
    assert not contains_subgraph(make_path(4), STAR4)
    assert contains_subgraph(build_graph(4, []), STAR4)


def _scan_embeds(h, g):
    """The exhaustive verdict: the full n! walk's minimum sum is |E(H)|."""
    return kernels.scan_sums(distance_matrix(g), h.edges)[1] == len(h.edges)


def test_embedding_search_matches_the_scan_on_all_classes():
    # every ordered pair of connected classes at n <= 6, 12544 at n = 6
    for n in range(1, 7):
        classes = enumerate_connected_graphs(n)
        for h, g in itertools.product(classes, classes):
            assert contains_subgraph(h, g) == _scan_embeds(h, g), (h, g)


def _circulant(n, jumps):
    return build_graph(n, [(v, (v + j) % n) for v in range(n) for j in jumps])


def _relabeled(g, rng):
    f = random_bijection(g.n, rng)
    return build_graph(g.n, [(f[a], f[b]) for a, b in g.edges])


def test_embedding_search_matches_the_scan_on_seeded_pairs():
    rng = random.Random(70909)
    pairs = []
    for n in (7, 8, 9):
        for _ in range(4):
            g = random_connected_graph(n, rng, extra_edges=rng.randint(1, 5))
            # an isomorphic copy, a sparser H, and one with G's edge count
            pairs += [(_relabeled(g, rng), g), (random_connected_graph(n, rng), g)]
            pairs.append((random_connected_graph(n, rng, extra_edges=len(g.edges) - n + 1), g))
    # 4-regular pairs on 9 vertices with 18 edges each, where the search
    # cannot prune on degrees: two circulants and the 3 x 3 rook graph
    rook = build_graph(9, [(a, b) for a in range(9) for b in range(a + 1, 9) if a // 3 == b // 3 or a % 3 == b % 3])
    c12, c13 = _circulant(9, (1, 2)), _circulant(9, (1, 3))
    for h, g in itertools.product((c12, c13, rook), repeat=2):
        pairs += [(h, g), (_relabeled(h, rng), g)]
    pairs += [(make_cycle(9), c12), (make_cycle(9), rook), (make_path(9), rook)]
    verdicts = set()
    for h, g in pairs:
        want = _scan_embeds(h, g)
        assert contains_subgraph(h, g) == want, (h, g)
        assert isomorphic_via_h(h, g) == (want and len(h.edges) == len(g.edges)), (h, g)
        verdicts.add(want)
    assert verdicts == {True, False}
    assert not isomorphic_via_h(c12, c13) and not isomorphic_via_h(c12, rook)


def test_isomorphic_via_h():
    relabeled_path = build_graph(4, [(0, 2), (2, 3), (1, 3)])
    assert isomorphic_via_h(make_path(4), relabeled_path)
    assert not isomorphic_via_h(make_path(4), STAR4)
    # different edge counts, then different vertex counts
    assert not isomorphic_via_h(make_cycle(4), make_path(4))
    assert not isomorphic_via_h(make_path(3), make_path(4))
