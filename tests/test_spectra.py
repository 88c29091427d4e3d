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
    classic_numbers,
    contains_subgraph,
    cyclic_sum,
    extremal_number,
    hamiltonian_numbers,
    isomorphic_via_h,
    pseudo_sum,
    spectrum,
    traceable_numbers,
    trail_sum,
)

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


def test_tour_sums_small_cases():
    p4 = make_path(4)
    assert trail_sum(p4, (0, 1, 2, 3)) == 3
    assert cyclic_sum(p4, (0, 1, 2, 3)) == 6
    c4 = make_cycle(4)
    assert cyclic_sum(c4, (0, 1, 2, 3)) == 4
    assert trail_sum(c4, (0, 2, 1, 3)) == 5
    assert cyclic_sum(c4, (0, 2, 1, 3)) == 6
    with pytest.raises(GraphError):
        cyclic_sum(make_path(2), (0, 1))
    with pytest.raises(GraphError):
        trail_sum(make_path(2), (0, 0))


@settings(max_examples=60)
@given(st.data())
def test_tour_sums_are_pseudo_sums(data):
    n = data.draw(st.integers(min_value=3, max_value=7))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    g = random_connected_graph(n, rng)
    order = random_bijection(n, rng)
    assert trail_sum(g, order) == pseudo_sum(make_path(n), g, order)
    assert cyclic_sum(g, order) == pseudo_sum(make_cycle(n), g, order)
    assert cyclic_sum(g, order) >= trail_sum(g, order) + 1


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


def test_subgraph_and_isomorphism_keep_the_cap():
    # spectrum alone holds the cap: neither wrapper can raise it
    p10 = make_path(10)
    relabeled = build_graph(10, [(v, (v + 3) % 10) for v in range(9)])
    for check in (contains_subgraph, isomorphic_via_h):
        with pytest.raises(GraphError, match="exceeds cap"):
            check(p10, relabeled)


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


def test_branch_and_bound_symmetric_h():
    # H with large automorphism groups, where a wrong orbit prunes optima
    rng = random.Random(5150)
    for n in range(2, 9):
        shapes = [
            make_path(n),
            make_complete(n),
            build_graph(n, []),
            build_graph(n, [(0, k) for k in range(1, n)]),
            build_graph(n, [(2 * k, 2 * k + 1) for k in range(n // 2)]),
        ]
        if n >= 3:
            shapes.append(make_cycle(n))
        if n >= 6:
            # a triangle beside a path: same degrees, different orbits
            shapes.append(build_graph(n, [(0, 1), (1, 2), (0, 2)] + [(k, k + 1) for k in range(3, n - 1)]))
        if n >= 7:
            shapes.append(build_graph(n, list(RIGID_TREE.edges) + [(6, k) for k in range(7, n)]))
        for h in shapes:
            for _ in range(3):
                _assert_bnb_matches_scan(h, random_connected_graph(n, rng))


def test_branch_and_bound_agrees_at_n9():
    rng = random.Random(90901)
    for h in (make_cycle(9), make_path(9), random_connected_graph(9, rng), random_connected_graph(9, rng)):
        _assert_bnb_matches_scan(h, random_connected_graph(9, rng))


def test_branch_and_bound_closed_forms_past_exhaustive_cap():
    # on the path G the maximum open-tour sum is floor(n^2/2) - 1 and the
    # maximum closed-tour sum floor(n^2/2); neither needs an n! scan to check
    for n in (10, 11):
        g = make_path(n)
        for h, expected in ((make_path(n), n * n // 2 - 1), (make_cycle(n), n * n // 2)):
            value, witness = extremal_number(h, g, "max", method="bnb")
            assert value == expected
            assert pseudo_sum(h, g, witness) == expected


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


def test_isomorphic_via_h():
    relabeled_path = build_graph(4, [(0, 2), (2, 3), (1, 3)])
    assert isomorphic_via_h(make_path(4), relabeled_path)
    assert not isomorphic_via_h(make_path(4), STAR4)
    # different edge counts, then different vertex counts
    assert not isomorphic_via_h(make_cycle(4), make_path(4))
    assert not isomorphic_via_h(make_path(3), make_path(4))
