"""Leaf-triple rewiring: junction anatomy, sum monotonicity, and traces."""

import collections
import functools
import gc
import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamspec
from generate import random_bijection, random_connected_graph, random_tree, tree_path
from hamspec import graphs, surgery
from hamspec.graphs import (
    GraphError,
    build_graph,
    classify_shape,
    distance_matrix,
    is_tree,
    leaves,
    make_cycle,
    make_path,
    render_graph,
)
from hamspec.spectra import extremal_number, pseudo_sum
from hamspec.surgery import (
    ARM_A,
    ARM_B,
    NEITHER,
    Junction,
    LeafTriple,
    branching_weight,
    choose_transform,
    classify_pair,
    find_junction,
    format_trace,
    linked_cross_pairs,
    pathify,
    pathify_general,
    rewire,
    spur_component,
    step_to_dict,
    trace_to_dict,
)

SPIDER = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
SPIDER_TRIPLE = LeafTriple(end_a=2, end_b=4, spur=6)

# trunk 0-1-2-3-4 with a two-edge branch hanging off the middle
BRANCHED_PATH = build_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)])


def test_find_junction_spider():
    j = find_junction(SPIDER, SPIDER_TRIPLE)
    assert (j.fork, j.stub, j.arm_a, j.arm_b) == (0, 5, 1, 3)
    # swapping the ends keeps the fork and stub but mirrors the arms
    swapped = find_junction(SPIDER, LeafTriple(end_a=4, end_b=2, spur=6))
    assert (swapped.fork, swapped.stub) == (0, 5)
    assert (swapped.arm_a, swapped.arm_b) == (3, 1)


def test_find_junction_branched_path():
    j = find_junction(BRANCHED_PATH, LeafTriple(end_a=0, end_b=4, spur=6))
    assert (j.fork, j.stub, j.arm_a, j.arm_b) == (2, 5, 1, 3)


def test_find_junction_validation():
    with pytest.raises(GraphError):
        find_junction(make_cycle(4), LeafTriple(0, 1, 2))
    with pytest.raises(GraphError):
        find_junction(SPIDER, LeafTriple(2, 4, 4))
    with pytest.raises(GraphError):
        find_junction(SPIDER, LeafTriple(2, 4, 5))
    # a path has only two leaves, so no triple can qualify
    with pytest.raises(GraphError):
        find_junction(make_path(5), LeafTriple(0, 4, 2))


def _walk_junction(t, triple):
    """The junction found by walking tree paths: from the spur toward end_a
    until the walk meets the trunk between the ends."""
    trunk = tree_path(t, triple.end_a, triple.end_b)
    walk = tree_path(t, triple.spur, triple.end_a)
    meet = next(i for i, v in enumerate(walk) if v in trunk)
    position = trunk.index(walk[meet])
    return Junction(
        fork=walk[meet],
        stub=walk[meet - 1],
        arm_a=trunk[position - 1],
        arm_b=trunk[position + 1],
    )


def test_find_junction_matches_path_walks():
    rng = random.Random(41)
    triples = 0
    for _ in range(60):
        t = random_tree(rng.randint(4, 12), rng)
        for names in itertools.permutations(sorted(leaves(t)), 3):
            triple = LeafTriple(*names)
            j = find_junction(t, triple)
            assert j == _walk_junction(t, triple), (render_graph(t), names)
            # the spur side is every vertex whose path to the fork runs through the stub
            side = {v for v in range(t.n) if j.stub in tree_path(t, v, j.fork)}
            assert spur_component(t, j) == side, (render_graph(t), names)
            triples += 1
    assert triples > 1000


def test_spur_component():
    j = find_junction(SPIDER, SPIDER_TRIPLE)
    assert spur_component(SPIDER, j) == frozenset({5, 6})
    # with stub and fork swapped the component is the other side of the cut
    assert spur_component(SPIDER, replace(j, stub=0, fork=5)) == frozenset({0, 1, 2, 3, 4})
    j = find_junction(BRANCHED_PATH, LeafTriple(0, 4, 6))
    assert spur_component(BRANCHED_PATH, j) == frozenset({5, 6})


def test_spur_component_validation():
    j = find_junction(SPIDER, SPIDER_TRIPLE)
    with pytest.raises(GraphError, match="not in the graph"):
        spur_component(SPIDER, replace(j, stub=2, fork=4))
    # out of range: -1 must not wrap around to vertex 6, whose neighbour is 5
    for stub, fork in ((5, -1), (-1, 5), (6, 7), (7, 8)):
        with pytest.raises(GraphError, match="not in the graph"):
            spur_component(SPIDER, replace(j, stub=stub, fork=fork))
    # distances tell the sides of a cut apart only in a tree
    with pytest.raises(GraphError, match="trees"):
        spur_component(make_cycle(4), Junction(fork=1, stub=0, arm_a=2, arm_b=3))


def test_rewire_spider():
    j = find_junction(SPIDER, SPIDER_TRIPLE)
    to_a, to_b = rewire(SPIDER, j, SPIDER_TRIPLE)
    assert to_a.edges == ((0, 1), (0, 3), (1, 2), (2, 5), (3, 4), (5, 6))
    assert to_b.edges == ((0, 1), (0, 3), (1, 2), (3, 4), (4, 5), (5, 6))
    assert is_tree(to_a) and is_tree(to_b)
    assert classify_shape(to_a) == "path"
    assert classify_shape(to_b) == "path"


def _bfs_distances(g):
    """Distances of a fresh copy of g, so BFS computes them rather than surgery."""
    return distance_matrix(build_graph(g.n, g.edges))


def test_rewire_rejects_a_stub_fork_pair_that_is_not_an_edge():
    # 1 and 3 both neighbour the fork 0 but not each other
    j = replace(find_junction(SPIDER, SPIDER_TRIPLE), stub=1, fork=3)
    with pytest.raises(GraphError, match="not in the graph"):
        rewire(SPIDER, j, SPIDER_TRIPLE)


def test_rewire_rejects_an_end_on_the_spur_side():
    j = find_junction(SPIDER, SPIDER_TRIPLE)
    # 6 hangs below the stub, so hooking the stub onto it would close a cycle
    for triple in (LeafTriple(end_a=6, end_b=4, spur=2), LeafTriple(end_a=2, end_b=6, spur=4)):
        with pytest.raises(GraphError, match="off the spur side"):
            rewire(SPIDER, j, triple)
    for end in (-1, SPIDER.n):
        with pytest.raises(GraphError, match="off the spur side"):
            rewire(SPIDER, j, LeafTriple(end_a=end, end_b=4, spur=6))


def _carried_matrix_checks(trace):
    for step in trace.steps:
        d = distance_matrix(step.after)
        assert np.array_equal(d, _bfs_distances(step.after)), render_graph(step.after)
        assert d.dtype == np.int64
        assert not d.flags.writeable


def test_rewired_trees_carry_their_bfs_distances():
    rng = random.Random(730119)
    steps = 0
    for n in range(3, 61):
        t = random_tree(n, rng)
        f = random_bijection(n, rng)
        for h in (make_path(n), make_cycle(n)):
            trace = pathify(t, h, f)
            _carried_matrix_checks(trace)
            steps += len(trace.steps)
    assert steps > 500
    # a dense core with a chain hanging off it, routed through its spanning tree
    n = 15
    g = build_graph(n, list(itertools.combinations(range(7), 2)) + [(v, v + 1) for v in range(6, n - 1)])
    trace = pathify_general(g, make_cycle(n), tuple(range(n)))
    assert trace.steps
    _carried_matrix_checks(trace)


def test_classify_pair_spider():
    j = find_junction(SPIDER, SPIDER_TRIPLE)
    assert classify_pair(SPIDER, j, 6, 2) == ARM_A
    assert classify_pair(SPIDER, j, 6, 4) == ARM_B
    assert classify_pair(SPIDER, j, 5, 0) == NEITHER
    assert classify_pair(SPIDER, j, 5, 1) == ARM_A
    with pytest.raises(GraphError):
        classify_pair(SPIDER, j, 0, 5)
    with pytest.raises(GraphError):
        classify_pair(SPIDER, j, 5, 6)
    # b = -1 must not read the last vertex's distances
    for b in (-1, SPIDER.n):
        with pytest.raises(GraphError, match="out of range"):
            classify_pair(SPIDER, j, 6, b)


def test_linked_cross_pairs():
    j = find_junction(SPIDER, SPIDER_TRIPLE)
    side = spur_component(SPIDER, j)
    h = make_path(7)
    pairs = linked_cross_pairs(h, tuple(range(7)), side)
    assert pairs == frozenset({(5, 4)})
    # a relabeling that moves edges across the cut changes the pair set:
    # the path edges (0,1), (1,2), (2,3) land on (6,0), (0,5), (5,1)
    f = (6, 0, 5, 1, 2, 3, 4)
    pairs = linked_cross_pairs(h, f, side)
    assert pairs == frozenset({(6, 0), (5, 0), (5, 1)})
    assert all(x in side and y not in side for x, y in pairs)


def test_branching_weight():
    assert branching_weight(make_path(6)) == 0
    assert branching_weight(SPIDER) == 3
    assert branching_weight(BRANCHED_PATH) == 3
    assert branching_weight(build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])) == 4
    two_forks = build_graph(8, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5), (4, 6), (5, 7)])
    assert branching_weight(two_forks) == 6


def test_choose_transform_spider():
    h = build_graph(7, [(2, 6), (5, 6), (0, 1), (1, 2), (0, 3), (3, 4)])
    step = choose_transform(SPIDER, h, tuple(range(7)), SPIDER_TRIPLE)
    assert (step.n_arm_a, step.n_arm_b) == (1, 0)
    assert step.choice == "end_b"
    assert (step.sum_before, step.sum_after) == (9, 11)
    assert (step.weight_before, step.weight_after) == (3, 0)
    assert step.before == SPIDER
    assert is_tree(step.after)
    # the pair (6, 2) rides through arm_a, so its distance grows by the
    # fork-to-end_b distance when the stub swings to end_b
    d_before = distance_matrix(SPIDER)
    d_after = _bfs_distances(step.after)
    assert d_after[2, 6] - d_before[2, 6] == d_before[4, 0]


def test_a_step_checks_its_tree_once_and_builds_only_the_kept_tree(monkeypatch):
    counts = collections.Counter()

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("is_tree", "_with_distances", "branching_weight", "pseudo_sum"):
        counted(surgery, name)
    for name in ("_bfs", "_graph6_encode"):
        counted(graphs, name)
    h = build_graph(7, [(2, 6), (5, 6), (0, 1), (1, 2), (0, 3), (3, 4)])
    spider = build_graph(SPIDER.n, SPIDER.edges)
    choose_transform(spider, h, tuple(range(7)), SPIDER_TRIPLE)
    # the step sums its tree once and takes the new sum from the exchange lemma
    assert counts == {"is_tree": 1, "_with_distances": 1, "branching_weight": 2, "pseudo_sum": 1, "_bfs": 1 + 7}
    counts.clear()
    rng = random.Random(40417)
    n = 40
    trace = pathify(random_tree(n, rng), make_cycle(n), random_bijection(n, rng))
    steps = len(trace.steps)
    assert steps > 5
    # pathify's own check and no other; the input's and the final path's sums
    # only; each weight is computed once; BFS runs on the starting tree alone
    # (pathify's check, which is also the connectivity check, and its n rows)
    assert counts == {
        "is_tree": 1, "_with_distances": steps, "branching_weight": 1 + steps, "pseudo_sum": 2, "_bfs": n + 1,
    }
    counts.clear()
    json.dumps(trace_to_dict(trace))
    format_trace(trace)
    # one graph6 text per distinct graph: the input tree and each step's tree
    assert counts == {"_graph6_encode": 1 + steps}
    counts.clear()
    n = 15
    g = build_graph(n, list(itertools.combinations(range(7), 2)) + [(v, v + 1) for v in range(6, n - 1)])
    trace = pathify_general(g, make_cycle(n), tuple(range(n)))
    steps = len(trace.steps)
    assert steps > 1
    json.dumps(trace_to_dict(trace))
    # the input's, the spanning tree's and the final path's sums; a graph
    # that is not a tree renders apart from its spanning tree
    assert (counts["is_tree"], counts["pseudo_sum"], counts["branching_weight"]) == (0, 3, 1 + steps)
    assert counts["_graph6_encode"] == 2 + steps


def test_rewired_trees_carry_their_neighbour_lists(monkeypatch):
    built = []
    build = graphs.Graph._adjacency.func

    def counted(g):
        built.append(g)
        return build(g)

    prop = functools.cached_property(counted)
    prop.__set_name__(graphs.Graph, "_adjacency")
    monkeypatch.setattr(graphs.Graph, "_adjacency", prop)
    rng = random.Random(40417)
    n = 40
    tree = build_graph(n, random_tree(n, rng).edges)
    built.clear()
    trace = pathify(tree, make_cycle(n), random_bijection(n, rng))
    assert len(trace.steps) > 5
    # only the starting tree builds its lists from its edges
    assert len(built) == 1 and built[0] is tree
    n = 15
    g = build_graph(n, list(itertools.combinations(range(7), 2)) + [(v, v + 1) for v in range(6, n - 1)])
    built.clear()
    general = pathify_general(g, make_cycle(n), tuple(range(n)))
    assert len(general.steps) > 1
    # the input and its spanning tree; no tree a step built
    assert len(built) == 2 and built[0] is g and built[1] is general.spanning_tree
    # each carried list is the one the tree's own edges give
    for step in trace.steps + general.steps:
        assert graphs.adjacency(step.after) == build(graphs.Graph(step.after.n, step.after.edges)), step.triple


def test_step_sums_match_sums_on_rebuilt_trees():
    rng = random.Random(5120)
    steps = 0
    for n in range(4, 41):
        t = random_tree(n, rng)
        f = random_bijection(n, rng)
        for h in (make_path(n), make_cycle(n), random_connected_graph(n, rng)):
            trace = pathify(t, h, f)
            for step in trace.steps:
                # a rebuilt graph runs its own BFS instead of reading the carried matrix
                before, after = (build_graph(n, g.edges) for g in (step.before, step.after))
                assert step.sum_before == pseudo_sum(h, before, f)
                assert step.sum_after == pseudo_sum(h, after, f)
            steps += len(trace.steps)
    assert steps > 500


def test_choose_transform_tie_prefers_end_a():
    h = build_graph(7, [(0, 5), (3, 6)])
    step = choose_transform(BRANCHED_PATH, h, tuple(range(7)), LeafTriple(0, 4, 6))
    assert (step.n_arm_a, step.n_arm_b) == (1, 1)
    assert step.choice == "end_a"


def test_equality_step_exists():
    # a tied choice can keep the sum flat even though a cross pair ends
    # away from both ends; the other rewiring is then strictly better
    h = build_graph(7, [(0, 5), (3, 6)])
    f = tuple(range(7))
    triple = LeafTriple(0, 4, 6)
    step = choose_transform(BRANCHED_PATH, h, f, triple)
    assert step.sum_before == step.sum_after == 6
    j = find_junction(BRANCHED_PATH, triple)
    _, to_b = rewire(BRANCHED_PATH, j, triple)
    assert pseudo_sum(h, to_b, f) == 8


def _strictness_instance(rng):
    n = rng.randint(4, 9)
    t = random_tree(n, rng)
    leaf_list = sorted(leaves(t))
    if len(leaf_list) < 3:
        return None
    ends = rng.sample(leaf_list, 3)
    h = random_connected_graph(n, rng)
    f = random_bijection(n, rng)
    return t, h, f, LeafTriple(*ends)


def test_chosen_step_strictness_characterization():
    """The chosen rewiring keeps the sum flat only in one precise shape.

    Equality requires a tie between the arm counts, no cross link riding
    through neither arm, and every arm_a link landing exactly on end_a.
    Otherwise the chosen step strictly increases the sum.
    """
    rng = random.Random(852004)
    seen_equal = 0
    seen_strict = 0
    for _ in range(400):
        inst = _strictness_instance(rng)
        if inst is None:
            continue
        t, h, f, triple = inst
        step = choose_transform(t, h, f, triple)
        j = find_junction(t, triple)
        side = spur_component(t, j)
        linked = linked_cross_pairs(h, f, side)
        classes = {pair: classify_pair(t, j, *pair, side) for pair in linked}
        tie = step.n_arm_a == step.n_arm_b
        no_neither = all(c != NEITHER for c in classes.values())
        arm_a_on_end = all(
            y == triple.end_a for (x, y), c in classes.items() if c == ARM_A
        )
        flat_expected = tie and no_neither and arm_a_on_end
        assert (step.sum_after == step.sum_before) == flat_expected
        seen_equal += step.sum_after == step.sum_before
        seen_strict += step.sum_after > step.sum_before
    assert seen_equal and seen_strict


def test_some_rewiring_is_strict_when_links_leave_the_ends():
    """If any cross link ends away from both chosen ends, one of the two
    rewirings strictly increases the sum."""
    rng = random.Random(990017)
    hits = 0
    for _ in range(400):
        inst = _strictness_instance(rng)
        if inst is None:
            continue
        t, h, f, triple = inst
        j = find_junction(t, triple)
        side = spur_component(t, j)
        linked = linked_cross_pairs(h, f, side)
        if all(y in (triple.end_a, triple.end_b) for _, y in linked):
            continue
        hits += 1
        before = pseudo_sum(h, t, f)
        to_a, to_b = rewire(t, j, triple)
        assert max(pseudo_sum(h, to_a, f), pseudo_sum(h, to_b, f)) > before
    assert hits > 50


def _pair_growth_checks(t, j, triple, side):
    d = distance_matrix(t)
    to_a, to_b = rewire(t, j, triple)
    d_a = _bfs_distances(to_a)
    d_b = _bfs_distances(to_b)
    outside = [v for v in range(t.n) if v not in side]
    grow_a = int(d[triple.end_a, j.fork])
    grow_b = int(d[triple.end_b, j.fork])
    for x, y in itertools.product(sorted(side), outside):
        cls = classify_pair(t, j, x, y, side)
        if cls == NEITHER:
            assert d_a[x, y] == d[x, y] + grow_a
            assert d_b[x, y] == d[x, y] + grow_b
        elif cls == ARM_A:
            assert d_b[x, y] == d[x, y] + grow_b
        else:
            assert d_a[x, y] == d[x, y] + grow_a
    # within-side distances never move
    for u, v in itertools.combinations(sorted(side), 2):
        assert d_a[u, v] == d[u, v] == d_b[u, v]
    for u, v in itertools.combinations(outside, 2):
        assert d_a[u, v] == d[u, v] == d_b[u, v]


def test_rewired_distance_growth_spider():
    j = find_junction(SPIDER, SPIDER_TRIPLE)
    _pair_growth_checks(SPIDER, j, SPIDER_TRIPLE, spur_component(SPIDER, j))


def test_rewired_distance_growth_random_trees():
    rng = random.Random(240817)
    done = 0
    while done < 25:
        t = random_tree(rng.randint(4, 9), rng)
        leaf_list = sorted(leaves(t))
        if len(leaf_list) < 3:
            continue
        triple = LeafTriple(*rng.sample(leaf_list, 3))
        j = find_junction(t, triple)
        _pair_growth_checks(t, j, triple, spur_component(t, j))
        done += 1


def test_paired_identity_spider():
    """Opposite-arm pairs change by exactly twice the end-to-entry distance."""
    t, triple = SPIDER, SPIDER_TRIPLE
    j = find_junction(t, triple)
    side = spur_component(t, j)
    d = distance_matrix(t)
    to_a, to_b = rewire(t, j, triple)
    d_a = _bfs_distances(to_a)
    d_b = _bfs_distances(to_b)
    trunk = set(tree_path(t, triple.end_a, triple.end_b))
    outside = [v for v in range(t.n) if v not in side]
    pairs = list(itertools.product(sorted(side), outside))
    arm_a_pairs = [p for p in pairs if classify_pair(t, j, *p, side) == ARM_A]
    arm_b_pairs = [p for p in pairs if classify_pair(t, j, *p, side) == ARM_B]

    def entry(y, x):
        return next(v for v in tree_path(t, y, x) if v in trunk)

    for (x, y), (xb, yb) in itertools.product(arm_a_pairs, arm_b_pairs):
        z = entry(y, x)
        lhs = int(d_a[x, y] + d_a[xb, yb])
        rhs = int(d[x, y] + d[xb, yb]) + 2 * int(d[triple.end_a, z])
        assert lhs == rhs
        assert (lhs == int(d[x, y] + d[xb, yb])) == (y == triple.end_a)
        zb = entry(yb, xb)
        lhs = int(d_b[x, y] + d_b[xb, yb])
        rhs = int(d[x, y] + d[xb, yb]) + 2 * int(d[triple.end_b, zb])
        assert lhs == rhs
        assert (lhs == int(d[x, y] + d[xb, yb])) == (yb == triple.end_b)


def test_pathify_spider():
    h = build_graph(7, [(2, 6), (5, 6), (0, 1), (1, 2), (0, 3), (3, 4)])
    trace = pathify(SPIDER, h, tuple(range(7)))
    assert trace.initial == SPIDER
    assert trace.spanning_tree is SPIDER
    assert classify_shape(trace.final) == "path"
    assert trace.final_sum >= trace.tree_sum >= trace.initial_sum
    assert len(trace.steps) <= branching_weight(SPIDER)
    for step in trace.steps:
        assert step.sum_after >= step.sum_before
        assert step.weight_after < step.weight_before


OPTIMIZED_VIOLATION = """
import sys
from dataclasses import replace
import hamspec
from hamspec import surgery
spider = hamspec.build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
step = surgery._step


def run():
    try:
        surgery.pathify(spider, hamspec.make_path(7), tuple(range(7)))
    except hamspec.InvariantError as exc:
        print(sys.flags.optimize, isinstance(exc, AssertionError), exc)


def off_by_one(*args):
    kept = step(*args)
    return replace(kept, sum_after=kept.sum_after + 1)


surgery._step = off_by_one
run()
surgery._step = step
surgery.branching_weight = lambda t: 5
run()
"""


def test_invariants_hold_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hamspec.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_VIOLATION],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    # a step sum off by one, and a branching weight that never drops, must
    # each stop the run although -O strips asserts
    assert result.stdout.splitlines() == [
        "1 True step sums do not chain to the final path's sum",
        "1 True branching weight failed to drop",
    ]


def test_trees_release_their_distances():
    t = random_tree(20, random.Random(8))
    trace = pathify(t, make_cycle(20), tuple(range(20)))
    assert trace.steps
    d = distance_matrix(trace.final)
    assert d is distance_matrix(trace.final)
    assert not d.flags.writeable
    # the distances live on the graph object, so no cache keeps a tree alive
    refs = [weakref.ref(t), weakref.ref(trace.final)]
    del t, trace, d
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_pathify_on_a_path_is_empty():
    trace = pathify(make_path(5), make_path(5), tuple(range(5)))
    assert trace.steps == ()
    assert trace.final == make_path(5)
    assert trace.final_sum == trace.initial_sum == 4


def test_pathify_validation():
    with pytest.raises(GraphError):
        pathify(make_cycle(4), make_path(4), (0, 1, 2, 3))
    with pytest.raises(GraphError):
        pathify(make_path(4), make_path(5), (0, 1, 2, 3))
    with pytest.raises(GraphError):
        pathify(make_path(4), make_path(4), (0, 1, 2, 2))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_pathify_random_properties(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    n = data.draw(st.integers(min_value=2, max_value=9))
    t = random_tree(n, rng)
    h = random_connected_graph(n, rng)
    f = random_bijection(n, rng)
    trace = pathify(t, h, f)
    assert trace.final.n == n
    assert n == 1 or classify_shape(trace.final) == "path"
    assert trace.final_sum >= trace.initial_sum
    weights = [branching_weight(t)] + [s.weight_after for s in trace.steps]
    assert all(a > b for a, b in zip(weights, weights[1:]))
    assert len(trace.steps) <= branching_weight(t)
    sums = [trace.tree_sum] + [s.sum_after for s in trace.steps]
    assert all(a <= b for a, b in zip(sums, sums[1:]))


def test_pathify_general_routes_through_spanning_tree():
    c4 = make_cycle(4)
    trace = pathify_general(c4, c4, (0, 1, 2, 3))
    assert trace.initial == c4
    assert trace.spanning_tree == build_graph(4, [(0, 1), (0, 3), (1, 2)])
    assert trace.initial_sum == 4
    assert trace.tree_sum >= trace.initial_sum
    assert classify_shape(trace.final) == "path"
    # the final path sum is still bounded by the best over all bijections
    bound, _ = extremal_number(c4, make_path(4), "max")
    assert trace.final_sum <= bound


def test_pathify_general_random_bound():
    rng = random.Random(61553)
    for _ in range(25):
        n = rng.randint(2, 8)
        g = random_connected_graph(n, rng)
        h = random_connected_graph(n, rng)
        f = random_bijection(n, rng)
        trace = pathify_general(g, h, f)
        assert trace.final_sum >= trace.initial_sum == pseudo_sum(h, g, f)
        bound, _ = extremal_number(h, make_path(n), "max")
        assert trace.final_sum <= bound
        assert is_tree(trace.spanning_tree)
        assert set(trace.spanning_tree.edges) <= set(g.edges)


def test_trace_serialization():
    h = build_graph(7, [(2, 6), (5, 6), (0, 1), (1, 2), (0, 3), (3, 4)])
    trace = pathify(SPIDER, h, tuple(range(7)))
    out = trace_to_dict(trace)
    assert out["initial"] == render_graph(SPIDER)
    assert out["step_count"] == len(out["steps"]) == len(trace.steps)
    assert out["final_sum"] == trace.final_sum
    step = out["steps"][0]
    assert set(step) == {
        "before", "after", "triple", "junction", "n_arm_a", "n_arm_b",
        "choice", "sum_before", "sum_after", "weight_before", "weight_after",
    }
    assert step == step_to_dict(trace.steps[0])
    assert "steps" not in trace_to_dict(trace, steps=False)
    text = format_trace(trace)
    assert text.splitlines()[0].startswith("initial: ")
    assert "step 1:" in text
    assert f"sum {trace.final_sum}" in text.splitlines()[-1]
    assert "step 1:" not in format_trace(trace, steps=False)


def test_trace_of_a_numpy_bijection_serializes():
    # each entry of f is read as an int, so a trace started from a numpy
    # array holds ints and dumps to the same JSON as one from a tuple
    h = build_graph(7, [(2, 6), (5, 6), (0, 1), (1, 2), (0, 3), (3, 4)])
    trace = pathify(SPIDER, h, np.arange(7))
    assert [type(x) for x in trace.f] == [int] * 7
    assert json.dumps(trace_to_dict(trace)) == json.dumps(trace_to_dict(pathify(SPIDER, h, tuple(range(7)))))
