"""Leaf-to-leaf rewiring that straightens a tree without losing sum value.

Pick three distinct leaves of a tree: two ends and a spur. Walking from the
spur toward the first end meets the ends' connecting path at a fork; the
vertex just before the fork is the stub. Detaching the stub from the fork
and reattaching it to either end yields a new tree with strictly fewer
branch vertices, and the end is chosen so that no bijection sum decreases.
Iterating turns any tree into a path; routing a connected graph through a
spanning tree first extends this to arbitrary connected inputs.

The stub's side is a pendant subtree, so moving it changes only the
distances that cross the cut (the exchange lemma): each rewired tree gets
its distance matrix from its parent's by one block shift, and a step's sum
changes by d(end, y) - d(fork, y) summed over the linked cross pairs
(x on the spur side, y off it). Only the starting tree runs BFS; a tree a
step built is a tree by construction and is never checked again, and a run
sums its bijection by distances only on the input, on the spanning tree and
on the final path, where the last sum cross-checks the chained step sums.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .graphs import (
    Graph,
    GraphError,
    _with_distances,
    adjacency,
    degrees,
    distance_matrix,
    first_spanning_tree,
    is_tree,
    leaves,
    render_graph,
)
from .spectra import _check_bijection, _check_same_order, pseudo_sum

ARM_A = "arm_a"
ARM_B = "arm_b"
NEITHER = "neither"


class InvariantError(AssertionError):
    """A rewiring invariant failed; raised rather than asserted, so it holds under python -O."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantError(message)


@dataclass(frozen=True)
class LeafTriple:
    """Three distinct leaves: the two future path ends and a spur to fold in."""

    end_a: int
    end_b: int
    spur: int


@dataclass(frozen=True)
class Junction:
    """Where the spur's branch meets the path between the ends.

    fork is the meeting vertex, stub its neighbor on the spur side, and
    arm_a / arm_b are the fork's neighbors along the trunk toward end_a and
    end_b respectively.
    """

    fork: int
    stub: int
    arm_a: int
    arm_b: int


def _check_triple(t: Graph, triple: LeafTriple) -> None:
    names = (triple.end_a, triple.end_b, triple.spur)
    if len(set(names)) != 3:
        raise GraphError(f"leaf triple {names!r} is not three distinct vertices")
    leaf_set = leaves(t)
    for v in names:
        if v not in leaf_set:
            raise GraphError(f"vertex {v} is not a leaf of the tree")


def _nearer(d: np.ndarray, near: int, far: int) -> np.ndarray:
    """Mask of the vertices on near's side of the tree edge {near, far}.

    In a tree, v lies on near's side exactly when d(near, v) < d(far, v).
    """
    return d[near] < d[far]


def _arms(d: np.ndarray, junction: Junction) -> list[str]:
    """Which fork arm's side of the tree (distances d) holds each vertex."""
    on_a = _nearer(d, junction.arm_a, junction.fork).tolist()
    on_b = _nearer(d, junction.arm_b, junction.fork).tolist()
    return [ARM_A if a else ARM_B if b else NEITHER for a, b in zip(on_a, on_b)]


def _tree_distances(t: Graph, *edges: tuple[int, int]) -> np.ndarray:
    """The distance matrix of a tree, once each pair is checked to be one of its edges."""
    if not is_tree(t):
        raise GraphError("junctions and edge sides are defined on trees")
    for near, far in edges:
        if not (0 <= near < t.n and 0 <= far < t.n and far in adjacency(t)[near]):
            raise GraphError(f"cut edge {(near, far)!r} is not in the graph")
    return distance_matrix(t)


def find_junction(t: Graph, triple: LeafTriple) -> Junction:
    """Locate the fork, stub, and trunk arms for a leaf triple of a tree."""
    d = _tree_distances(t)
    _check_triple(t, triple)
    return _junction(t, d, triple)


def _junction(t: Graph, d: np.ndarray, triple: LeafTriple) -> Junction:
    """find_junction's anatomy on a tree t (distances d) whose leaf triple is known valid."""
    a, b, spur = triple.end_a, triple.end_b, triple.spur
    trunk = np.flatnonzero(d[a] + d[b] == d[a, b])
    fork = int(trunk[np.argmin(d[spur, trunk])])
    # a leaf spur cannot lie on the trunk, and a trunk end cannot be the
    # fork, else that end would have degree >= 2
    _require(fork != spur, "spur lies on the trunk")
    _require(fork not in (a, b), "fork landed on a trunk end")

    def toward(v: int) -> int:
        return next(w for w in adjacency(t)[fork] if _nearer(d, w, fork)[v])

    return Junction(fork=fork, stub=toward(spur), arm_a=toward(a), arm_b=toward(b))


def spur_component(t: Graph, junction: Junction) -> frozenset[int]:
    """Vertices on the spur side once the stub-fork edge is cut."""
    d = _tree_distances(t, (junction.stub, junction.fork))
    return frozenset(np.flatnonzero(_nearer(d, junction.stub, junction.fork)).tolist())


def _rewired(t: Graph, d: np.ndarray, side: np.ndarray, junction: Junction, end: int) -> Graph:
    """The tree t (distances d) with the stub moved from the fork to end.

    The spur side (mask side) is a pendant subtree, so only distances across
    the cut change: x on it and y off it end d(x, stub) + 1 + d(end, y) apart.
    """
    stub, fork = junction.stub, junction.fork
    inside, outside = np.flatnonzero(side), np.flatnonzero(~side)
    block = np.ix_(inside, outside)
    cross = d[inside, stub][:, None] + 1 + d[end, outside]
    dist = d.copy()
    dist[block] = cross
    dist.T[block] = cross
    cut = (min(stub, fork), max(stub, fork))
    # t.edges is sorted, so the kept edges are too; stub-end is not among them
    edges = [e for e in t.edges if e != cut]
    bisect.insort(edges, (min(stub, end), max(stub, end)))
    return _with_distances(t.n, tuple(edges), dist)


def rewire(t: Graph, junction: Junction, triple: LeafTriple) -> tuple[Graph, Graph]:
    """Both rewired trees: stub reattached to end_a, and to end_b.

    The step's builder applied to both ends. The stub-fork pair must be a
    tree edge and both ends must lie off the spur side, else no tree results.
    """
    d = _tree_distances(t, (junction.stub, junction.fork))
    side = _nearer(d, junction.stub, junction.fork)
    ends = (triple.end_a, triple.end_b)
    if not all(0 <= end < t.n and not side[end] for end in ends):
        raise GraphError(f"ends {ends!r} must be vertices off the spur side")
    return tuple(_rewired(t, d, side, junction, end) for end in ends)


def classify_pair(
    t: Graph,
    junction: Junction,
    a: int,
    b: int,
    spur_side: frozenset[int] | None = None,
) -> str:
    """Which fork arm the tree path of a cross pair passes through.

    The pair must straddle the stub-fork cut: a on the spur side, b outside.
    Returns ARM_A, ARM_B, or NEITHER; the path can never use both arms.
    """
    d = _tree_distances(t, (junction.arm_a, junction.fork), (junction.arm_b, junction.fork))
    if spur_side is None:
        spur_side = spur_component(t, junction)
    if not (0 <= b < t.n):
        raise GraphError(f"vertices ({a}, {b}) out of range for n={t.n}")
    if a not in spur_side or b in spur_side:
        raise GraphError(f"pair ({a}, {b}) does not straddle the stub-fork cut")
    return _arms(d, junction)[b]


def linked_cross_pairs(h: Graph, f, spur_side: frozenset[int]) -> frozenset[tuple[int, int]]:
    """Cross pairs (inside, outside) whose preimages form an edge of H."""
    f = _check_bijection(f, h.n)
    pairs = set()
    for p, q in h.edges:
        x, y = f[p], f[q]
        if x in spur_side and y not in spur_side:
            pairs.add((x, y))
        elif y in spur_side and x not in spur_side:
            pairs.add((y, x))
    return frozenset(pairs)


def branching_weight(g: Graph) -> int:
    """Total degree sitting at branch vertices (degree >= 3); zero on paths."""
    return sum(d for d in degrees(g) if d >= 3)


@dataclass(frozen=True)
class TransformStep:
    """One rewiring: the data that drove the choice plus both sums."""

    before: Graph
    triple: LeafTriple
    junction: Junction
    n_arm_a: int
    n_arm_b: int
    choice: str
    after: Graph
    sum_before: int
    sum_after: int
    weight_before: int
    weight_after: int


@dataclass(frozen=True)
class TransformTrace:
    """A full run from a connected graph down to a path, step by step."""

    initial: Graph
    f: tuple[int, ...]
    spanning_tree: Graph
    initial_sum: int
    tree_sum: int
    steps: tuple[TransformStep, ...]
    final: Graph
    final_sum: int


def choose_transform(t: Graph, h: Graph, f, triple: LeafTriple) -> TransformStep:
    """Rewire toward the end that cannot lower the sum, and record why.

    Cross pairs carrying an H-edge are counted by the fork arm their path
    uses; the stub moves to end_a when the arm_a count is at most the arm_b
    count, otherwise to end_b. The resulting sum never drops. find_junction
    is the one tree check, and its stub neighbours the fork with both ends
    on the trunk, off the spur side; only the kept tree is built. The sum
    after the step comes from the exchange lemma, not from a second sum
    over the new tree's distances.
    """
    _check_same_order(h, t)
    f = _check_bijection(f, t.n)
    junction = find_junction(t, triple)
    return _step(t, h, f, triple, junction, pseudo_sum(h, t, f), branching_weight(t))


def _step(
    t: Graph, h: Graph, f: tuple[int, ...], triple: LeafTriple, junction: Junction,
    sum_before: int, weight_before: int,
) -> TransformStep:
    """choose_transform on checked inputs, given t's sum and branching weight.

    Only distances across the stub-fork cut change: a linked cross pair
    (x, y) ends d(x, stub) + 1 + d(end, y) apart instead of
    d(x, stub) + 1 + d(fork, y), so the sum moves by d(end, y) - d(fork, y).
    """
    d = distance_matrix(t)
    side = _nearer(d, junction.stub, junction.fork)
    arms = _arms(d, junction)
    linked = [y for _, y in linked_cross_pairs(h, f, frozenset(np.flatnonzero(side).tolist()))]
    linked_arms = [arms[y] for y in linked]
    n_arm_a, n_arm_b = linked_arms.count(ARM_A), linked_arms.count(ARM_B)
    choice = "end_a" if n_arm_a <= n_arm_b else "end_b"
    end = triple.end_a if choice == "end_a" else triple.end_b
    after = _rewired(t, d, side, junction, end)
    sum_after = sum_before + int(d[end, linked].sum() - d[junction.fork, linked].sum())
    _require(sum_after >= sum_before, "rewiring lowered the sum")
    step = TransformStep(
        before=t,
        triple=triple,
        junction=junction,
        n_arm_a=n_arm_a,
        n_arm_b=n_arm_b,
        choice=choice,
        after=after,
        sum_before=sum_before,
        sum_after=sum_after,
        weight_before=weight_before,
        weight_after=branching_weight(after),
    )
    _require(step.weight_after < step.weight_before, "branching weight failed to drop")
    return step


def _next_triple(t: Graph) -> LeafTriple:
    low, second, third = sorted(leaves(t))[:3]
    return LeafTriple(end_a=low, end_b=second, spur=third)


def pathify(t: Graph, h: Graph, f) -> TransformTrace:
    """Rewire a tree into a path, never lowering the bijection sum.

    Each step folds the third-smallest leaf toward the two smallest, so the
    run is deterministic; the branching weight strictly decreases, bounding
    the number of steps, and the run ends when it reaches zero: a tree with
    no branch vertex is a path.
    """
    if not is_tree(t):
        raise GraphError("pathify starts from a tree")
    _check_same_order(h, t)
    # a tree is its own first spanning tree; is_tree has run the one
    # connectivity BFS that first_spanning_tree would repeat
    return _rewire(t, t, h, _check_bijection(f, t.n))


def pathify_general(g: Graph, h: Graph, f) -> TransformTrace:
    """Route any connected graph through its first spanning tree to a path.

    Spanning-tree distances only grow, so the final path sum still bounds
    the starting sum from above. A tree is its own spanning tree. Each
    step's sum is chained from the last by the exchange lemma, and the
    final path's own sum must equal the chained one.
    """
    _check_same_order(h, g)
    f = _check_bijection(f, g.n)
    return _rewire(g, first_spanning_tree(g), h, f)


def _rewire(g: Graph, tree: Graph, h: Graph, f: tuple[int, ...]) -> TransformTrace:
    """pathify_general's run on g, its first spanning tree, and a checked h and f."""
    initial_sum = pseudo_sum(h, g, f)
    tree_sum = initial_sum if tree is g else pseudo_sum(h, tree, f)
    _require(tree_sum >= initial_sum, "spanning tree shortened a distance")
    steps = []
    current, total = tree, tree_sum
    weight = budget = branching_weight(tree)
    while weight:
        _require(len(steps) < budget, "rewiring failed to terminate")
        triple = _next_triple(current)
        junction = _junction(current, distance_matrix(current), triple)
        step = _step(current, h, f, triple, junction, total, weight)
        steps.append(step)
        current, total, weight = step.after, step.sum_after, step.weight_after
    final_sum = pseudo_sum(h, current, f)
    _require(final_sum == total, "step sums do not chain to the final path's sum")
    return TransformTrace(
        initial=g,
        f=f,
        spanning_tree=tree,
        initial_sum=initial_sum,
        tree_sum=tree_sum,
        steps=tuple(steps),
        final=current,
        final_sum=final_sum,
    )


# ---------------------------------------------------------------------------
# trace serialization

def step_to_dict(step: TransformStep) -> dict:
    t, j = step.triple, step.junction
    return {
        "before": render_graph(step.before),
        "after": render_graph(step.after),
        "triple": {"end_a": t.end_a, "end_b": t.end_b, "spur": t.spur},
        "junction": {"fork": j.fork, "stub": j.stub, "arm_a": j.arm_a, "arm_b": j.arm_b},
        "n_arm_a": step.n_arm_a,
        "n_arm_b": step.n_arm_b,
        "choice": step.choice,
        "sum_before": step.sum_before,
        "sum_after": step.sum_after,
        "weight_before": step.weight_before,
        "weight_after": step.weight_after,
    }


def trace_to_dict(trace: TransformTrace, steps: bool = True) -> dict:
    out = {
        "initial": render_graph(trace.initial),
        "spanning_tree": render_graph(trace.spanning_tree),
        "f": list(trace.f),
        "initial_sum": trace.initial_sum,
        "tree_sum": trace.tree_sum,
        "final": render_graph(trace.final),
        "final_sum": trace.final_sum,
        "step_count": len(trace.steps),
    }
    if steps:
        out["steps"] = [step_to_dict(s) for s in trace.steps]
    return out


def format_trace(trace: TransformTrace, steps: bool = True) -> str:
    lines = [
        f"initial: {render_graph(trace.initial)}  sum {trace.initial_sum}",
        f"spanning tree: {render_graph(trace.spanning_tree)}  sum {trace.tree_sum}",
    ]
    if steps:
        for k, step in enumerate(trace.steps, start=1):
            t, j = step.triple, step.junction
            lines.append(
                f"step {k}: triple ({t.end_a}, {t.end_b}, {t.spur})"
                f"  fork {j.fork} stub {j.stub} arms ({j.arm_a}, {j.arm_b})"
                f"  links {step.n_arm_a}a/{step.n_arm_b}b  choice {step.choice}"
                f"  sum {step.sum_before} -> {step.sum_after}"
                f"  weight {step.weight_before} -> {step.weight_after}"
            )
    lines.append(
        f"final: {render_graph(trace.final)}  sum {trace.final_sum}"
        f"  steps {len(trace.steps)}"
    )
    return "\n".join(lines)
