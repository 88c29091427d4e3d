"""Exhaustive checks of the package's structural claims on small graphs.

Connected graphs are enumerated one representative per isomorphism class by
growing each smaller class with a new vertex attached to every nonempty
subset of the old vertices; a graph stays connected exactly when it has a
vertex whose removal leaves it connected, so every class is reached. Each
checker sweeps a claim over such an enumeration and returns a report whose
failures pin down the offending graphs in graph6 form.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .graphs import (
    FormatError,
    Graph,
    GraphError,
    adjacency,
    build_graph,
    classify_shape,
    distance_matrix,
    is_connected,
    make_cycle,
    make_path,
    non_articulation_vertex,
    render_graph,
    _spanning_tree_iter,
)
from .spectra import _aut_orbit, _check_scan_cap, spectrum

# n=8 holds 11117 classes; enumerating them takes about 3.2-3.5 s, against
# under 1 s to score them all against one H (timings in the kernels module
# docstring), so enumeration is what keeps the cap at 7.
ENUMERATION_CAP = 7


# one tuple of class representatives per n, each built from the one below:
# at most ENUMERATION_CAP entries, 1 + 1 + 2 + 6 + 21 + 112 + 853 graphs
@lru_cache(maxsize=ENUMERATION_CAP)
def _connected_classes(n: int) -> tuple[Graph, ...]:
    if n == 1:
        return (Graph(1, ()),)
    # code of base + attachment mask under every ordering, built by subset
    # sums: codes[mask | 1 << v] = codes[mask] + attach[v] for mask < 1 << v,
    # attach[v] the codes of the one edge (v, n - 1)
    attach = np.stack([kernels.code_sums(n, [(v, n - 1)]) for v in range(n - 1)])
    codes = np.empty((1 << (n - 1), attach.shape[1]), dtype=np.int32)
    seen = set()
    for base in _connected_classes(n - 1):
        kernels.code_sums(n, base.edges, out=codes[0])
        for v in range(n - 1):
            np.add(codes[: 1 << v], attach[v], out=codes[1 << v : 2 << v])
        # mask 0 leaves the new vertex isolated
        seen.update(codes[1:].min(axis=1).tolist())
    return tuple(Graph(n, kernels.edges_from_code(n, code)) for code in sorted(seen))


def enumerate_connected_graphs(n: int) -> tuple[Graph, ...]:
    """One canonical representative per connected isomorphism class on n vertices.

    Representatives are rebuilt from their canonical codes, so canonicalizing
    any member of the output returns that member; the tuple is ordered by
    canonical code.
    """
    if n < 1:
        raise GraphError(f"enumeration needs n >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise GraphError(f"enumeration cap is n <= {ENUMERATION_CAP}, got {n}")
    return _connected_classes(n)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of sweeping one claim over an exhaustive family."""

    claim: str
    instances_checked: int
    failures: tuple[tuple[str, str], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "instances_checked": self.instances_checked,
            "failures": [[key, detail] for key, detail in self.failures],
            "passed": self.passed,
        }


def format_report(report: VerificationReport) -> str:
    lines = [
        f"claim: {report.claim}",
        f"checked: {report.instances_checked}",
    ]
    for key, detail in report.failures:
        lines.append(f"FAIL {key}: {detail}")
    lines.append("result: PASS" if report.passed else f"result: FAIL ({len(report.failures)})")
    return "\n".join(lines)


def verify_closed_forms(n_max: int) -> VerificationReport:
    """Extreme tour sums of the path graph match their closed forms.

    For the n-vertex path, the maximum open-tour sum is floor(n^2/2) - 1
    (n >= 2) and the maximum closed-tour sum is floor(n^2/2) (n >= 3).
    Each is read from spectrum, so n_max above EXHAUSTIVE_CAP is refused
    before any scan runs.
    """
    if n_max < 2:
        raise GraphError(f"closed forms start at n=2, got n_max={n_max}")
    _check_scan_cap(n_max)
    failures = []
    checked = 0
    for n in range(2, n_max + 1):
        path = make_path(n)
        expected_open = n * n // 2 - 1
        got = spectrum(path, path).max
        checked += 1
        if got != expected_open:
            failures.append(
                (f"{render_graph(path)}|open|n={n}", f"got {got}, expected {expected_open}")
            )
        if n >= 3:
            expected_closed = n * n // 2
            got = spectrum(make_cycle(n), path).max
            checked += 1
            if got != expected_closed:
                failures.append(
                    (f"{render_graph(path)}|closed|n={n}", f"got {got}, expected {expected_closed}")
                )
    return VerificationReport("closed-forms", checked, tuple(sorted(failures)))


def _upper_bound_items(n: int, h_family: str):
    if h_family == "canonical":
        hs = [("path", make_path(n))]
        if n >= 3:
            hs.append(("cycle", make_cycle(n)))
    elif h_family == "all":
        hs = [(render_graph(h), h) for h in enumerate_connected_graphs(n)]
    else:
        raise GraphError(f"h_family must be 'canonical' or 'all', got {h_family!r}")
    graphs = enumerate_connected_graphs(n)
    return hs, graphs


def _upper_bound_key(g: Graph, h_name: str) -> str:
    return f"{render_graph(g)}|{h_name}"


def _check_upper_bound_item(shape: str, value: int, bound: int):
    if value > bound:
        return f"max sum {value} exceeds path bound {bound}"
    if value == bound and shape != "path":
        return f"non-path graph ({shape}) attained the path bound {bound}"
    if value < bound and shape == "path":
        return f"path graph fell short of the bound: {value} < {bound}"
    return None


def verify_upper_bound(
    n: int,
    h_family: str = "canonical",
    progress_path: str | None = None,
) -> VerificationReport:
    """The n-vertex path maximizes the maximum sum, uniquely, for every H.

    For each H in the family and every connected G on n vertices, the
    maximum sum over bijections is at most the value attained when G is the
    path, with equality exactly when G is the path. The bound comes from
    one exhaustive scan of the path, so it cross-checks kernels.max_sums
    on the path's own item; max_sums scores the graphs' one distance stack
    against each H, also exhaustively (over f(0) = 0 alone for a
    vertex-transitive H, which loses no maximum), so every value reported
    is exact.
    A progress file (one key per line) lets an interrupted sweep resume:
    recorded keys are skipped but still counted, and an interrupt loses at
    most the H in hand. Only passing items are recorded, so failures are
    re-examined on resume.
    """
    if n < 2:
        raise GraphError(f"upper-bound sweeps start at n=2, got {n}")
    hs, graphs = _upper_bound_items(n, h_family)
    shapes = [classify_shape(g) for g in graphs]
    dists = np.stack([distance_matrix(g) for g in graphs])
    path = make_path(n)
    done = set()
    if progress_path and os.path.exists(progress_path):
        try:
            with open(progress_path, "r", encoding="ascii") as fh:
                done = {line.strip() for line in fh if line.strip()}
        except UnicodeDecodeError:
            raise FormatError(f"progress file {progress_path!r} is not ASCII") from None
    failures = []
    checked = 0
    log = open(progress_path, "a", encoding="ascii") if progress_path else None
    try:
        for h_name, h in hs:
            bound = spectrum(h, path).max
            checked += len(graphs)
            todo = range(len(graphs))
            stack = dists
            if done:
                todo = [i for i in todo if _upper_bound_key(graphs[i], h_name) not in done]
                if not todo:
                    continue
                stack = dists[todo]
            values = kernels.max_sums(stack, h.edges, orbit=_aut_orbit(adjacency(h), 0))
            for i, value in zip(todo, values.tolist()):
                problem = _check_upper_bound_item(shapes[i], value, bound)
                if problem is None:
                    if log:
                        log.write(_upper_bound_key(graphs[i], h_name) + "\n")
                        log.flush()
                else:
                    failures.append((_upper_bound_key(graphs[i], h_name), problem))
    finally:
        if log:
            log.close()
    return VerificationReport("upper-bound", checked, tuple(sorted(failures)))


def _sweep_classes(claim: str, n_max: int, problem) -> VerificationReport:
    """Check problem(g), a failure detail or None, on every connected graph
    on 2..n_max vertices."""
    # refuses n_max above ENUMERATION_CAP before any smaller n is swept
    enumerate_connected_graphs(n_max)
    failures = []
    checked = 0
    for n in range(2, n_max + 1):
        for g in enumerate_connected_graphs(n):
            checked += 1
            detail = problem(g)
            if detail is not None:
                failures.append((render_graph(g), detail))
    return VerificationReport(claim, checked, tuple(sorted(failures)))


def _spanning_tree_problem(g: Graph):
    # stops at the first spanning tree that is not a path
    all_paths = all(classify_shape(t) == "path" for t in _spanning_tree_iter(g))
    shape = classify_shape(g)
    if all_paths != (shape in ("path", "cycle")):
        return f"all-spanning-trees-are-paths={all_paths} but shape={shape}"
    return None


def verify_spanning_tree_characterization(n_max: int) -> VerificationReport:
    """All spanning trees are paths exactly for paths and cycles.

    Sweeps every connected graph on 2..n_max vertices and compares the
    all-spanning-trees-are-paths predicate against the graph's shape.
    """
    if n_max < 2:
        raise GraphError(f"spanning-tree sweeps start at n=2, got n_max={n_max}")
    return _sweep_classes("spanning-trees", n_max, _spanning_tree_problem)


def _non_articulation_problem(g: Graph):
    try:
        v = non_articulation_vertex(g)
    except GraphError as exc:
        return f"no removable vertex found: {exc}"
    relabel = {u: i for i, u in enumerate(x for x in range(g.n) if x != v)}
    rest = build_graph(g.n - 1, [(relabel[a], relabel[b]) for a, b in g.edges if v not in (a, b)])
    if not is_connected(rest):
        return f"removing vertex {v} disconnected the graph"
    return None


def verify_non_articulation(n_max: int) -> VerificationReport:
    """Every connected graph on >= 2 vertices has a removable vertex.

    The located vertex is re-checked independently by rebuilding the graph
    without it and testing connectivity on the relabeled remainder.
    """
    if n_max < 2:
        raise GraphError(f"articulation sweeps start at n=2, got n_max={n_max}")
    return _sweep_classes("articulation", n_max, _non_articulation_problem)
