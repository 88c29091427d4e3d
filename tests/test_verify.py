"""Enumeration of connected graphs and the exhaustive claim sweeps."""

import itertools
import math

import pytest

from hamspec import kernels
from hamspec import verify as verify_mod
from hamspec.graphs import (
    Graph,
    GraphError,
    build_graph,
    classify_shape,
    distance_matrix,
    is_connected,
    make_path,
    parse_graph,
    render_graph,
)
from hamspec.spectra import extremal_number
from hamspec.verify import (
    VerificationReport,
    enumerate_connected_graphs,
    format_report,
    verify_closed_forms,
    verify_non_articulation,
    verify_spanning_tree_characterization,
    verify_upper_bound,
)

# number of connected graphs per isomorphism class, n = 1..7
CLASS_COUNTS = [1, 1, 2, 6, 21, 112, 853]
# number of connected labeled graphs, n = 1..7, from the standard recurrence
# below; frozen here so a regression in either direction gets caught
LABELED_COUNTS = [1, 1, 4, 38, 728, 26704, 1866256]


def _labeled_connected_counts(n_max):
    """All-graphs-minus-rooted-disconnected recurrence, independent of the
    package's enumeration."""
    counts = [0] * (n_max + 1)
    counts[1] = 1
    for n in range(2, n_max + 1):
        total = 2 ** math.comb(n, 2)
        for k in range(1, n):
            total -= (
                counts[k]
                * math.comb(n - 1, k - 1)
                * 2 ** math.comb(n - k, 2)
            )
        counts[n] = total
    return counts[1:]


def _bit_code(n, edges, perm):
    """Adjacency bit code of the ordering perm (position -> vertex): the
    upper triangle row by row, first pair in the most significant bit."""
    edge_set = {frozenset(e) for e in edges}
    code = 0
    for i, j in itertools.combinations(range(n), 2):
        code = code << 1 | (frozenset((perm[i], perm[j])) in edge_set)
    return code


def _brute_force_classes(n):
    """Minimum bit codes of the connected isomorphism classes, by scanning
    every edge subset and minimizing over every ordering in pure python (no
    kernel involved)."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    codes = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        if is_connected(build_graph(n, edges)):
            codes.add(min(_bit_code(n, edges, p) for p in perms))
    return codes


def _canonical_code(n, edges):
    """Canonical code (the minimum code_columns sum over all orderings) and
    the number of orderings attaining it."""
    codes = kernels.code_columns(n, edges).sum(axis=1)
    best = int(codes.min())
    return best, int((codes == best).sum())


def test_enumeration_counts_match_brute_force():
    # a representative's own code is its canonical code, so the enumeration's
    # codes are read off with the identity ordering
    for n in range(1, 6):
        identity = tuple(range(n))
        got = {_bit_code(n, g.edges, identity) for g in enumerate_connected_graphs(n)}
        assert got == _brute_force_classes(n), n


def test_enumeration_counts_known():
    for n, want in enumerate(CLASS_COUNTS, start=1):
        assert len(enumerate_connected_graphs(n)) == want


def test_enumeration_cross_checks_labeled_counts():
    assert _labeled_connected_counts(7) == LABELED_COUNTS
    for n in range(1, 8):
        total = 0
        for g in enumerate_connected_graphs(n):
            _, aut = _canonical_code(g.n, g.edges)
            total += math.factorial(n) // aut
        assert total == LABELED_COUNTS[n - 1], n


def test_enumeration_representatives_are_canonical():
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            assert is_connected(g)
            code, _ = _canonical_code(g.n, g.edges)
            assert kernels.edges_from_code(n, code) == g.edges


def test_enumeration_is_deterministic_and_sorted():
    graphs = enumerate_connected_graphs(6)
    assert graphs == enumerate_connected_graphs(6)
    codes = [
        _canonical_code(g.n, g.edges)[0]
        for g in graphs
    ]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)


def test_enumeration_guards():
    with pytest.raises(GraphError):
        enumerate_connected_graphs(0)
    with pytest.raises(GraphError):
        enumerate_connected_graphs(8)


def test_closed_forms_pass():
    report = verify_closed_forms(8)
    assert report.passed
    assert report.claim == "closed-forms"
    assert report.instances_checked == 13
    with pytest.raises(GraphError):
        verify_closed_forms(1)


def test_upper_bound_passes_small():
    for n in range(2, 6):
        report = verify_upper_bound(n)
        assert report.passed, report.failures[:3]
        expected = len(enumerate_connected_graphs(n)) * (1 if n == 2 else 2)
        assert report.instances_checked == expected


def test_upper_bound_all_h():
    report = verify_upper_bound(4, h_family="all")
    assert report.passed
    assert report.instances_checked == 36


def test_upper_bound_resume(tmp_path):
    progress = tmp_path / "sweep.progress"
    first = verify_upper_bound(4, progress_path=str(progress))
    assert first.passed
    recorded = {line for line in progress.read_text().splitlines() if line}
    assert len(recorded) == first.instances_checked
    # every key names a real graph and H family member
    for key in recorded:
        g6, h_name = key.split("|")
        assert parse_graph(g6).n == 4
        assert h_name in ("path", "cycle")
    # a resumed run skips everything yet reports the same coverage
    before = progress.read_text()
    second = verify_upper_bound(4, progress_path=str(progress))
    assert second.passed
    assert second.instances_checked == first.instances_checked
    assert progress.read_text() == before


def test_upper_bound_interrupt_keeps_progress(tmp_path, monkeypatch):
    reference = tmp_path / "full.progress"
    full = verify_upper_bound(5, progress_path=str(reference))
    order = reference.read_text().splitlines()
    check = verify_mod._check_upper_bound_item
    calls = []

    def interrupt_after_seven(*args):
        if len(calls) == 7:
            raise KeyboardInterrupt
        calls.append(args)
        return check(*args)

    progress = tmp_path / "sweep.progress"
    monkeypatch.setattr(verify_mod, "_check_upper_bound_item", interrupt_after_seven)
    with pytest.raises(KeyboardInterrupt):
        verify_upper_bound(5, progress_path=str(progress))
    # the seven items that finished were recorded before the interrupt
    assert progress.read_text().splitlines() == order[:7]

    monkeypatch.setattr(verify_mod, "_check_upper_bound_item", check)
    resumed = verify_upper_bound(5, progress_path=str(progress))
    assert resumed == full
    assert sorted(progress.read_text().splitlines()) == sorted(order)


def _reference_upper_bound(n, h_family):
    """The sweep item by item: one exhaustive extremal_number scan per
    (H, G), with the claim's three failure conditions written out here.
    Returns the item count, the failures and (graph6, value) per item in
    sweep order (H outer, G inner)."""
    hs, graphs = verify_mod._upper_bound_items(n, h_family)
    failures = []
    values = []
    for h_name, h in hs:
        bound, _ = extremal_number(h, make_path(n), "max")
        for g in graphs:
            value, _ = extremal_number(h, g, "max")
            values.append((render_graph(g), value))
            shape = classify_shape(g)
            if value > bound or (value == bound) != (shape == "path"):
                failures.append((f"{render_graph(g)}|{h_name}", (value, bound, shape)))
    return len(hs) * len(graphs), failures, values


def test_upper_bound_matches_per_item_reference(monkeypatch):
    check = verify_mod._check_upper_bound_item
    checked_items = []

    def record(shape, value, bound):
        checked_items.append((shape, value))
        return check(shape, value, bound)

    monkeypatch.setattr(verify_mod, "_check_upper_bound_item", record)
    for h_family in ("canonical", "all"):
        for n in range(2, 7):
            checked_items.clear()
            report = verify_upper_bound(n, h_family=h_family)
            checked, failures, values = _reference_upper_bound(n, h_family)
            # without a progress file every item is checked, H outer, G inner
            hs, graphs = verify_mod._upper_bound_items(n, h_family)
            scored = [g for _ in hs for g in graphs]
            assert failures == []
            assert report == VerificationReport("upper-bound", checked, ())
            assert len(scored) == len(checked_items)
            assert [shape for shape, _ in checked_items] == [classify_shape(g) for g in scored]
            seen = [(render_graph(g), value) for g, (_, value) in zip(scored, checked_items)]
            # every item's batched value is its own exhaustive maximum
            assert seen == values, (h_family, n)


def test_upper_bound_resume_scores_only_unrecorded(tmp_path, monkeypatch):
    reference = tmp_path / "full.progress"
    full = verify_upper_bound(6, progress_path=str(reference))
    order = reference.read_text().splitlines()
    progress = tmp_path / "sweep.progress"
    progress.write_text("".join(key + "\n" for key in order[::3]))
    max_sums = kernels.max_sums
    scored = []

    def count(dists, edges):
        scored.append(len(dists))
        return max_sums(dists, edges)

    monkeypatch.setattr(verify_mod.kernels, "max_sums", count)
    assert verify_upper_bound(6, progress_path=str(progress)) == full
    assert sum(scored) == len(order) - len(order[::3])
    assert sorted(progress.read_text().splitlines()) == sorted(order)
    # a complete progress file leaves nothing to score
    scored.clear()
    assert verify_upper_bound(6, progress_path=str(progress)) == full
    assert scored == []


def test_upper_bound_full_n7_sweep():
    report = verify_upper_bound(7)
    assert report.passed
    assert report.instances_checked == 2 * CLASS_COUNTS[6] == 1706


def test_upper_bound_failure_reports_the_batched_value(tmp_path, monkeypatch):
    n = 5
    target = enumerate_connected_graphs(n)[3]
    bound, _ = extremal_number(make_path(n), make_path(n), "max")
    target_dist = distance_matrix(target)
    max_sums = kernels.max_sums

    def raise_one(dists, edges):
        values = max_sums(dists, edges)
        # n - 1 edges: only for the path H, not the cycle
        if len(edges) == n - 1:
            for i, d in enumerate(dists):
                if (d == target_dist).all():
                    values[i] = bound + 3
        return values

    monkeypatch.setattr(verify_mod.kernels, "max_sums", raise_one)
    progress = tmp_path / "sweep.progress"
    report = verify_upper_bound(n, progress_path=str(progress))
    key = f"{render_graph(target)}|path"
    assert report.failures == ((key, f"max sum {bound + 3} exceeds path bound {bound}"),)
    assert report.instances_checked == 2 * CLASS_COUNTS[n - 1]
    recorded = progress.read_text().splitlines()
    assert key not in recorded
    assert len(recorded) == report.instances_checked - 1


def test_upper_bound_validation():
    with pytest.raises(GraphError):
        verify_upper_bound(1)
    with pytest.raises(GraphError):
        verify_upper_bound(4, h_family="everything")


def test_spanning_tree_characterization():
    report = verify_spanning_tree_characterization(5)
    assert report.passed
    assert report.claim == "spanning-trees"
    assert report.instances_checked == 30
    with pytest.raises(GraphError):
        verify_spanning_tree_characterization(1)


def test_non_articulation():
    report = verify_non_articulation(5)
    assert report.passed
    assert report.claim == "articulation"
    assert report.instances_checked == 30
    with pytest.raises(GraphError):
        verify_non_articulation(0)


def test_report_formatting():
    passing = VerificationReport("demo", 3, ())
    assert passing.passed
    text = format_report(passing)
    assert "claim: demo" in text
    assert "checked: 3" in text
    assert text.endswith("result: PASS")
    failing = VerificationReport("demo", 3, (("Bw|path", "sum too large"),))
    assert not failing.passed
    text = format_report(failing)
    assert "FAIL Bw|path: sum too large" in text
    assert text.endswith("result: FAIL (1)")
    assert failing.to_dict() == {
        "claim": "demo",
        "instances_checked": 3,
        "failures": [["Bw|path", "sum too large"]],
        "passed": False,
    }


def test_single_vertex_class():
    assert enumerate_connected_graphs(1) == (Graph(1, ()),)
