"""The benchmark's own tests: its oracles agree with known answers, and
every output check rejects an output corrupted to break that check.

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hamspec as hs  # noqa: E402
import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def rejects(check, fragment: str) -> None:
    with pytest.raises(CheckFailed, match=fragment):
        check()


# ---------------------------------------------------------------------------
# oracles


def test_graph6_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 30)
        edges = wl.add_chords(rng, n, wl.random_tree(rng, n), rng.randint(0, 12))
        text = oracles.g6_encode(n, edges)
        g = nx.from_graph6_bytes(text.encode())
        assert oracles.normalize(g.edges()) == edges and g.number_of_nodes() == n
        assert oracles.g6_decode(text) == (n, edges)


def test_permutation_table_is_lexicographic():
    for n in range(1, 7):
        table = oracles.permutation_table(n)
        assert [tuple(row) for row in table] == list(itertools.permutations(range(n)))


def test_lex_first_spanning_tree_matches_subset_order():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randint(2, 7)
        edges = wl.add_chords(rng, n, wl.random_tree(rng, n), rng.randint(0, 6))
        first = next(
            s for s in itertools.combinations(edges, n - 1) if oracles.is_connected(n, s)
        )
        assert oracles.lex_first_spanning_tree(n, edges) == first


def test_distances_and_wiener_index():
    assert oracles.wiener_index(oracles.bfs_distances(5, wl.path_edges(5))) == 20
    assert oracles.wiener_index(oracles.bfs_distances(6, wl.cycle_edges(6))) == 27
    assert oracles.bfs_distances(3, [(0, 1)])[0][2] == -1


def test_random_graphs_are_what_they_claim():
    rng = random.Random(5)
    for n in (1, 2, 3, 12, 50):
        tree = wl.random_tree(rng, n)
        assert len(tree) == n - 1 and oracles.is_connected(n, tree)
    g = wl.clique_chain(12, [(1, 2), (2, 5)])
    assert len(g) == 19 + 5 and oracles.is_connected(12, g)
    assert oracles.degree_sequence(12, g) == [6, 5, 4, 6, 6, 5, 7, 2, 2, 2, 2, 1]


def test_brute_force_matches_definition():
    rng = random.Random(6)
    n = 6
    g = wl.add_chords(rng, n, wl.random_tree(rng, n), 2)
    dist = oracles.bfs_distances(n, g)
    h = wl.cycle_edges(n)
    ref = oracles.BruteForce(n).spectrum(dist, h)
    sums = [oracles.pseudo_sum(dist, h, p) for p in itertools.permutations(range(n))]
    assert ref["min"] == min(sums) and ref["max"] == max(sums)
    assert ref["min_witness"] == list(next(p for p in itertools.permutations(range(n))
                                           if oracles.pseudo_sum(dist, h, p) == min(sums)))
    assert sum(c for _, c in ref["values"]) == math.factorial(n)


def test_search_pool_optima_are_reproducible():
    pool = wl.load_search_pool()
    warmup, instances = wl.search_pool_instances(pool["pool_seed"])
    assert [dict(i, optimum=pool["warmup"]["optimum"]) for i in [warmup]] == [pool["warmup"]]
    for inst, stored in zip(instances, pool["instances"]):
        assert dict(inst, optimum=stored["optimum"]) == stored
    for stored in pool["instances"]:
        if stored["n"] == 9:
            assert wl.search_optimum(stored) == stored["optimum"]


# ---------------------------------------------------------------------------
# spectrum and number checks


@pytest.fixture(scope="module")
def spectrum_case():
    n = 7
    g = wl.add_chords(random.Random(7), n, wl.random_tree(random.Random(7), n), 3)
    h = wl.path_edges(n)
    report = hs.spectrum(hs.make_path(n), hs.Graph(n, g))
    return n, g, h, report.to_dict()


def test_spectrum_check_accepts_program_output(spectrum_case):
    n, g, h, out = spectrum_case
    wl.check_spectrum(out, n, g, h, 2)
    ref = oracles.BruteForce(n).spectrum(oracles.bfs_distances(n, g), h)
    wl.compare_with_brute(out, ref)


def test_spectrum_check_rejects_each_corruption(spectrum_case):
    n, g, h, good = spectrum_case

    def corrupt(edit):
        out = copy.deepcopy(good)
        edit(out)
        return lambda: wl.check_spectrum(out, n, g, h, 2)

    rejects(corrupt(lambda o: o.update(enumerated=1)), "enumerated")
    rejects(corrupt(lambda o: o["values"].append([o["max"] + 1, 0])), "multiplicity 0")
    rejects(corrupt(lambda o: o["values"].reverse()), "strictly increasing")
    rejects(corrupt(lambda o: o["values"][0].__setitem__(1, o["values"][0][1] + 2)), "sum to n!")

    def shift(o):  # same total count, larger total sum
        o["values"][0][1] -= 2
        o["values"][-1][1] += 2

    rejects(corrupt(shift), "2\\|E\\(H\\)\\|")

    def odd(o):  # same count and total sum, odd multiplicities
        values = o["values"]
        for i, j, k in itertools.combinations(range(len(values)), 3):
            if values[j][0] - values[i][0] == values[k][0] - values[j][0] and values[j][1] > 2:
                values[j][1] -= 2
                values[i][1] += 1
                values[k][1] += 1
                return
        raise AssertionError("no evenly spaced triple")

    rejects(corrupt(odd), "divisible")
    rejects(corrupt(lambda o: o.update(max=o["max"] - 1)), "min/max disagree")
    rejects(corrupt(lambda o: o["min_witness"].__setitem__(0, o["min_witness"][1])), "not a bijection")

    def detour(o):  # a bijection that does not attain the minimum
        o["min_witness"] = list(o["max_witness"])

    rejects(corrupt(detour), "does not attain")


def test_brute_force_comparison_rejects_other_witness(spectrum_case):
    n, g, h, good = spectrum_case
    dist = oracles.bfs_distances(n, g)
    ref = oracles.BruteForce(n).spectrum(dist, h)
    later = next(list(p) for p in itertools.permutations(range(n))
                 if list(p) > good["min_witness"] and oracles.pseudo_sum(dist, h, p) == good["min"])
    out = dict(copy.deepcopy(good), min_witness=later)
    wl.check_spectrum(out, n, g, h, 2)  # the light check cannot tell
    rejects(lambda: wl.compare_with_brute(out, ref), "brute-force")
    number = {"sense": "min", "value": good["min"], "witness": later}
    rejects(lambda: wl.compare_with_brute(number, ref), "lexicographically smallest")
    rejects(lambda: wl.compare_with_brute(dict(number, value=good["min"] + 1), ref), "brute-force")


def test_number_check_rejects_each_corruption(spectrum_case):
    n, g, h, good = spectrum_case
    out = {"sense": "max", "method": "bnb", "value": good["max"], "witness": good["max_witness"]}
    wl.check_number(out, n, g, h, "max", good["max"])
    rejects(lambda: wl.check_number(out, n, g, h, "min", None), "sense")
    rejects(lambda: wl.check_number(dict(out, witness=[0] * n), n, g, h, "max", None), "bijection")
    rejects(lambda: wl.check_number(dict(out, value=out["value"] + 1), n, g, h, "max", None), "witness sum")
    rejects(lambda: wl.check_number(out, n, g, h, "max", good["max"] + 1), "brute-force optimum")


def test_cli_json_rejects_failures():
    rejects(lambda: wl.cli_json((1, "{}")), "exit code")
    rejects(lambda: wl.cli_json((0, "not json")), "not JSON")


def test_sweep_check_rejects_each_corruption():
    good = {"claim": "upper-bound", "failures": [], "instances_checked": 1706, "passed": True}
    wl.check_sweep(good)
    rejects(lambda: wl.check_sweep(dict(good, claim="closed-forms")), "claim")
    rejects(lambda: wl.check_sweep(dict(good, passed=False)), "failures")
    rejects(lambda: wl.check_sweep(dict(good, failures=[["x", "y"]])), "failures")
    rejects(lambda: wl.check_sweep(dict(good, instances_checked=1704)), "expected 1706")


def test_iso_and_search_ops_check_their_answers(tmp_path):
    files = wl.Files(tmp_path)
    pool = wl.load_search_pool()
    inst = dict(pool["warmup"])
    op = wl.search_op(inst, files, ".g6")
    out = op.run()
    op.check(out)
    payload = json.loads(out[1])
    payload["value"] += 1
    rejects(lambda: op.check((0, json.dumps(payload))), "witness sum")
    wrong = wl.search_op(dict(inst, optimum=inst["optimum"] + 1), files, ".g6")
    rejects(lambda: wrong.check(wrong.run()), "brute-force optimum")

    spectrum = wl.build_spectrum(3, files)
    iso_true, iso_false = spectrum.rounds[0][8:10]
    iso_true.check(iso_true.run())
    iso_false.check(iso_false.run())
    rejects(lambda: iso_true.check((0, '{"isomorphic": false}')), "iso should be True")
    rejects(lambda: iso_false.check((0, '{"isomorphic": true}')), "iso should be False")


# ---------------------------------------------------------------------------
# rewiring traces


@pytest.fixture(scope="module")
def tree_case():
    rng = random.Random(11)
    n = 30
    tree = wl.random_tree(rng, n)
    f = wl.shuffled(rng, n)
    h = wl.path_edges(n)
    trace = hs.pathify(hs.Graph(n, tree), hs.make_path(n), f)
    assert len(trace.steps) >= 3
    return n, tree, h, f, wl.trace_from_object(trace)


def test_trace_json_and_object_agree(tree_case):
    n, tree, h, f, from_object = tree_case
    t = hs.pathify(hs.Graph(n, tree), hs.make_path(n), f)
    from_json = wl.trace_from_json(json.loads(json.dumps(hs.trace_to_dict(t))))
    keys = from_object["steps"][0].keys()
    assert [{k: s[k] for k in keys} for s in from_json["steps"]] == from_object["steps"]
    assert {**from_json, "steps": None} == {**from_object, "f": list(f), "steps": None}
    wl.check_trace(from_json, n, tree, h, f, False)


def test_trace_check_rejects_each_corruption(tree_case):
    n, tree, h, f, good = tree_case

    def corrupt(edit, fragment):
        bad = copy.deepcopy(good)
        edit(bad)
        rejects(lambda: wl.check_trace(bad, n, tree, h, f, False), fragment)

    other = wl.random_tree(random.Random(99), n)
    corrupt(lambda t: t.update(initial=other), "initial graph")
    corrupt(lambda t: t.update(f=list(reversed(t["f"]))), "bijection")
    corrupt(lambda t: t.update(tree=other), "spanning tree")
    corrupt(lambda t: t.update(initial_sum=t["initial_sum"] + 1), "initial sum")
    corrupt(lambda t: t.update(final_sum=t["final_sum"] + 1), "final sum")
    corrupt(lambda t: t.update(step_count=t["step_count"] + 1), "step_count")
    corrupt(lambda t: t["steps"].__setitem__(1, dict(t["steps"][1], before=other)), "does not start")
    corrupt(lambda t: t["steps"][1].update(sum_before=t["steps"][1]["sum_before"] - 1), "does not chain")

    def drop(t):  # a step that lowers the sum, with the chain kept intact
        s0, s1 = t["steps"][0], t["steps"][1]
        s0["sum_after"] = s0["sum_before"] - 1
        s1["sum_before"] = s0["sum_after"]

    corrupt(drop, "lowered the sum")
    corrupt(lambda t: t["steps"][0].update(weight_before=t["steps"][0]["weight_before"] + 1), "weight_before")
    corrupt(lambda t: t["steps"][0].update(weight_after=t["steps"][0]["weight_after"] + 1), "weight_after")

    def other_final(t):  # a different path, with its own sum
        relabelled = wl.relabel(wl.shuffled(random.Random(5), n), wl.path_edges(n))
        t["final"] = relabelled
        t["final_sum"] = oracles.pseudo_sum(oracles.bfs_distances(n, relabelled), h, f)

    corrupt(other_final, "last step does not end")
    corrupt(lambda t: t["steps"][-1].update(sum_after=t["final_sum"] - 1), "last step sum")


def test_trace_check_properties_the_method_guarantees():
    # A hand-made trace: a spider with three legs rewired into a path in one
    # step, to reach the checks a corrupted program trace cannot reach alone.
    n = 4
    star = ((0, 3), (1, 3), (2, 3))
    path = ((0, 3), (1, 2), (1, 3))
    f = [0, 1, 2, 3]
    h = wl.path_edges(n)

    def total(edges):
        return oracles.pseudo_sum(oracles.bfs_distances(n, edges), h, f)

    step = {"before": star, "after": path, "sum_before": total(star), "sum_after": total(path),
            "weight_before": 3, "weight_after": 0}
    good = {"initial": star, "tree": star, "f": f, "initial_sum": total(star), "tree_sum": total(star),
            "final": path, "final_sum": total(path), "step_count": 1, "steps": [step]}
    wl.check_trace(good, n, star, h, f, False)
    not_path = dict(good, final=star, final_sum=total(star), step_count=0, steps=[])
    rejects(lambda: wl.check_trace(not_path, n, star, h, f, False), "not a path")
    too_many = dict(good, step_count=4, steps=[step] * 4)
    rejects(lambda: wl.check_trace(too_many, n, star, h, f, False), "branching weight")
    idle = dict(step, after=star, sum_after=total(star), weight_after=3)
    flat = dict(good, step_count=2, steps=[idle, step])
    rejects(lambda: wl.check_trace(flat, n, star, h, f, False), "did not lower the branching weight")

    cycle = ((0, 1), (0, 3), (1, 2), (2, 3))
    tree = oracles.lex_first_spanning_tree(n, cycle)
    general = dict(good, initial=cycle, initial_sum=total(cycle), tree=tree, tree_sum=total(tree),
                   final=tree, final_sum=total(tree), step_count=0, steps=[])
    wl.check_trace(general, n, cycle, h, f, True)
    other_tree = ((0, 3), (1, 2), (2, 3))
    rejects(lambda: wl.check_trace(dict(general, tree=other_tree), n, cycle, h, f, True), "lexicographically first")
    rejects(lambda: wl.check_trace(dict(general, tree_sum=general["tree_sum"] + 1), n, cycle, h, f, True),
            "spanning-tree sum")


def test_general_op_passes_its_checks(tmp_path):
    op = wl.general_op(random.Random(2), wl.Files(tmp_path), 12, [(1, 3), (2, 4)], "path")
    op.check(op.run())
