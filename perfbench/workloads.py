"""The four workloads: seeded inputs, the operations that use them, and checks.

Inputs come from random.Random(seed) and the reference code in oracles.py,
never from hamspec.generate, so a change to the package cannot change what
the benchmark feeds it. Set-up writes every input as a .g6 or .edges file;
the program sees only those files and command-line arguments.

Every check raises CheckFailed with a message naming what disagreed. A
check compares an output with an independent computation or with a
property the method guarantees, never with a stored copy of an earlier
output.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

HERE = Path(__file__).resolve().parent
SEARCH_POOL = HERE / "search_pool.json"

SPECTRUM_N = 9
SPECTRUM_ROUNDS = 8
SEARCH_ROUNDS = 8
REWIRE_ROUNDS = 64
REWIRE_TRANSFORMS = 7
SWEEP_N = 7
CONNECTED_CLASSES_7 = 853  # OEIS A001349


class CheckFailed(Exception):
    """An output disagreed with the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation: run() is timed, check() is not."""

    label: str
    work: float
    run: Callable[[], object]
    check: Callable[[object], None]
    keep: bool = False
    problem: tuple | None = None


@dataclass
class Workload:
    warmup: Op | None
    rounds: list[list[Op]]
    single_pass: bool = False
    post_check: Callable[[dict[int, object]], None] | None = None


# ---------------------------------------------------------------------------
# running the program


def cli(argv: list[str]) -> tuple[int, str]:
    """hamspec.cli.main in-process, with its output captured.

    The name is looked up at call time so a tracing wrapper bound to it is
    the one called.
    """
    from hamspec import cli as hamspec_cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = hamspec_cli.main(argv)
    return code, out.getvalue()


def cli_json(result) -> dict:
    code, text = result
    require(code == 0, f"exit code {code}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


# ---------------------------------------------------------------------------
# seeded graphs


def random_tree(rng: random.Random, n: int) -> tuple[tuple[int, int], ...]:
    """A uniformly random labelled tree, decoded from a random Pruefer code."""
    if n < 3:
        return ((0, 1),) if n == 2 else ()
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    leaves = [u for u in range(n) if degree[u] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return oracles.normalize(edges)


def add_chords(rng: random.Random, n: int, edges, count: int):
    present = set(edges)
    missing = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in present]
    return oracles.normalize(list(edges) + rng.sample(missing, min(count, len(missing))))


def relabel(perm, edges):
    return oracles.normalize((perm[a], perm[b]) for a, b in edges)


def shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


CORE = 7
# edges of K7 at vertex 1 or 2, not at 0: dropping any two of them leaves a
# graph on which the lexicographic subset search of first_spanning_tree
# tries the same number of candidates (2380 at n = 11, 8568 at n = 12)
CORE_DROPS = [(a, b) for a in (1, 2) for b in range(a + 1, CORE)]


def clique_chain(n: int, dropped=()):
    """K7 on 0..6, less the dropped edges, with a pendant chain 6, 7, ..., n-1.

    The low labels all sit in the dense core, so the lexicographically first
    edge subsets of the graph are full of cycles.
    """
    core = [(a, b) for a in range(CORE) for b in range(a + 1, CORE) if (a, b) not in dropped]
    return oracles.normalize(core + [(v, v + 1) for v in range(CORE - 1, n - 1)])


def cycle_edges(n: int):
    return oracles.normalize([(v, (v + 1) % n) for v in range(n)])


def path_edges(n: int):
    return tuple((v, v + 1) for v in range(n - 1))


def keyword_edges(h: str, n: int):
    return cycle_edges(n) if h == "cycle" else path_edges(n)


class Files:
    """Writes input graphs under one work directory."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, n: int, edges, suffix: str) -> str:
        self.count += 1
        path = self.root / f"in{self.count:05d}{suffix}"
        if suffix == ".g6":
            path.write_text(oracles.g6_encode(n, edges) + "\n", encoding="ascii")
        else:
            path.write_text(oracles.edges_text(n, edges), encoding="ascii")
        return str(path)


# ---------------------------------------------------------------------------
# spectrum: one 9! scan per operation


def check_spectrum(out: dict, n: int, g_edges, h_edges, aut_h: int | None) -> None:
    dist = oracles.bfs_distances(n, g_edges)
    values = out["values"]
    total = math.factorial(n)
    require(out["enumerated"] == total, f"enumerated {out['enumerated']} != {n}!")
    require(all(c > 0 for _, c in values), "a listed sum has multiplicity 0")
    require([v for v, _ in values] == sorted({v for v, _ in values}), "sums not strictly increasing")
    require(sum(c for _, c in values) == total, "multiplicities do not sum to n!")
    expected = 2 * len(h_edges) * oracles.wiener_index(dist) * math.factorial(n - 2)
    require(
        sum(v * c for v, c in values) == expected,
        "sum of s*c_s differs from 2|E(H)| W(G) (n-2)!",
    )
    if aut_h is not None:
        require(all(c % aut_h == 0 for _, c in values), f"a multiplicity is not divisible by |Aut(H)|={aut_h}")
    require(out["min"] == values[0][0] and out["max"] == values[-1][0], "min/max disagree with the values")
    for key, bound in (("min_witness", "min"), ("max_witness", "max")):
        f = out[key]
        require(sorted(f) == list(range(n)), f"{key} is not a bijection")
        require(oracles.pseudo_sum(dist, h_edges, f) == out[bound], f"{key} does not attain {bound}")


def check_number(out: dict, n: int, g_edges, h_edges, sense: str, optimum: int | None) -> None:
    f = out["witness"]
    require(out["sense"] == sense, "wrong sense echoed")
    require(sorted(f) == list(range(n)), "witness is not a bijection")
    dist = oracles.bfs_distances(n, g_edges)
    require(oracles.pseudo_sum(dist, h_edges, f) == out["value"], "witness sum differs from the value")
    if optimum is not None:
        require(out["value"] == optimum, f"value {out['value']} != brute-force optimum {optimum}")


def compare_with_brute(out: dict, ref: dict) -> None:
    """A spectrum, or an exhaustive number, against the brute-force scan."""
    if "values" in out:
        require(out == ref, "spectrum differs from the brute-force scan")
        return
    key = out["sense"]
    require(out["value"] == ref[key], f"{key} differs from the brute-force scan")
    require(out["witness"] == ref[key + "_witness"], "witness is not the lexicographically smallest optimum")


def build_spectrum(seed: int, files: Files) -> Workload:
    n = SPECTRUM_N
    rng = random.Random(seed)
    work = float(math.factorial(n))

    def host():
        return add_chords(rng, n, random_tree(rng, n), rng.randint(1, 6))

    def sparse():
        # a fixed edge count keeps the cost of a file-H scan the same per seed
        return add_chords(rng, n, random_tree(rng, n), 3)

    def spectrum_op(h: str | tuple, g_edges, suffix: str) -> Op:
        g_path = files.write(n, g_edges, suffix)
        if isinstance(h, str):
            h_arg, h_edges, aut = h, keyword_edges(h, n), 2 * n if h == "cycle" else 2
        else:
            h_arg, h_edges, aut = files.write(n, h, ".edges"), h, None
        argv = ["spectrum", "--h", h_arg, "--g", g_path, "--format", "json"]
        return Op("spectrum", work, lambda: cli(argv),
                  lambda r: check_spectrum(cli_json(r), n, g_edges, h_edges, aut),
                  problem=(g_edges, h_edges))

    def number_op(h: str, g_edges, sense: str) -> Op:
        g_path = files.write(n, g_edges, ".g6")
        h_edges = keyword_edges(h, n)
        argv = ["number", "--h", h, "--g", g_path, "--sense", sense, "--format", "json"]
        return Op("number", work, lambda: cli(argv),
                  lambda r: check_number(cli_json(r), n, g_edges, h_edges, sense, None),
                  problem=(g_edges, h_edges))

    def iso_op(a_edges, b_edges, expected: bool) -> Op:
        argv = ["iso", files.write(n, a_edges, ".g6"), files.write(n, b_edges, ".edges"), "--format", "json"]

        def check(r):
            require(cli_json(r)["isomorphic"] is expected, f"iso should be {expected}")

        return Op("iso", work, lambda: cli(argv), check)

    def different_degrees(edges):
        target = sorted(oracles.degree_sequence(n, edges))
        while True:
            other = sparse()
            if sorted(oracles.degree_sequence(n, other)) != target:
                return other

    warmup = spectrum_op("cycle", host(), ".g6")
    rounds = []
    for _ in range(SPECTRUM_ROUNDS):
        a = sparse()
        rounds.append([
            spectrum_op("cycle", host(), ".g6"),
            spectrum_op("path", host(), ".edges"),
            spectrum_op(sparse(), host(), ".g6"),
            spectrum_op("cycle", host(), ".edges"),
            spectrum_op("path", host(), ".g6"),
            spectrum_op(sparse(), host(), ".edges"),
            number_op("cycle", host(), "min"),
            number_op("path", host(), "max"),
            iso_op(a, relabel(shuffled(rng, n), a), True),
            iso_op(a, different_degrees(a), False),
        ])
    # a seeded sample of the first round, which every run completes, is
    # compared in full with the brute-force scan
    sample = rng.sample([op for op in rounds[0] if op.problem], 3)
    for op in sample:
        op.keep = True

    def post_check(kept: dict[int, object]) -> None:
        brute = oracles.BruteForce(n)
        for op in sample:
            if id(op) in kept:
                g_edges, h_edges = op.problem
                ref = brute.spectrum(oracles.bfs_distances(n, g_edges), h_edges)
                compare_with_brute(cli_json(kept[id(op)]), ref)

    return Workload(warmup, rounds, post_check=post_check)


# ---------------------------------------------------------------------------
# search: branch and bound on a stored pool of instances


def load_search_pool() -> dict:
    return json.loads(SEARCH_POOL.read_text(encoding="utf-8"))


def search_op(inst: dict, files: Files, suffix: str) -> Op:
    n = inst["n"]
    g_edges = oracles.normalize(tuple(e) for e in inst["g"])
    if isinstance(inst["h"], str):
        h_arg, h_edges = inst["h"], keyword_edges(inst["h"], n)
    else:
        h_edges = oracles.normalize(tuple(e) for e in inst["h"])
        h_arg = files.write(n, h_edges, ".edges")
    argv = ["number", "--h", h_arg, "--g", files.write(n, g_edges, suffix),
            "--sense", inst["sense"], "--method", "bnb", "--format", "json"]
    return Op(
        f"bnb-{inst['sense']}",
        1.0,
        lambda: cli(argv),
        lambda r: check_number(cli_json(r), n, g_edges, h_edges, inst["sense"], inst["optimum"]),
    )


def build_search(seed: int, files: Files) -> Workload:
    """The stored pool in a seeded order per round, G in a seeded file format.

    The instances themselves do not vary with the seed: branch-and-bound time
    depends on vertex labels by tens of percent, and the one instance that
    takes seconds would carry that into every run's rate.
    """
    pool = load_search_pool()
    rng = random.Random(seed)
    warmup = search_op(pool["warmup"], files, ".g6")
    ops = [search_op(inst, files, rng.choice((".g6", ".edges"))) for inst in pool["instances"]]
    return Workload(warmup, [rng.sample(ops, len(ops)) for _ in range(SEARCH_ROUNDS)])


def search_pool_instances(pool_seed: int) -> tuple[dict, list[dict]]:
    """The fixed recipe behind search_pool.json, before optima are attached.

    G is a tree plus 0 to 3 chords; H is a keyword or a tree plus one chord.
    """
    rng = random.Random(pool_seed)
    recipe = (
        [(9, "path", "max")] * 6 + [(9, "cycle", "max")] * 6 + [(9, "sparse", "max")] * 4
        + [(10, "path", "max"), (10, "cycle", "max"), (10, "sparse", "max")]
        + [(9, "cycle", "min"), (10, "path", "min")]
    )

    def instance(n, h, sense):
        g = add_chords(rng, n, random_tree(rng, n), rng.randint(0, 3))
        if h == "sparse":
            h = [list(e) for e in add_chords(rng, n, random_tree(rng, n), 1)]
        return {"n": n, "g": [list(e) for e in g], "h": h, "sense": sense}

    warmup = instance(8, "path", "max")
    return warmup, [instance(*slot) for slot in recipe]


def search_optimum(inst: dict) -> int:
    n = inst["n"]
    h = inst["h"]
    h_edges = keyword_edges(h, n) if isinstance(h, str) else [tuple(e) for e in h]
    sums = oracles.BruteForce(n).sums(oracles.bfs_distances(n, [tuple(e) for e in inst["g"]]), h_edges)
    return int(sums.max() if inst["sense"] == "max" else sums.min())


# ---------------------------------------------------------------------------
# sweep: one cold exhaustive upper-bound check


def check_sweep(out: dict) -> None:
    items = 2 * CONNECTED_CLASSES_7
    require(out["claim"] == "upper-bound", "wrong claim")
    require(out["passed"] is True and out["failures"] == [], "sweep reported failures")
    require(out["instances_checked"] == items, f"checked {out['instances_checked']} items, expected {items}")


def build_sweep(seed: int, files: Files) -> Workload:
    """No inputs to draw: the sweep covers every connected graph on 7 vertices."""
    argv = ["verify", "upper-bound", "--n", str(SWEEP_N), "--format", "json"]
    op = Op("sweep", float(2 * CONNECTED_CLASSES_7), lambda: cli(argv), lambda r: check_sweep(cli_json(r)))
    return Workload(None, [[op]], single_pass=True)


# ---------------------------------------------------------------------------
# rewire: tree-to-path traces


def check_trace(trace: dict, n: int, g_edges, h_edges, f, general: bool) -> None:
    """A rewiring trace, graphs given as edge tuples."""
    require(trace["initial"] == oracles.normalize(g_edges), "initial graph differs from the input")
    require(list(trace["f"]) == list(f), "bijection differs from the input")
    tree = trace["tree"]
    expected_tree = oracles.lex_first_spanning_tree(n, g_edges) if general else trace["initial"]
    require(tree == expected_tree, "spanning tree is not the lexicographically first one")

    def total(edges):
        return oracles.pseudo_sum(oracles.bfs_distances(n, edges), h_edges, f)

    require(trace["initial_sum"] == total(trace["initial"]), "initial sum is wrong")
    require(trace["tree_sum"] == total(tree), "spanning-tree sum is wrong")
    require(trace["final_sum"] == total(trace["final"]), "final sum is wrong")
    require(oracles.is_path(n, trace["final"]), "final graph is not a path")
    steps = trace["steps"]
    require(trace["step_count"] == len(steps), "step_count differs from the steps listed")
    require(len(steps) <= oracles.branching_weight(n, tree), "more steps than the initial branching weight")
    graph, value = tree, trace["tree_sum"]
    for k, step in enumerate(steps):
        require(step["before"] == graph, f"step {k} does not start where the last one ended")
        require(step["sum_before"] == value, f"step {k} sum does not chain")
        require(step["sum_after"] >= step["sum_before"], f"step {k} lowered the sum")
        require(step["weight_before"] == oracles.branching_weight(n, step["before"]), f"step {k} weight_before is wrong")
        require(step["weight_after"] == oracles.branching_weight(n, step["after"]), f"step {k} weight_after is wrong")
        require(step["weight_after"] < step["weight_before"], f"step {k} did not lower the branching weight")
        graph, value = step["after"], step["sum_after"]
    require(graph == trace["final"], "last step does not end at the final graph")
    require(value == trace["final_sum"], "last step sum differs from the final sum")


def trace_from_json(out: dict) -> dict:
    def edges(text):
        return oracles.g6_decode(text)[1]

    return {
        "initial": edges(out["initial"]),
        "tree": edges(out["spanning_tree"]),
        "f": out["f"],
        "initial_sum": out["initial_sum"],
        "tree_sum": out["tree_sum"],
        "final": edges(out["final"]),
        "final_sum": out["final_sum"],
        "step_count": out["step_count"],
        "steps": [
            {**s, "before": edges(s["before"]), "after": edges(s["after"])} for s in out["steps"]
        ],
    }


def trace_from_object(trace) -> dict:
    """The same fields read straight from a library TransformTrace."""
    return {
        "initial": trace.initial.edges,
        "tree": trace.spanning_tree.edges,
        "f": trace.f,
        "initial_sum": trace.initial_sum,
        "tree_sum": trace.tree_sum,
        "final": trace.final.edges,
        "final_sum": trace.final_sum,
        "step_count": len(trace.steps),
        "steps": [
            {
                "before": s.before.edges,
                "after": s.after.edges,
                "sum_before": s.sum_before,
                "sum_after": s.sum_after,
                "weight_before": s.weight_before,
                "weight_after": s.weight_after,
            }
            for s in trace.steps
        ],
    }


def transform_op(rng: random.Random, files: Files, n: int, h: str, suffix: str) -> Op:
    tree = random_tree(rng, n)
    f = shuffled(rng, n)
    argv = ["transform", "--tree", files.write(n, tree, suffix), "--h", h,
            "--f", ",".join(map(str, f)), "--trace", "--format", "json"]
    return Op(
        "transform",
        1.0,
        lambda: cli(argv),
        lambda r: check_trace(trace_from_json(cli_json(r)), n, tree, keyword_edges(h, n), f, False),
    )


def general_op(rng: random.Random, files: Files, n: int, dropped, h: str) -> Op:
    """pathify_general on a graph read back from its file, as a library call."""
    g_edges = clique_chain(n, dropped)
    f = shuffled(rng, n)
    path = files.write(n, g_edges, ".edges")

    def run():
        import hamspec

        text = Path(path).read_text(encoding="ascii")
        g = hamspec.parse_graph(text, "edge-list")
        h_graph = hamspec.make_cycle(n) if h == "cycle" else hamspec.make_path(n)
        return hamspec.surgery.pathify_general(g, h_graph, f)

    return Op(
        "pathify_general",
        1.0,
        run,
        lambda trace: check_trace(trace_from_object(trace), n, g_edges, keyword_edges(h, n), f, True),
    )


def build_rewire(seed: int, files: Files) -> Workload:
    """Seeded shapes and bijections on sizes that cycle the same way for every seed.

    Trace cost and cached memory grow quickly with the tree size, so sizes
    40..60 are visited in a fixed order (stride 8 modulo 21). The general
    graphs differ from op to op, so none is served from the package's
    caches, but all cost the spanning-tree search the same: random dense
    cores made that cost swing tenfold from seed to seed.
    """
    rng = random.Random(seed)
    warmup = transform_op(rng, files, 50, "path", ".g6")
    drops = rng.sample(list(itertools.combinations(CORE_DROPS, 2)), REWIRE_ROUNDS // 2)
    rounds = []
    for r in range(REWIRE_ROUNDS):
        ops = []
        for k in range(REWIRE_TRANSFORMS):
            n = 40 + 8 * (r * REWIRE_TRANSFORMS + k) % 21
            ops.append(transform_op(rng, files, n, ("path", "cycle")[k % 2], (".edges", ".g6")[k % 4 == 0]))
        ops.append(general_op(rng, files, 11 + r % 2, drops[r // 2], ("path", "cycle")[r // 2 % 2]))
        rounds.append(ops)
    return Workload(warmup, rounds)


BUILDERS = {
    "spectrum": build_spectrum,
    "search": build_search,
    "sweep": build_sweep,
    "rewire": build_rewire,
}
