"""hamspec benchmark: one run of one workload, a steadiness check, or pool regeneration.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --steady 10 --workload search --seconds 20
    python3 perfbench/run.py --regen-search

Run from anywhere inside a checkout; the package is taken from the
checkout's src/. A run prints, as its last line, one JSON object with
"correct", "attempted", "failed" and "metrics": the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.

set-up time is the median over SETUP_PROCESSES fresh processes that each
import, write the inputs and make the warm-up call, plus the measured one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("spectrum", "search", "sweep", "rewire")
SETUP_PROCESSES = 4
CHILD_TIMEOUT_S = 170
END_TO_END = ("setup_s", "work_per_s", "op_p50_s", "peak_rss_mb")
SEARCH_POOL_SEED = 20030765


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["HAMSPEC_KERNEL"] = "numpy"
    return env


def child(args, setup_only: bool) -> dict:
    """One fresh benchmark process; its last stdout line is its result."""
    argv = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        argv.append("--setup-only")
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def single_run(args) -> int:
    setups = []
    problems = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES):
            result = child(args, setup_only=True)
            setups.append(result["setup_s"])
            problems += result["problems"]
    result = child(args, setup_only=False)
    problems += result["problems"]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        metrics["setup_s"]["value"] = statistics.median(setups + [result["setup_s"]])
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def steady(args) -> int:
    """Repeat a workload over consecutive seeds and report each metric's spread."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    runs = []
    for seed in range(args.seed, args.seed + args.steady):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        run["seed"], run["wall_s"] = seed, time.perf_counter() - start
        runs.append(run)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in run["metrics"].items())
        print(f"seed {seed}: {run['wall_s']:.1f}s correct={run['correct']} "
              f"attempted={run['attempted']} failed={run['failed']} {values}", flush=True)
    print(f"\n{args.workload}: {len(runs)} runs of {args.seconds:g}s")
    print(f"{'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    summary = {}
    for name in END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        bound = bounds.get(name)
        ratio = f"{spread / bound:12.2f}" if bound else f"{'-':>12}"
        print(f"{name:<12} {median:10.4g} {q1:10.4g} {q3:10.4g} {spread:8.3f} "
              f"{bound if bound else '-':>6} {ratio}")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"failed share per run: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{args.workload}.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1), encoding="utf-8")
    return 0


def regen_search() -> int:
    """Rebuild search_pool.json: the fixed instances and their brute-force optima."""
    import workloads

    warmup, instances = workloads.search_pool_instances(SEARCH_POOL_SEED)
    for inst in [warmup] + instances:
        inst["optimum"] = workloads.search_optimum(inst)
        print(f"n={inst['n']} h={inst['h'] if isinstance(inst['h'], str) else 'file'} "
              f"{inst['sense']} -> {inst['optimum']}", flush=True)
    head = {
        "command": "python3 perfbench/run.py --regen-search",
        "pool_seed": SEARCH_POOL_SEED,
        "optima": "maximum or minimum over all n! bijections, by oracles.BruteForce",
        "warmup": warmup,
    }
    lines = [f" {json.dumps(key)}: {json.dumps(value)}," for key, value in head.items()]
    body = ",\n".join(f"  {json.dumps(inst)}" for inst in instances)
    text = "{\n" + "\n".join(lines) + '\n "instances": [\n' + body + "\n ]\n}\n"
    workloads.SEARCH_POOL.write_text(text, encoding="utf-8")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="RUNS",
                   help="run the workload RUNS times on seeds --seed, --seed+1, ... and report spreads")
    p.add_argument("--regen-search", action="store_true", help="rebuild search_pool.json")
    args = p.parse_args(argv)
    if args.regen_search:
        return regen_search()
    if not (ROOT / "src" / "hamspec" / "__init__.py").is_file():
        print(f"error: no hamspec package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        p.error("--workload is required")
    if args.steady:
        return steady(args)
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
