"""One benchmark process: set up a workload, run it closed-loop, check it.

run.py starts this file as a fresh Python process with the checkout's src/
on PYTHONPATH. A single caller issues one operation after another; each
operation's output is checked after its timer stops. With --setup-only the
process stops where the first timed operation would begin, which lets
run.py take set-up time from several processes.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True, help="time.time() when run.py started this process")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def check(op, out, problems: list, kept: dict | None) -> None:
    try:
        op.check(out)
    except Exception as exc:  # noqa: BLE001 - a malformed output fails its check too
        problems.append(f"{op.label}: {exc}")
    if kept is not None and op.keep:
        kept.setdefault(id(op), out)


def main(argv=None) -> int:
    args = parse_args(argv)
    import hamspec.cli  # noqa: F401 - import time belongs to set-up
    import tracing
    import workloads

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workloads, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, tracing, workdir: Path) -> int:
    workload = workloads.BUILDERS[args.workload](args.seed, workloads.Files(workdir))
    problems: list[str] = []
    warm_out = None
    if workload.warmup is not None:
        try:
            warm_out = workload.warmup.run()
        except Exception as exc:  # noqa: BLE001
            problems.append(f"warm-up raised {exc!r}")
    setup_s = time.time() - args.spawned_at
    if workload.warmup is not None and warm_out is not None:
        check(workload.warmup, warm_out, problems, None)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "problems": problems}))
        return 0

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    times: list[float] = []
    labels: list[str] = []
    work = 0.0
    failed = 0
    kept: dict[int, object] = {}
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    round_no = 0
    while True:
        for op in workload.rounds[round_no % len(workload.rounds)]:
            tracer.op = len(times)
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # noqa: BLE001 - counted, reported, run goes on
                times.append(time.perf_counter() - start)
                labels.append(op.label)
                failed += 1
                problems.append(f"{op.label}: raised {exc!r}")
                continue
            times.append(time.perf_counter() - start)
            labels.append(op.label)
            work += op.work
            check(op, out, problems, kept)
        round_no += 1
        if workload.single_pass or sum(times) >= args.seconds:
            break
    loop_wall = time.perf_counter() - wall0
    loop_cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workload.post_check is not None:
        try:
            workload.post_check(kept)
        except Exception as exc:  # noqa: BLE001
            problems.append(f"brute-force sample: {exc}")

    timed = sum(times)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "work_per_s": (work / timed, "work/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "end_to_end": end_to_end,
        "rounds": round_no,
        "op_times": times,
        "op_labels": labels,
        "p90_s": statistics.quantiles(times, n=10)[-1] if len(times) >= 40 else None,
        "timed_s": timed,
        "loop_wall_s": loop_wall,
        "loop_cpu_s": loop_cpu,
        "problems": problems,
    }
    result = {"attempted": len(times), "failed": failed, "problems": problems, "setup_s": setup_s}
    if args.trace:
        spans = tracer.dump()
        layers = tracing.layer_metrics(spans, len(times), tracing.cache_entries())
        detail["per_layer"] = layers
        detail["untraced_names"] = tracer.missing
        result["metrics"] = layers
        write_json(OUT / f"trace-{args.workload}-{args.seed}.json", {"columns": [
            "name", "start", "end", "parent", "op", "permutations"], "spans": spans})
    else:
        result["metrics"] = end_to_end
    write_json(OUT / f"detail-{args.workload}-{args.seed}-trace{args.trace}.json", detail)
    print(json.dumps(result))
    return 0


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
