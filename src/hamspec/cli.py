"""Command-line front end: spectrum, number, transform, verify, iso.

Graph sources are files named *.g6 (graph6) or *.edges (edge list); the
--h option also accepts the keywords 'cycle' and 'path', sized to match the
other graph. Exit codes: 0 success, 1 domain error (bad graph data or an
unsupported query), 2 usage error, 3 a verification sweep found a
counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys

from .graphs import Graph, GraphError, make_cycle, make_path, parse_graph
from .spectra import extremal_number, spectrum
from .surgery import format_trace, pathify, trace_to_dict
from .verify import (
    format_report,
    verify_closed_forms,
    verify_non_articulation,
    verify_spanning_tree_characterization,
    verify_upper_bound,
)


class UsageError(Exception):
    """Bad command-line input that argparse cannot catch itself."""


def _load_file(path: str) -> Graph:
    if path.endswith(".g6"):
        fmt = "graph6"
    elif path.endswith(".edges"):
        fmt = "edge-list"
    else:
        raise UsageError(f"graph files must end in .g6 or .edges, got {path!r}")
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read(), fmt)


def _load_h(spec: str, n: int) -> Graph:
    if spec == "cycle":
        return make_cycle(n)
    if spec == "path":
        return make_path(n)
    return _load_file(spec)


def _parse_bijection(text: str, n: int) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--f expects comma-separated integers, got {text!r}") from None
    if sorted(values) != list(range(n)):
        raise GraphError(f"--f {text!r} is not a bijection on range({n})")
    return values


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_spectrum(args) -> int:
    g = _load_file(args.g)
    h = _load_h(args.h, g.n)
    report = spectrum(h, g)
    text = "\n".join(
        [
            f"min: {report.min}",
            f"max: {report.max}",
            f"min_witness: {','.join(map(str, report.min_witness))}",
            f"max_witness: {','.join(map(str, report.max_witness))}",
            "values: " + " ".join(f"{v}:{c}" for v, c in report.values),
            f"enumerated: {report.enumerated}",
        ]
    )
    _emit(args, report.to_dict(), text)
    return 0


def _cmd_number(args) -> int:
    g = _load_file(args.g)
    h = _load_h(args.h, g.n)
    value, witness = extremal_number(h, g, args.sense, method=args.method)
    payload = {
        "sense": args.sense,
        "method": args.method,
        "value": value,
        "witness": list(witness),
    }
    _emit(args, payload, str(value))
    return 0


def _cmd_transform(args) -> int:
    tree = _load_file(args.tree)
    h = _load_h(args.h, tree.n)
    f = _parse_bijection(args.f, tree.n) if args.f else tuple(range(tree.n))
    trace = pathify(tree, h, f)
    _emit(
        args,
        trace_to_dict(trace, steps=args.trace),
        format_trace(trace, steps=args.trace),
    )
    return 0


def _cmd_verify(args) -> int:
    if args.family == "closed-forms":
        report = verify_closed_forms(args.n)
    elif args.family == "upper-bound":
        report = verify_upper_bound(args.n, h_family=args.h_family, progress_path=args.resume)
    elif args.family == "spanning-trees":
        report = verify_spanning_tree_characterization(args.n)
    else:
        report = verify_non_articulation(args.n)
    _emit(args, report.to_dict(), format_report(report))
    return 0 if report.passed else 3


def _cmd_iso(args) -> int:
    a = _load_file(args.first)
    b = _load_file(args.second)
    if a.n != b.n or len(a.edges) != len(b.edges):
        same = False
    else:
        from .spectra import isomorphic_via_h

        same = isomorphic_via_h(a, b)
    _emit(args, {"isomorphic": same}, "isomorphic" if same else "not isomorphic")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamspec",
        description="Distance-sum spectra, extremal tour numbers, and tree rewiring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("spectrum", help="all achievable sums for an (H, G) pair")
    p.add_argument("--h", required=True, help="graph file, or 'cycle'/'path'")
    p.add_argument("--g", required=True, help="graph file (*.g6 or *.edges)")
    add_format(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("number", help="minimum or maximum achievable sum")
    p.add_argument("--h", required=True, help="graph file, or 'cycle'/'path'")
    p.add_argument("--g", required=True, help="graph file (*.g6 or *.edges)")
    p.add_argument("--sense", required=True, choices=("min", "max"))
    p.add_argument("--method", choices=("exhaustive", "bnb"), default="exhaustive")
    add_format(p)
    p.set_defaults(func=_cmd_number)

    p = sub.add_parser("transform", help="rewire a tree into a path, tracking sums")
    p.add_argument("--tree", required=True, help="tree file (*.g6 or *.edges)")
    p.add_argument("--h", required=True, help="graph file, or 'cycle'/'path'")
    p.add_argument("--f", default=None, help="comma-separated bijection image; identity if omitted")
    p.add_argument("--trace", action="store_true", help="include every rewiring step")
    add_format(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("verify", help="sweep a structural claim over small graphs")
    p.add_argument(
        "family",
        choices=("closed-forms", "upper-bound", "spanning-trees", "articulation"),
    )
    p.add_argument("--n", required=True, type=int, help="vertex count (or range cap)")
    p.add_argument("--resume", default=None, help="progress file to skip completed work")
    p.add_argument(
        "--h-family",
        dest="h_family",
        choices=("canonical", "all"),
        default="canonical",
        help="H graphs for upper-bound: cycle and path, or every connected class",
    )
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("iso", help="decide whether two graphs are isomorphic")
    p.add_argument("first", help="graph file (*.g6 or *.edges)")
    p.add_argument("second", help="graph file (*.g6 or *.edges)")
    add_format(p)
    p.set_defaults(func=_cmd_iso)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # verify upper-bound has already closed its progress file, which
        # holds every key that passed before the interrupt
        resume = getattr(args, "resume", None)
        hint = f"; rerun with --resume {resume} to continue" if resume else ""
        print(f"interrupted{hint}", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
