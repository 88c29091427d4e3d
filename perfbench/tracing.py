"""Spans around hamspec's layer boundaries, recorded from outside the package.

install() rebinds module-level names in hamspec.* to timing wrappers; the
package source is never edited. A span holds its name, start, end, parent
span and operation id, and stays in memory until the run writes it out.
The layers are the package's modules: the part of a span's name before
the first dot.
"""

from __future__ import annotations

import math
import sys
import time
from functools import wraps

# (module, attribute) -> span name, or a function of the call's arguments
# returning one
TARGETS = {
    ("cli", "main"): "cli.main",
    ("graphs", "parse_graph"): "graphs.parse_graph",
    ("graphs", "distance_matrix"): "graphs.distance_matrix",
    ("graphs", "tree_path"): "graphs.tree_path",
    ("graphs", "first_spanning_tree"): "graphs.first_spanning_tree",
    ("graphs", "render_graph"): "graphs.render_graph",
    ("kernels", "scan_sums"): "kernels.scan_sums",
    ("kernels", "canonical_code"): "kernels.canonical_code",
    ("spectra", "spectrum"): "spectra.spectrum",
    ("spectra", "extremal_number"): lambda args, kwargs: (
        "spectra.bnb"
        if kwargs.get("method", args[3] if len(args) > 3 else None) == "bnb"
        else "spectra.extremal_number"
    ),
    ("spectra", "isomorphic_via_h"): "spectra.isomorphic_via_h",
    ("spectra", "pseudo_sum"): "spectra.pseudo_sum",
    ("surgery", "pathify"): "surgery.pathify",
    ("surgery", "pathify_general"): "surgery.pathify",
    ("surgery", "choose_transform"): "surgery.choose_transform",
    ("verify", "verify_upper_bound"): "verify.verify_upper_bound",
    ("verify", "enumerate_connected_graphs"): "verify.enumerate",
}

# kernel spans also record the permutations a call ranges over, n!
PERMUTATION_SPANS = ("kernels.scan_sums", "kernels.canonical_code")

LAYERS = ("cli", "graphs", "kernels", "spectra", "surgery", "verify")
CACHED = ("distance_matrix", "adjacency")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.missing: list[str] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                counted = span_name in PERMUTATION_SPANS and args and hasattr(args[0], "shape")
                perms = math.factorial(args[0].shape[0]) if counted else 0
                spans[index] = (span_name, start, end, parent, self.op, perms)

        return wrapper

    def install(self) -> None:
        """Rebind each target in every hamspec module that refers to it."""
        modules = [m for key, m in sys.modules.items() if key == "hamspec" or key.startswith("hamspec.")]
        for (module, attr), name in TARGETS.items():
            original = getattr(sys.modules.get(f"hamspec.{module}"), attr, None)
            if original is None:
                self.missing.append(f"hamspec.{module}.{attr}")
                continue
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self) -> list:
        return [list(s) for s in self.spans if s is not None]


def cache_entries() -> int:
    """Entries held by the graphs caches, through cache_info() where it exists."""
    from hamspec import graphs

    total = 0
    for attr in CACHED:
        fn = getattr(graphs, attr, None)
        while fn is not None and not hasattr(fn, "cache_info") and hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__
        if fn is not None and hasattr(fn, "cache_info"):
            total += fn.cache_info().currsize
    return total


def layer_metrics(spans: list, ops: int, entries: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per timed operation, from the spans of a traced run."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    perms: dict[str, int] = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    for k, (name, start, end, _, _, n_perms) in enumerate(spans):
        busy[name] = busy.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        perms[name] = perms.get(name, 0) + n_perms
        layer = name.split(".", 1)[0]
        self_time[layer] = self_time.get(layer, 0.0) + (end - start - child_time[k])

    def per_op(value):
        return value / ops

    def rate(name):
        return perms.get(name, 0) / busy[name] if busy.get(name) else 0.0

    seconds = {
        "graphs.parse_graph_s": "graphs.parse_graph",
        "graphs.distance_matrix_s": "graphs.distance_matrix",
        "graphs.tree_path_s": "graphs.tree_path",
        "graphs.first_spanning_tree_s": "graphs.first_spanning_tree",
        "graphs.render_graph_s": "graphs.render_graph",
        "kernels.scan_sums_s": "kernels.scan_sums",
        "kernels.canonical_code_s": "kernels.canonical_code",
        "spectra.bnb_s": "spectra.bnb",
        "surgery.pathify_s": "surgery.pathify",
        "surgery.choose_transform_s": "surgery.choose_transform",
        "verify.enumerate_s": "verify.enumerate",
    }
    counts = {
        "graphs.distance_matrix.calls": "graphs.distance_matrix",
        "graphs.tree_path.calls": "graphs.tree_path",
        "kernels.scan_sums.calls": "kernels.scan_sums",
        "kernels.canonical_code.calls": "kernels.canonical_code",
        "spectra.bnb.calls": "spectra.bnb",
        "spectra.pseudo_sum.calls": "spectra.pseudo_sum",
        "surgery.choose_transform.calls": "surgery.choose_transform",
    }
    out: dict[str, tuple[float, str]] = {}
    for layer in ("cli", "spectra", "surgery", "verify"):
        out[f"{layer}.self_s"] = (per_op(self_time[layer]), "s/op")
    for metric, name in seconds.items():
        out[metric] = (per_op(busy.get(name, 0.0)), "s/op")
    for metric, name in counts.items():
        out[metric] = (per_op(calls.get(name, 0)), "calls/op")
    out["kernels.scan_perms_per_s"] = (rate("kernels.scan_sums"), "perm/s")
    out["kernels.canonical_orderings"] = (per_op(perms.get("kernels.canonical_code", 0)), "orderings/op")
    out["graphs.cache_entries"] = (float(entries), "entries")
    return out
