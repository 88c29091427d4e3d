"""The package surface: what `hamspec` and its modules hand a caller."""

import importlib
import inspect
import pkgutil

import hamspec

MODULES = [
    importlib.import_module(f"hamspec.{info.name}")
    for info in pkgutil.iter_modules(hamspec.__path__)
    if not info.name.startswith("_")
]


def test_all_names_are_unique_and_resolve():
    assert len(set(hamspec.__all__)) == len(hamspec.__all__)
    for name in hamspec.__all__:
        assert hasattr(hamspec, name), name


def test_removed_names_are_unreachable():
    # tree_path is a test oracle (tests/generate.py), code_columns and
    # _landings gave way to code_sums and _block_sums, and edge_count to
    # len(g.edges)
    owners = [hamspec, *MODULES]
    owners += [
        cls
        for module in MODULES
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__.startswith("hamspec")
    ]
    assert {module.__name__ for module in MODULES} >= {"hamspec.graphs", "hamspec.kernels"}
    for name in ("tree_path", "edge_count", "code_columns", "_landings"):
        assert not [owner for owner in owners if hasattr(owner, name)], name
