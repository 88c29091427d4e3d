"""Command-line behaviour: outputs, formats, and exit codes."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import hamspec
from hamspec import cli
from hamspec.graphs import build_graph, make_cycle, make_path, render_graph
from hamspec.verify import VerificationReport

SPIDER = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


@pytest.fixture
def files(tmp_path):
    out = {}
    out["c4"] = tmp_path / "c4.g6"
    out["c4"].write_text(render_graph(make_cycle(4)))
    out["p4"] = tmp_path / "p4.g6"
    out["p4"].write_text(render_graph(make_path(4)))
    out["p4_edges"] = tmp_path / "p4.edges"
    out["p4_edges"].write_text(render_graph(build_graph(4, [(0, 2), (2, 3), (1, 3)]), "edge-list"))
    out["star"] = tmp_path / "star.g6"
    out["star"].write_text(render_graph(build_graph(4, [(0, 1), (0, 2), (0, 3)])))
    out["spider"] = tmp_path / "spider.edges"
    out["spider"].write_text(render_graph(SPIDER, "edge-list"))
    out["bad"] = tmp_path / "bad.g6"
    out["bad"].write_text("B")
    out["split"] = tmp_path / "split.edges"
    out["split"].write_text("n 4\n0 1\n2 3\n")
    return {k: str(v) for k, v in out.items()}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_text(files, capsys):
    code, out, _ = run(capsys, "spectrum", "--h", "cycle", "--g", files["c4"])
    assert code == 0
    assert out == (
        "min: 4\n"
        "max: 6\n"
        "min_witness: 0,1,2,3\n"
        "max_witness: 0,1,3,2\n"
        "values: 4:8 6:16\n"
        "enumerated: 24\n"
    )


def test_spectrum_json(files, capsys):
    code, out, _ = run(capsys, "spectrum", "--h", "path", "--g", files["p4"], "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["min"] == 3
    assert payload["max"] == 7
    assert payload["values"][0] == [3, 2]
    assert payload["enumerated"] == 24


def test_spectrum_h_from_file(files, capsys):
    code, out, _ = run(capsys, "spectrum", "--h", files["star"], "--g", files["p4"])
    assert code == 0
    assert "min: 4\n" in out


def test_number_prints_value_only(files, capsys):
    code, out, _ = run(capsys, "number", "--h", "cycle", "--g", files["c4"], "--sense", "max")
    assert (code, out) == (0, "6\n")
    code, out, _ = run(
        capsys, "number", "--h", "cycle", "--g", files["c4"], "--sense", "min", "--method", "bnb"
    )
    assert (code, out) == (0, "4\n")


def test_number_json_has_witness(files, capsys):
    code, out, _ = run(
        capsys, "number", "--h", "path", "--g", files["p4_edges"],
        "--sense", "min", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3
    assert sorted(payload["witness"]) == [0, 1, 2, 3]
    assert payload["method"] == "exhaustive"


def test_transform_summary_and_trace(files, capsys):
    code, out, _ = run(capsys, "transform", "--tree", files["spider"], "--h", "path")
    assert code == 0
    assert out.startswith("initial: ")
    assert "step 1:" not in out
    code, out, _ = run(capsys, "transform", "--tree", files["spider"], "--h", "path", "--trace")
    assert code == 0
    assert "step 1:" in out
    assert "choice" in out


def test_transform_json_trace(files, capsys):
    code, out, _ = run(
        capsys, "transform", "--tree", files["spider"], "--h", "cycle",
        "--f", "1,0,2,3,4,5,6", "--trace", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["f"] == [1, 0, 2, 3, 4, 5, 6]
    assert payload["step_count"] == len(payload["steps"]) >= 1
    assert payload["final_sum"] >= payload["initial_sum"]


def test_only_the_asked_format_is_built(files, capsys, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("built an output format nobody asked for")

    monkeypatch.setattr(cli, "format_trace", unused)
    code, out, _ = run(capsys, "transform", "--tree", files["spider"], "--h", "path", "--trace", "--format", "json")
    assert code == 0
    assert json.loads(out)["step_count"] >= 1
    monkeypatch.undo()
    monkeypatch.setattr(cli, "trace_to_dict", unused)
    code, out, _ = run(capsys, "transform", "--tree", files["spider"], "--h", "path", "--trace")
    assert code == 0
    assert "step 1:" in out


def test_transform_refuses_a_tree_graph6_cannot_hold_before_rewiring(tmp_path, capsys, monkeypatch):
    # a 70-vertex spider: three 23-vertex legs on a hub, so rewiring has work to do
    edges = [(0, 1), (0, 24), (0, 47)] + [(v, v + 1) for v in range(1, 69) if v not in (23, 46)]
    tree = tmp_path / "spider70.edges"
    tree.write_text(render_graph(build_graph(70, edges), "edge-list"))
    calls = []
    monkeypatch.setattr(cli, "pathify", lambda *args: calls.append(args))
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "transform", "--tree", str(tree), "--h", "cycle", "--trace", "--format", fmt)
        assert (code, out, calls) == (1, "", [])
        assert err == "error: graph6 short form handles n <= 62, got 70\n"


def test_transform_rejects_bad_bijection(files, capsys):
    code, _, err = run(
        capsys, "transform", "--tree", files["spider"], "--h", "path", "--f", "0,1,2"
    )
    assert code == 1
    assert "bijection" in err
    code, _, err = run(
        capsys, "transform", "--tree", files["spider"], "--h", "path", "--f", "a,b"
    )
    assert code == 2
    # an empty --f is not the identity
    code, out, err = run(capsys, "transform", "--tree", files["spider"], "--h", "path", "--f", "")
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1


def test_transform_rejects_non_tree(files, capsys):
    code, _, err = run(capsys, "transform", "--tree", files["c4"], "--h", "path")
    assert code == 1
    assert "tree" in err


def test_verify_families(files, capsys):
    code, out, _ = run(capsys, "verify", "closed-forms", "--n", "6")
    assert code == 0
    assert "result: PASS" in out
    code, out, _ = run(capsys, "verify", "spanning-trees", "--n", "4")
    assert code == 0
    code, out, _ = run(capsys, "verify", "articulation", "--n", "4")
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "upper-bound", "--n", "4", "--h-family", "all"
    )
    assert code == 0
    payload_code, out, _ = run(capsys, "verify", "closed-forms", "--n", "5", "--format", "json")
    payload = json.loads(out)
    assert payload_code == 0
    assert payload["passed"] is True
    # closed forms read spectrum, which refuses n above the exhaustive cap
    code, out, err = run(capsys, "verify", "closed-forms", "--n", "10")
    assert code == 1
    assert out == ""
    assert "exceeds cap n <= 9" in err


def test_verify_resume_flag(files, tmp_path, capsys):
    progress = tmp_path / "up.progress"
    code, _, _ = run(capsys, "verify", "upper-bound", "--n", "3", "--resume", str(progress))
    assert code == 0
    assert progress.read_text().strip()


def test_verify_interrupt_exit_code(tmp_path, capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "verify_upper_bound", interrupted)
    progress = tmp_path / "up.progress"
    code, out, err = run(capsys, "verify", "upper-bound", "--n", "5", "--resume", str(progress))
    assert code == 130
    assert out == ""
    assert err == f"interrupted; rerun with --resume {progress} to continue\n"


def test_verify_counterexample_exit_code(files, capsys, monkeypatch):
    broken = VerificationReport("closed-forms", 1, (("Bw|n=3", "got 5, expected 4"),))
    monkeypatch.setattr(cli, "verify_closed_forms", lambda n: broken)
    code, out, _ = run(capsys, "verify", "closed-forms", "--n", "3")
    assert code == 3
    assert "FAIL Bw|n=3" in out


def test_iso(files, capsys):
    code, out, _ = run(capsys, "iso", files["p4"], files["p4_edges"])
    assert (code, out) == (0, "isomorphic\n")
    code, out, _ = run(capsys, "iso", files["p4"], files["star"])
    assert (code, out) == (0, "not isomorphic\n")
    code, out, _ = run(capsys, "iso", files["p4"], files["c4"])
    assert (code, out) == (0, "not isomorphic\n")
    code, out, _ = run(capsys, "iso", files["p4"], files["c4"], "--format", "json")
    assert code == 0
    assert json.loads(out) == {"isomorphic": False}


def test_usage_errors(files, capsys):
    code, _, err = run(capsys, "number", "--h", "cycle", "--g", files["c4"])
    assert code == 2
    code, _, err = run(capsys, "spectrum", "--h", "cycle", "--g", "c4.txt")
    assert code == 2
    assert ".g6 or .edges" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, _ = run(capsys)
    assert code == 2
    # the sweep flags belong to upper-bound alone
    progress = files["c4"] + ".progress"
    for family in ("closed-forms", "spanning-trees", "articulation"):
        for flag in (("--resume", progress), ("--h-family", "canonical"), ("--h-family", "all")):
            code, out, err = run(capsys, "verify", family, "--n", "3", *flag)
            assert (code, out) == (2, ""), (family, flag)
            assert err == f"error: {flag[0]} applies to upper-bound only, not {family}\n"
    assert not os.path.exists(progress)


def test_repeated_calls_reuse_one_parser(files, capsys, monkeypatch):
    broken = VerificationReport("closed-forms", 1, (("Bw|n=3", "got 5, expected 4"),))
    monkeypatch.setattr(cli, "verify_closed_forms", lambda n: broken)
    cases = [
        (("spectrum", "--h", "cycle", "--g", files["c4"]), 0),
        (("number", "--h", "path", "--g", files["p4_edges"], "--sense", "min", "--format", "json"), 0),
        (("--help",), 0),
        (("verify", "--help"), 0),
        (("spectrum", "--h", "cycle", "--g", files["bad"]), 1),
        (("number", "--h", "cycle", "--g", files["c4"]), 2),
        (("iso", files["c4"]), 2),
        (("nonsense",), 2),
        ((), 2),
        (("verify", "closed-forms", "--n", "3"), 3),
    ]
    first = [run(capsys, *argv) for argv, _ in cases]
    assert [code for code, _, _ in first] == [code for _, code in cases]
    assert all(out or err for _, out, err in first)
    assert cli._parser() is cli._parser()
    # the same again on the one parser, and on a parser built afresh per call
    assert [run(capsys, *argv) for argv, _ in cases] == first
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    assert [run(capsys, *argv) for argv, _ in cases] == first


def test_domain_errors(files, capsys):
    code, _, err = run(capsys, "spectrum", "--h", "cycle", "--g", files["bad"])
    assert code == 1
    code, _, err = run(capsys, "spectrum", "--h", "cycle", "--g", str(files["c4"]) + ".missing.g6")
    assert code == 1
    code, _, err = run(capsys, "spectrum", "--h", "cycle", "--g", files["split"])
    assert code == 1
    assert "connected" in err
    # a two-vertex host cannot pair with a cycle
    two = files["split"].replace("split.edges", "two.edges")
    with open(two, "w") as fh:
        fh.write("n 2\n0 1\n")
    code, _, err = run(capsys, "spectrum", "--h", "cycle", "--g", two)
    assert code == 1


def test_non_ascii_input_is_a_domain_error(tmp_path, capsys):
    g6 = tmp_path / "accent.g6"
    g6.write_bytes(b"C\xc3\xa9\n")
    edges = tmp_path / "accent.edges"
    edges.write_bytes(b"n 3\n0 1\n1 \xe2\x82\x82\n")
    progress = tmp_path / "accent.progress"
    progress.write_bytes(b"Bw|path\n\xc3\xa9|cycle\n")
    for argv in (
        ("spectrum", "--h", "cycle", "--g", str(g6)),
        ("number", "--h", "path", "--g", str(edges), "--sense", "max"),
        ("verify", "upper-bound", "--n", "3", "--resume", str(progress)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "not ASCII" in err, argv
    # the rejected progress file is left as it was
    assert progress.read_bytes() == b"Bw|path\n\xc3\xa9|cycle\n"


def test_installed_entry_point(files):
    tomllib = pytest.importorskip("tomllib")
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hamspec"]
    module, func = target.split(":")
    argv = ["number", "--h", "cycle", "--g", files["c4"], "--sense", "max"]
    # what the generated console script runs
    proc = _run_module("-c", f"import sys, {module}; sys.exit({module}.{func}())", *argv)
    assert (proc.returncode, proc.stdout) == (0, "6\n")
    exe = shutil.which("hamspec")
    if exe is not None:
        proc = subprocess.run([exe, *argv], capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "6\n")


def _run_module(*args):
    """Run a Python process with the checkout's src first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hamspec.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_module_entry_point_exit_codes(files, tmp_path):
    proc = _run_module("-m", "hamspec.cli", "number", "--h", "cycle", "--g", files["c4"], "--sense", "max")
    assert (proc.returncode, proc.stdout) == (0, "6\n")
    proc = _run_module("-m", "hamspec.cli", "verify", "articulation", "--n", "4")
    assert proc.returncode == 0
    assert proc.stdout.endswith("result: PASS\n")
    bad_name = tmp_path / "c4.txt"
    bad_name.write_text(render_graph(make_cycle(4)))
    proc = _run_module("-m", "hamspec.cli", "spectrum", "--h", "cycle", "--g", str(bad_name))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert ".g6 or .edges" in proc.stderr
    proc = _run_module("-m", "hamspec.cli", "spectrum", "--h", "cycle")
    assert (proc.returncode, proc.stdout) == (2, "")
    # every claim holds, so a counterexample is planted before the module
    # runs as __main__, the way -m runs it
    plant = (
        "import runpy, hamspec.verify as v; "
        "v.verify_closed_forms = lambda n: v.VerificationReport("
        "'closed-forms', 1, (('Bw|n=3', 'got 5, expected 4'),)); "
        "runpy.run_module('hamspec.cli', run_name='__main__')"
    )
    proc = _run_module("-c", plant, "verify", "closed-forms", "--n", "3")
    assert proc.returncode == 3
    assert proc.stdout == "claim: closed-forms\nchecked: 1\nFAIL Bw|n=3: got 5, expected 4\nresult: FAIL (1)\n"
