"""Command-line behaviour: outputs, formats, and exit codes."""

import json
import shutil
import subprocess

import pytest

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


def test_installed_entry_point(files):
    exe = shutil.which("hamspec")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "number", "--h", "cycle", "--g", files["c4"], "--sense", "max"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "6\n"
