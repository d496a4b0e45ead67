"""Command line interface: exit codes, report formats, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphpde
from graphpde.cli import run
from graphpde.graphs import format_graph_text
from util import lattice

PATH3 = (
    "v a auto 0 boundary\n"
    "v b auto 1 omega\n"
    "v c auto 0 boundary\n"
    "e a b 1\n"
    "e b c 1\n"
)

H_ZERO = PATH3.replace("v b auto 1 omega", "v b auto 0 omega")
H_WEAK = PATH3.replace("v b auto 1 omega", "v b auto 0.6 omega")

DISCONNECTED = (
    "v a auto 1 omega\n"
    "v b auto 0 boundary\n"
    "v c auto 1 omega\n"
    "v d auto 0 boundary\n"
    "e a b 1\n"
    "e c d 1\n"
)


@pytest.fixture
def graph_file(tmp_path):
    def _write(text, name="g.graph"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return _write


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


def jsonl_records(out_text):
    recs = [json.loads(line) for line in out_text.splitlines() if line]
    assert all("record" in r for r in recs)
    return recs


def test_check_happy_path(graph_file, capsys):
    assert run(["check", graph_file(PATH3), "--h0", "1"]) == 0
    out = capsys.readouterr().out
    assert "hypothesis H1 holds" in out
    assert "hypothesis H2 holds" in out
    assert "lambda1 1" in out
    assert "constants_hypothesis H1" in out
    assert "sup_embedding 1" in out
    assert "exit_code 0" in out


def test_check_h2_failure(graph_file, capsys):
    assert run(["check", graph_file(H_ZERO), "--h0", "1"]) == 1
    out = capsys.readouterr().out
    assert "hypothesis H2 fails" in out
    assert "exit_code 1" in out


def test_check_no_valid_h_hypothesis(graph_file, capsys):
    # H1 fails (0.6 < 1) and H3 fails (integral 1.2 > bound 1)
    assert run(["check", graph_file(H_WEAK), "--h0", "1"]) == 1
    out = capsys.readouterr().out
    assert "hypothesis H1 fails" in out
    assert "hypothesis H3 fails" in out


def test_check_reaction_routes(graph_file, capsys):
    path = graph_file(PATH3)
    # monotone route blocked by the narrow-grid F6 proxy, AR route absent,
    # nontrivial route blocked by F7: nothing passes
    assert run(["check", path, "--nl", "power:p=4"]) == 1
    capsys.readouterr()
    # with AR constants the F2+F4 route passes
    assert run(["check", path, "--nl", "power:p=4", "--theta", "4", "--M", "1"]) == 0
    out = capsys.readouterr().out
    assert "hypothesis F4 holds" in out
    assert "hypothesis AR-bound holds" in out
    # the shifted family satisfies F7, opening the two-solution route
    assert run(["check", path, "--nl", "power_plus_const:p=4,eps=0.1"]) == 0


def test_eigen_command(graph_file, capsys):
    assert run(["eigen", graph_file(PATH3), "--h0", "1"]) == 0
    out = capsys.readouterr().out
    assert "lambda1 1" in out
    assert "eigenfunction" in out
    assert "u b 0.70710678118654" in out
    assert "kappa 1" in out


def test_gradcheck_command(graph_file, capsys):
    path = graph_file(PATH3)
    code = run(["gradcheck", path, "--nl", "odd_poly:c1=-1,c3=1", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("gradcheck trial") == 5
    assert "pass true" in out
    assert "tolerance 1e-06" in out


def test_gradcheck_requires_nl(graph_file, capsys):
    assert run(["gradcheck", graph_file(PATH3)]) == 2


def test_solve_text_report(graph_file, capsys):
    path = graph_file(PATH3)
    code = run(["solve", path, "--nl", "power:p=4", "--theta", "4", "--M", "1"])
    assert code == 0
    out = capsys.readouterr().out
    u_lines = [ln for ln in out.splitlines() if ln.startswith("u ")]
    assert len(u_lines) == 3
    ids = [ln.split()[1] for ln in u_lines]
    assert ids == ["a", "b", "c"]  # input vertex order
    val = float(u_lines[1].split()[2])
    assert abs(val - math.sqrt(2)) <= 1e-8
    assert "solution 1 energy 2" in out
    assert "solution 1 kind mountain_pass" in out
    assert "trace mountain_pass iterations" in out


def test_solve_gate_failure_reports_verdicts(graph_file, capsys):
    code = run(["solve", graph_file(PATH3), "--nl", "power:p=4"])
    assert code == 1
    out = capsys.readouterr().out
    error_lines = [ln for ln in out.splitlines() if ln.startswith("error ")]
    assert len(error_lines) == 1
    assert "F6" in error_lines[0]
    assert "not a proof" in error_lines[0]


def test_solve_falls_back_to_the_route_check_accepts(graph_file, capsys):
    # F4 fails for theta = 5 > p, the monotone route F5 + F6 holds on the
    # grid [-40, 40] that M = 20 asks for: check and solve both accept
    args = [graph_file(PATH3), "--nl", "power:p=4", "--theta", "5", "--M", "20"]
    assert run(["check", *args]) == 0
    assert "exit_code 0" in capsys.readouterr().out
    assert run(["solve", *args]) == 0
    out = capsys.readouterr().out
    assert "hypothesis F4 fails" in out and "hypothesis F6 holds" in out
    assert "solution 1 kind mountain_pass" in out


def test_solve2_text_report(graph_file, capsys):
    path = graph_file(PATH3)
    code = run([
        "solve2", path, "--nl", "power_plus_const:p=4,eps=0.1",
        "--rho", "1", "--h0", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "solution 1 kind ball_min" in out
    assert "solution 2 kind mountain_pass" in out
    assert "solution 1 in_ball true" in out
    assert "solution 2 in_ball false" in out
    assert "beta_max 0.428571428571" in out
    assert "hypothesis beta-range holds" in out
    assert "trace ball_min iterations" in out
    assert "trace mountain_pass iterations" in out
    assert "ps_diagnostic true" in out
    assert "solutions 2" in out
    assert "distinct_gap 1.33845472564" in out


def test_solve2_jsonl_structure_and_roots(graph_file, capsys):
    path = graph_file(PATH3)
    code = run([
        "solve2", path, "--nl", "power_plus_const:p=4,eps=0.1",
        "--rho", "1", "--h0", "1", "--format", "jsonl",
    ])
    assert code == 0
    recs = jsonl_records(capsys.readouterr().out)
    kinds = {r["record"] for r in recs}
    assert {"meta", "hypothesis", "constants", "ball", "solution", "trace", "summary"} <= kinds
    sols = [r for r in recs if r["record"] == "solution"]
    assert [s["index"] for s in sols] == [1, 2]
    assert abs(sols[0]["u"]["b"] - 0.05006273555363079) <= 1e-8
    assert abs(sols[1]["u"]["b"] - 1.3885174611929045) <= 1e-8
    traces = {r["solver"]: r for r in recs if r["record"] == "trace"}
    assert set(traces) == {"ball_min", "mountain_pass"}
    for r in traces.values():
        assert len(r["levels"]) == len(r["grad_norms"]) >= 1
    summary = [r for r in recs if r["record"] == "summary"][0]
    assert summary["solutions"] == 2
    assert summary["ps_diagnostic"] is True
    assert summary["distinct_gap"] > 1.0


def test_solve2_text_jsonl_numeric_agreement(graph_file, capsys):
    path = graph_file(PATH3)
    args = [
        "solve2", path, "--nl", "power_plus_const:p=4,eps=0.1",
        "--rho", "1", "--h0", "1",
    ]
    assert run(args) == 0
    text = capsys.readouterr().out
    assert run(args + ["--format", "jsonl"]) == 0
    recs = jsonl_records(capsys.readouterr().out)

    # u lines carry 17 significant digits: equal as floats, not rounded
    sols = [r for r in recs if r["record"] == "solution"]
    text_u = {}
    current = 0
    for ln in text.splitlines():
        if ln.startswith("solution ") and " kind " in ln:
            current = int(ln.split()[1])
        elif ln.startswith("u ") and current:
            _, vid, val = ln.split()
            text_u[(current, vid)] = float(val)
    for sol in sols:
        for vid, val in sol["u"].items():
            assert text_u[(sol["index"], vid)] == val

    # scalar fields agree after 12-digit formatting
    meas_line = [ln for ln in text.splitlines() if ln.startswith("omega_measure ")][0]
    constants = [r for r in recs if r["record"] == "constants"][0]
    assert meas_line.split()[1] == f"{constants['omega_measure']:.12g}"
    beta_line = [ln for ln in text.splitlines() if ln.startswith("beta_max ")][0]
    ball = [r for r in recs if r["record"] == "ball"][0]
    assert beta_line.split()[1] == f"{ball['beta_max']:.12g}"
    maxf_line = [ln for ln in text.splitlines() if ln.startswith("ball_max_abs_F ")][0]
    assert float(maxf_line.split()[1]) == pytest.approx(ball["max_abs_F"], rel=1e-11)


def test_solve2_byte_identical_runs(graph_file, capsys):
    path = graph_file(PATH3)
    args = [
        "solve2", path, "--nl", "power_plus_const:p=4,eps=0.1",
        "--rho", "1", "--h0", "1", "--format", "jsonl",
    ]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first  # nonempty


def test_solve_byte_identical_runs_on_lattice(graph_file, capsys):
    graph, part = lattice(12)
    path = graph_file(format_graph_text(graph, part, np.ones(graph.n)))
    args = [
        "solve", path, "--nl", "power:p=4", "--theta", "4", "--M", "1",
        "--format", "jsonl",
    ]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert any(json.loads(line)["record"] == "trace" for line in first.splitlines())


def test_out_file_matches_stdout(graph_file, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code = run([
        "solve2", graph_file(PATH3), "--nl", "power_plus_const:p=4,eps=0.1",
        "--rho", "1", "--h0", "1", "--out", str(out_path),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert out_path.read_text() == stdout


def test_emit_path_profile(graph_file, tmp_path, capsys):
    profile = tmp_path / "profile.csv"
    code = run([
        "solve", graph_file(PATH3), "--nl", "power:p=4", "--theta", "4",
        "--M", "1", "--emit-path-profile", str(profile),
    ])
    assert code == 0
    rows = profile.read_text().splitlines()
    assert rows[0] == "snapshot,s,energy"
    snapshots = set()
    for row in rows[1:]:
        snap, s, val = row.split(",")
        snapshots.add(int(snap))
        assert 0.0 <= float(s) <= 1.0
        float(val)
    assert 0 in snapshots and len(snapshots) >= 2


def test_solve2_failure_after_the_gate_reports_the_run_log(graph_file, capsys):
    # 8 x 8 lattice keeping only the edges that touch the interior, so the
    # corners drop out and mu_min = 1: the gate passes, then the ball
    # minimizer ends on the constraint sphere
    k = 8
    cells = [(r, c) for r in range(k) for c in range(k) if {r, c} - {0, k - 1}]
    inner = {(r, c) for r, c in cells if 0 < r < k - 1 and 0 < c < k - 1}
    name = "{0[0]}_{0[1]}".format
    edges = [
        (name(a), name(b), 1.0) for a in cells for b in ((a[0] + 1, a[1]), (a[0], a[1] + 1))
        if b in cells and (a in inner or b in inner)
    ]
    graph = graphpde.build_graph([name(c) for c in cells], edges)
    part = graphpde.compute_boundary(graph, [name(c) for c in sorted(inner)])
    path = graph_file(format_graph_text(graph, part, np.ones(graph.n)))
    code = run(["solve2", path, "--nl", "power_plus_const:p=4,eps=0.1", "--rho", "1",
                "--h0", "1", "--format", "jsonl"])
    assert code == 1
    recs = jsonl_records(capsys.readouterr().out)
    assert [r["record"] for r in recs] == ["meta"] + ["hypothesis"] * 6 + ["trace", "error"]
    names = [r["name"] for r in recs if r["record"] == "hypothesis"]
    assert names == ["H1", "H2", "H3", "F7", "F1", "beta-range"]
    assert recs[-2]["solver"] == "ball_min" and recs[-2]["levels"]
    assert recs[-1]["message"].startswith("no interior minimizer found")


def test_solve2_m0_mode(graph_file, capsys):
    code = run([
        "solve2", graph_file(PATH3), "--nl", "power_plus_const:p=4,eps=0.1",
        "--M0", "1", "--h0", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "hypothesis F8 holds" in out
    assert "ball_u_bound 1" in out


def test_solve2_rejects_zero_preserving_reaction(graph_file, capsys):
    code = run([
        "solve2", graph_file(PATH3), "--nl", "power:p=4", "--rho", "1", "--h0", "1",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "F7" in out


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["check", "{missing}", "--h0", "1"], ""),
        (["check", "{bad}", "--h0", "1"], "line 1"),
        (["solve", "{path}", "--nl", "mystery:p=4"], "mystery"),
        (["solve", "{path}"], "--nl"),
        (["solve2", "{path}", "--nl", "power:p=4", "--rho", "1"], "--h0"),
        (
            ["solve2", "{path}", "--nl", "power:p=4", "--h0", "1",
             "--rho", "1", "--M0", "1"],
            "exactly one",
        ),
        (["solve2", "{path}", "--nl", "power:p=4", "--h0", "1"], "exactly one"),
        (["check", "{path}", "--h0", "0"], "--h0"),
        (["solve", "{path}", "--nl", "power:p=4", "--theta", "1", "--M", "1"], "theta"),
        (["check", "{disconnected}", "--h0", "1"], "connected"),
    ],
)
def test_input_errors_exit_2(argv, needle, graph_file, tmp_path, capsys):
    path = graph_file(PATH3)
    bad = graph_file("v a auto 0 nowhere\n", name="bad.graph")
    disconnected = graph_file(DISCONNECTED, name="disc.graph")
    missing = str(tmp_path / "does-not-exist.graph")
    argv = [
        a.format(path=path, bad=bad, missing=missing, disconnected=disconnected)
        for a in argv
    ]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert needle in captured.err


def test_unknown_command_exits_2(graph_file, capsys):
    assert run(["frobnicate", graph_file(PATH3)]) == 2


def _console_scripts(bin_dir):
    """Write the launchers an installer makes for ``[project.scripts]``.

    Each ``name = "module:attr"`` entry of pyproject.toml becomes an
    executable ``bin_dir/name`` that imports ``attr`` from ``module`` and
    exits with its return value, as pip's console-script wrapper does.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    bin_dir.mkdir()
    for name, target in scripts.items():
        module, attr = target.split(":")
        launcher = bin_dir / name
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)


def test_console_script_entry_point(graph_file, tmp_path):
    # Both halves run this checkout's package; PATH holds only the
    # declared scripts, so "graphpde" cannot resolve to an installed copy.
    bin_dir = tmp_path / "bin"
    _console_scripts(bin_dir)
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(graphpde.__file__).resolve().parents[1]),
        PATH=str(bin_dir),
    )

    result = subprocess.run(
        [sys.executable, "-m", "graphpde.cli", graph_file(PATH3)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 2  # no subcommand given

    result = subprocess.run(
        ["graphpde", "check", graph_file(PATH3), "--h0", "1"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert "lambda1 1" in result.stdout


# Every reaction term and constant combination the CLI can express, on
# path3 with h0 = 1 (solve2 with rho = 1): the exit code and the ordered
# (name, holds) list of the hypothesis records of each command, written
# "name+" when the verdict holds and "name-" when it fails.
HYPOTHESIS_RECORDS = [
    (("power:p=4",), {
        "check": (1, "H1+ H2+ H3- F2+ F5+ F6- F7-"),
        "solve": (1, ""),
        "solve2": (1, ""),
    }),
    (("power:p=4", "--theta", "4", "--M", "1"), {
        "check": (0, "H1+ H2+ H3- F2+ F5+ F6- F7- F4+ AR-bound+"),
        "solve": (0, "H1+ H2+ F1+ F2+ F4+"),
        "solve2": (1, ""),
    }),
    (("power:p=4", "--theta", "5", "--M", "20"), {
        "check": (0, "H1+ H2+ H3- F2+ F5+ F6+ F7- F4- AR-bound-"),
        "solve": (0, "H1+ H2+ F1+ F2+ F4- F5+ F6+"),
        "solve2": (1, ""),
    }),
    (("power:p=4", "--theta", "4"), {
        "check": (1, "H1+ H2+ H3- F2+ F5+ F6- F7-"),
        "solve": (1, ""),
        "solve2": (1, ""),
    }),
    (("power:p=4", "--M", "1"), {
        "check": (1, "H1+ H2+ H3- F2+ F5+ F6- F7-"),
        "solve": (1, ""),
        "solve2": (1, ""),
    }),
    (("power_plus_const:p=4,eps=0.1",), {
        "check": (0, "H1+ H2+ H3- F2- F5- F6- F7+"),
        "solve": (1, ""),
        "solve2": (0, "H1+ H2+ H3- F7+ F1+ beta-range+"),
    }),
    (("power_plus_const:p=4,eps=0.1", "--theta", "3", "--M", "2"), {
        "check": (0, "H1+ H2+ H3- F2- F5- F6- F7+ F4+ AR-bound+"),
        "solve": (1, ""),
        "solve2": (0, "H1+ H2+ H3- F7+ F1+ F4+ beta-range+"),
    }),
    (("power_plus_const:p=4,eps=0.1", "--theta", "4", "--M", "1"), {
        "check": (1, "H1+ H2+ H3- F2- F5- F6- F7+ F4- AR-bound-"),
        "solve": (1, ""),
        "solve2": (1, ""),
    }),
    (("odd_poly:c1=-1,c3=1",), {
        "check": (1, "H1+ H2+ H3- F2- F5+ F6- F7-"),
        "solve": (1, ""),
        "solve2": (1, ""),
    }),
    (("odd_poly:c1=-1,c3=1", "--theta", "3", "--M", "2"), {
        "check": (1, "H1+ H2+ H3- F2- F5+ F6- F7- F4+ AR-bound+"),
        "solve": (1, ""),
        "solve2": (1, ""),
    }),
]


@pytest.mark.parametrize("command", ["check", "solve", "solve2"])
@pytest.mark.parametrize(
    "nl_args,expected", HYPOTHESIS_RECORDS,
    ids=[" ".join(nl) for nl, _ in HYPOTHESIS_RECORDS],
)
def test_hypothesis_records_in_order(command, nl_args, expected, graph_file, capsys):
    extra = ["--rho", "1"] if command == "solve2" else []
    argv = [command, graph_file(PATH3), "--nl", *nl_args, "--h0", "1", *extra,
            "--format", "jsonl"]
    code = run(argv)
    recs = jsonl_records(capsys.readouterr().out)
    got = " ".join(
        r["name"] + ("+" if r["holds"] else "-") for r in recs if r["record"] == "hypothesis"
    )
    assert (code, got) == expected[command]
