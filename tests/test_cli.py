"""Command line interface: exit codes, report formats, determinism."""

import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphpde
from graphpde.cli import run
from graphpde.graphs import format_graph_text, parse_graph_file
from graphpde.nonlinearity import parse_nonlinearity
from graphpde.solver import verify
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
    # the monotone route F5 + F6 holds for u^3 without AR constants
    assert run(["check", path, "--nl", "power:p=4"]) == 0
    capsys.readouterr()
    # the defocusing cubic fails F5 and F6, the AR route is absent and
    # the nontrivial route is blocked by F7: nothing passes
    assert run(["check", path, "--nl", "odd_poly:c3=-1"]) == 1
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


def test_eigen_reports_non_convergence(graph_file, capsys):
    # 225 interior unknowns take the inverse iteration, which needs more
    # than one step
    graph, part = lattice(17)
    path = graph_file(format_graph_text(graph, part, np.ones(graph.n)))
    assert run(["eigen", path, "--max-iter", "1", "--format", "jsonl"]) == 1
    records = jsonl_records(capsys.readouterr().out)
    assert [r["record"] for r in records] == ["meta", "error"]
    assert records[-1]["message"] == "inverse power iteration did not converge in 1 iterations"


def test_gradcheck_command(graph_file, capsys):
    path = graph_file(PATH3)
    code = run(["gradcheck", path, "--nl", "odd_poly:c1=-1,c3=1", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("gradcheck trial") == 5
    assert "pass true" in out
    assert "tolerance 1e-06" in out


def test_gradcheck_fails_trials_with_non_finite_numbers(graph_file, capsys):
    # the energies of trials 3-5 overflow; nan errors must not pass
    argv = ["gradcheck", graph_file(PATH3), "--h0", "1", "--nl", "odd_poly:c999999999=1",
            "--format", "jsonl"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would raise out of run()
        code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    records = [json.loads(line) for line in captured.out.splitlines()]
    trials = [r for r in records if r["record"] == "gradcheck"]
    assert [r["pass"] for r in trials] == [True, True, False, False, False]
    for r in trials[2:]:
        assert "nan" in (r["max_rel_error"], r["max_delta_error"])
    assert records[-1] == {"record": "summary", "tolerance": 1e-06, "pass": False}


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
    code = run(["solve", graph_file(PATH3), "--nl", "odd_poly:c3=-1"])
    assert code == 1
    out = capsys.readouterr().out
    error_lines = [ln for ln in out.splitlines() if ln.startswith("error ")]
    assert len(error_lines) == 1
    assert "F5: u f_u - f < 0 at u = " in error_lines[0]
    assert "F6: f(u)/u stays bounded above as u -> -infinity" in error_lines[0]


def _hypotheses(argv, capsys):
    """The exit code and the hypothesis records, by name, of a jsonl run
    that writes nothing to stderr and only finite numbers."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would raise out of run()
        code = run([*argv, "--format", "jsonl"])
    captured = capsys.readouterr()
    assert captured.err == ""
    records = jsonl_records(captured.out)
    for value in _scalars(records):
        assert not isinstance(value, float) or math.isfinite(value)
    return code, {r["name"]: r for r in records if r["record"] == "hypothesis"}


def _witness_u(record):
    return float(record["witness"].split("at u = ")[1].split(":")[0])


def test_check_fails_f4_and_f5_past_every_sampled_range(graph_file, capsys):
    # u f - 3F = u^4/4 - u^6/(2 10^4) and u f_u - f = 2u^3 - 4u^5/10^4
    # turn negative past |u| = 70.7
    code, verdicts = _hypotheses(["check", graph_file(PATH3), "--h0", "1", "--nl",
                                  "odd_poly:c3=1,c5=-1e-4", "--theta", "3", "--M", "1"], capsys)
    assert code == 1
    for name in ("F4", "F5"):
        assert not verdicts[name]["holds"]
        assert 70.7 < abs(_witness_u(verdicts[name])) < math.inf


def test_solve_accepts_a_slowly_superlinear_power(graph_file, capsys):
    # f(u)/u = |u|^(1/2) grows without bound, so the monotone route holds
    code, verdicts = _hypotheses(["solve", graph_file(PATH3), "--h0", "1", "--nl", "power:p=2.5"],
                                 capsys)
    assert code == 0
    assert list(verdicts) == ["H1", "H2", "F1", "F5", "F6"]
    assert all(v["holds"] for v in verdicts.values())


def test_solve_on_a_lattice_needs_no_ar_constants(graph_file, capsys):
    graph, part = lattice(12)
    path = graph_file(format_graph_text(graph, part, np.ones(graph.n)))
    code, verdicts = _hypotheses(["solve", path, "--nl", "power:p=4"], capsys)
    assert code == 0
    assert [(name, v["holds"]) for name, v in verdicts.items()] == [
        ("H2", True), ("F1", True), ("F5", True), ("F6", True)]


def test_solve_falls_back_to_the_route_check_accepts(graph_file, capsys):
    # F4 fails for theta = 5 > p, and the monotone route F5 + F6 holds:
    # check and solve both accept
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


def _identical_reports(args, capsys):
    """Run args twice; assert exit 0 and byte-identical output."""
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first  # nonempty
    return first


def test_solve2_byte_identical_runs(graph_file, capsys):
    path = graph_file(PATH3)
    args = [
        "solve2", path, "--nl", "power_plus_const:p=4,eps=0.1",
        "--rho", "1", "--h0", "1", "--format", "jsonl",
    ]
    _identical_reports(args, capsys)


def test_solve_byte_identical_runs_on_lattice(graph_file, capsys):
    # 100 and 225 interior unknowns: the banded factor spans several
    # blocks in the Sobolev direction of solve and in eigen's iteration
    graph, part = lattice(12)
    path = graph_file(format_graph_text(graph, part, np.ones(graph.n)))
    args = [
        "solve", path, "--nl", "power:p=4", "--theta", "4", "--M", "1",
        "--format", "jsonl",
    ]
    first = _identical_reports(args, capsys)
    assert any(json.loads(line)["record"] == "trace" for line in first.splitlines())

    graph, part = lattice(17)
    path = graph_file(format_graph_text(graph, part, np.ones(graph.n)), "g17.graph")
    first = _identical_reports(["eigen", path, "--h0", "1", "--format", "jsonl"], capsys)
    eigen = [r for r in jsonl_records(first) if r["record"] == "eigenvalue"]
    assert eigen and eigen[0]["iterations"] >= 1


def test_out_file_matches_stdout(graph_file, tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code = run([
        "solve2", graph_file(PATH3), "--nl", "power_plus_const:p=4,eps=0.1",
        "--rho", "1", "--h0", "1", "--out", str(out_path),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert out_path.read_text() == stdout


def test_commands_in_one_process_match_fresh_runs(graph_file, tmp_path, capsys):
    # the parser is built once per process: no flag of one command may
    # carry over into the next
    path = graph_file(PATH3)
    out = tmp_path / "report.jsonl"
    commands = [
        ["eigen", path, "--h0", "1", "--out", str(out), "--format", "jsonl"],
        ["eigen", path],
        ["check", path],
    ]
    reports = []
    for argv in commands:
        code = run(argv)
        reports.append((code, capsys.readouterr().out))
        if argv == commands[0]:
            assert out.read_text() == reports[0][1]
            out.unlink()
        assert not out.exists()
    env = dict(os.environ, PYTHONPATH=str(Path(graphpde.__file__).resolve().parents[1]))
    for argv, report in zip(commands, reports):
        fresh = subprocess.run(
            [sys.executable, "-m", "graphpde.cli", *argv], capture_output=True, text=True, env=env,
        )
        assert (fresh.returncode, fresh.stdout) == report


@pytest.mark.parametrize("flags", [["--M0", "1e200"], ["--M", "1e200", "--theta", "4"],
                                   ["--theta", "4", "--M", "1", "--M0", "1e200"]])
def test_check_decides_where_f_and_F_overflow(flags, graph_file, capsys):
    # f and F overflow past |u| = 1e77, and the verdicts are decided on
    # all of R all the same: F4 (with constants), F5 and F6 hold, and no
    # warning or non-finite number gets out
    code, verdicts = _hypotheses(["check", graph_file(PATH3), "--h0", "1", "--nl", "power:p=4",
                                  *flags], capsys)
    assert code == 0
    assert all(verdicts[name]["holds"] for name in ("F5", "F6") + ("F4",) * ("--theta" in flags))
    assert all(v["sampled_range"] is None for name, v in verdicts.items() if name[0] == "F")


def _refused_without_overflow(argv, capsys):
    assert run([*argv, "--format", "jsonl"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    body = json.dumps([r for r in jsonl_records(captured.out) if r["record"] != "meta"])
    assert "inf" not in body and "nan" not in body
    return captured.out


def test_ar_bound_fails_where_F_overflows(graph_file, capsys):
    # F(+-M) is finite, F past M = 1e77 is not; F(u) = F(M) (|u|/M)^4
    # falls below F(M) (|u|/M)^5 at every |u| > M, decided without F there
    code, bound = _ar_bound_record(
        ["check", graph_file(PATH3), "--h0", "1", "--nl", "power:p=4",
         "--M", "1e77", "--theta", "5"], capsys)
    assert code == 0  # the monotone route holds
    assert not bound["holds"]
    assert bound["witness"].startswith("F(u) < exp(-c) |u|^theta at u = -2e+77: F = ")


def _ar_bound_record(argv, capsys):
    """The exit code and the AR-bound record of a jsonl check."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would raise out of run()
        code = run([*argv, "--format", "jsonl"])
    captured = capsys.readouterr()
    assert captured.err == ""
    records = jsonl_records(captured.out)
    assert not any(r["record"] == "error" for r in records)
    (bound,) = [r for r in records if r["record"] == "hypothesis" and r["name"] == "AR-bound"]
    return code, bound


def test_ar_bound_fails_where_its_scale_overflows(graph_file, capsys):
    # exp(-c) = F(M) / M^theta overflows for theta = 1100, M = 0.5
    code, bound = _ar_bound_record(
        ["check", graph_file(PATH3), "--nl", "power:p=4", "--theta", "1100", "--M", "0.5"], capsys)
    assert code == 0  # the monotone route holds, as without --theta
    assert not bound["holds"]
    assert bound["witness"] == "F(u) < exp(-c) |u|^theta at u = -1: F = 0.25, exp(-c) |u|^theta = inf"


def test_a_degree_given_twice_exits_2(graph_file, capsys):
    # c1 and c01 name the same degree: refused, not silently overwritten
    argv = ["check", graph_file(PATH3), "--nl", "odd_poly:c1=1,c01=2"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: duplicate degree 1 in 'odd_poly:c1=1,c01=2'\n"


def test_undefined_ar_bound_is_a_failed_verdict(graph_file, capsys):
    # F(M) < 0: the bound is undefined, and the AR-bound is on no route,
    # so the exit code is that of the routes
    code, bound = _ar_bound_record(
        ["check", graph_file(PATH3), "--nl", "odd_poly:c1=-1,c5=1", "--theta", "4", "--M", "0.5"],
        capsys)
    assert code == 0
    assert not bound["holds"] and bound["data"] == {}
    assert bound["witness"].startswith("F(M) = -0.122396 is not positive at M = 0.5: ")


def test_ball_constants_refuse_an_overflowed_max(graph_file, capsys):
    out = _refused_without_overflow(
        ["solve2", graph_file(PATH3), "--nl", "power_plus_const:p=4,eps=0.1",
         "--h0", "1", "--M0", "1e200"], capsys)
    assert "max |F| on [-1e+200, 1e+200] is not finite" in out


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
    # corners drop out and mu_min = 1: the gate passes, then Newton from
    # the zero function converges outside the ball
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
    assert recs[-2]["stop"] == "tolerance"
    assert recs[-1]["message"].startswith("no interior minimizer found: ")
    assert recs[-1]["message"].endswith("(h-norm 1.12749 against radius 1)")


def test_solve_on_a_lattice_reports_the_newton_handoff(graph_file, tmp_path, capsys):
    # Newton from the initial path's maximum lands on the index-1 point:
    # one trace row, whose gradient norm is far above the tolerance, and
    # the stop reason that says the deformation was skipped
    graph, part = lattice(12)
    path = graph_file(format_graph_text(graph, part, np.ones(graph.n)))
    profile = tmp_path / "profile.csv"
    args = ["solve", path, "--nl", "power:p=4", "--theta", "4", "--M", "1"]
    assert run([*args, "--format", "jsonl", "--emit-path-profile", str(profile)]) == 0
    recs = jsonl_records(capsys.readouterr().out)
    [trace] = [r for r in recs if r["record"] == "trace"]
    assert trace["solver"] == "mountain_pass" and trace["stop"] == "newton_handoff"
    assert len(trace["levels"]) == len(trace["grad_norms"]) == 1
    assert trace["grad_norms"][0] > 1.0
    assert {row.split(",")[0] for row in profile.read_text().splitlines()[1:]} == {"0"}
    assert run(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert "trace mountain_pass iterations 1" in out
    assert "trace mountain_pass stop newton_handoff" in out


def test_solve2_reports_why_each_loop_stopped(graph_file, capsys):
    # path3's hand-off is refused: the 41 samples straddle the saddle, so
    # Newton's point lies above the sampled level
    args = ["solve2", graph_file(PATH3), "--nl", "power_plus_const:p=4,eps=0.1",
            "--rho", "1", "--h0", "1"]
    assert run([*args, "--format", "jsonl"]) == 0
    recs = jsonl_records(capsys.readouterr().out)
    stops = {r["solver"]: r["stop"] for r in recs if r["record"] == "trace"}
    assert stops == {"ball_min": "tolerance", "mountain_pass": "tolerance"}
    assert run(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert "trace ball_min stop tolerance" in out
    assert "trace mountain_pass stop tolerance" in out


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
        (["check", "{latin1}", "--h0", "1"], "{latin1}: 'utf-8' codec"),
        (["check", "{path}", "--h0", "1", "--out", "{tmp}"], "{tmp}"),
        (
            ["solve", "{path}", "--nl", "power:p=4", "--theta", "4", "--M", "1",
             "--emit-path-profile", "{tmp}/missing/profile.csv"],
            "{tmp}/missing/profile.csv",
        ),
    ],
)
def test_input_errors_exit_2(argv, needle, graph_file, tmp_path, capsys):
    latin1 = tmp_path / "latin1.graph"
    latin1.write_bytes(b"\xff" + PATH3.encode())
    names = {
        "path": graph_file(PATH3),
        "bad": graph_file("v a auto 0 nowhere\n", name="bad.graph"),
        "disconnected": graph_file(DISCONNECTED, name="disc.graph"),
        "missing": str(tmp_path / "does-not-exist.graph"),
        "latin1": str(latin1),
        "tmp": str(tmp_path),
    }
    assert run([a.format(**names) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("input error: ") and needle.format(**names) in line


def test_unknown_command_exits_2(graph_file, capsys):
    assert run(["frobnicate", graph_file(PATH3)]) == 2


def test_singular_newton_jacobian_exits_1(graph_file, monkeypatch, capsys):
    # every factor but P's is singular: the hand-off is refused, the
    # deformation stops short of Newton's tolerance, and Newton from its
    # maximizer fails at its first step
    original = graphpde.solver._band_solver
    calls = []

    def singular_but_p(band):
        calls.append(band.shape)
        if len(calls) != 2:
            raise np.linalg.LinAlgError("singular matrix")
        return original(band)

    monkeypatch.setattr(graphpde.solver, "_band_solver", singular_but_p)
    code = run(["solve", graph_file(PATH3), "--nl", "power:p=4", "--theta", "4",
                "--M", "1", "--tol", "1e-3", "--format", "jsonl"])
    assert code == 1
    recs = jsonl_records(capsys.readouterr().out)
    assert recs[-1] == {"record": "error", "message": "Newton's Jacobian is singular at step 0"}
    assert [r["record"] for r in recs].count("trace") == 1
    assert len(calls) == 3


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
        "check": (0, "H1+ H2+ H3- F2+ F5+ F6+ F7-"),
        "solve": (0, "H1+ H2+ F1+ F5+ F6+"),
        "solve2": (1, ""),
    }),
    (("power:p=4", "--theta", "4", "--M", "1"), {
        "check": (0, "H1+ H2+ H3- F2+ F5+ F6+ F7- F4+ AR-bound+"),
        "solve": (0, "H1+ H2+ F1+ F2+ F4+"),
        "solve2": (1, ""),
    }),
    (("power:p=4", "--theta", "5", "--M", "20"), {
        "check": (0, "H1+ H2+ H3- F2+ F5+ F6+ F7- F4- AR-bound-"),
        "solve": (0, "H1+ H2+ F1+ F2+ F4- F5+ F6+"),
        "solve2": (1, ""),
    }),
    (("power:p=4", "--theta", "4"), {
        "check": (0, "H1+ H2+ H3- F2+ F5+ F6+ F7-"),
        "solve": (0, "H1+ H2+ F1+ F5+ F6+"),
        "solve2": (1, ""),
    }),
    (("power:p=4", "--M", "1"), {
        "check": (0, "H1+ H2+ H3- F2+ F5+ F6+ F7-"),
        "solve": (0, "H1+ H2+ F1+ F5+ F6+"),
        "solve2": (1, ""),
    }),
    (("power_plus_const:p=4,eps=0.1",), {
        "check": (0, "H1+ H2+ H3- F2- F5- F6+ F7+"),
        "solve": (1, ""),
        "solve2": (0, "H1+ H2+ H3- F7+ F1+ beta-range+"),
    }),
    (("power_plus_const:p=4,eps=0.1", "--theta", "3", "--M", "2"), {
        "check": (0, "H1+ H2+ H3- F2- F5- F6+ F7+ F4+ AR-bound+"),
        "solve": (1, ""),
        "solve2": (0, "H1+ H2+ H3- F7+ F1+ F4+ beta-range+"),
    }),
    (("power_plus_const:p=4,eps=0.1", "--theta", "4", "--M", "1"), {
        "check": (1, "H1+ H2+ H3- F2- F5- F6+ F7+ F4- AR-bound-"),
        "solve": (1, ""),
        "solve2": (1, ""),
    }),
    (("odd_poly:c1=-1,c3=1",), {
        "check": (0, "H1+ H2+ H3- F2- F5+ F6+ F7-"),
        "solve": (0, "H1+ H2+ F1+ F5+ F6+"),
        "solve2": (1, ""),
    }),
    (("odd_poly:c1=-1,c3=1", "--theta", "3", "--M", "2"), {
        "check": (0, "H1+ H2+ H3- F2- F5+ F6+ F7- F4+ AR-bound+"),
        "solve": (0, "H1+ H2+ F1+ F2- F4+ F5+ F6+"),
        "solve2": (1, ""),
    }),
]


# The same on path3 with h(b) = 0.2 and h0 = 0.5, where H1 fails and H3
# holds: only the two-solution routes accept this h.
H_LOW = PATH3.replace("v b auto 1 omega", "v b auto 0.2 omega")
H_LOW_RECORDS = [
    (("power:p=4", "--theta", "4", "--M", "1"), {
        "check": (1, "H1- H2+ H3+ F2+ F5+ F6+ F7- F4+ AR-bound+"),
        "solve": (1, ""),
        "solve2": (1, ""),
    }),
    (("power:p=4", "--theta", "5", "--M", "20"), {
        "check": (1, "H1- H2+ H3+ F2+ F5+ F6+ F7- F4- AR-bound-"),
        "solve": (1, ""),
        "solve2": (1, ""),
    }),
    (("power_plus_const:p=4,eps=0.1",), {
        "check": (0, "H1- H2+ H3+ F2- F5- F6+ F7+"),
        "solve": (1, ""),
        "solve2": (0, "H1- H2+ H3+ F7+ F1+ beta-range+"),
    }),
]
RECORD_CASES = [
    pytest.param(PATH3, "1", nl, expected, id=" ".join(nl))
    for nl, expected in HYPOTHESIS_RECORDS
] + [
    pytest.param(H_LOW, "0.5", nl, expected, id="h(b)=0.2 h0=0.5 " + " ".join(nl))
    for nl, expected in H_LOW_RECORDS
]


@pytest.mark.parametrize("command", ["check", "solve", "solve2"])
@pytest.mark.parametrize("graph,h0,nl_args,expected", RECORD_CASES)
def test_hypothesis_records_in_order(command, graph, h0, nl_args, expected, graph_file, capsys):
    extra = ["--rho", "1"] if command == "solve2" else []
    argv = [command, graph_file(graph), "--nl", *nl_args, "--h0", h0, *extra,
            "--format", "jsonl"]
    code = run(argv)
    recs = jsonl_records(capsys.readouterr().out)
    got = " ".join(
        r["name"] + ("+" if r["holds"] else "-") for r in recs if r["record"] == "hypothesis"
    )
    assert (code, got) == expected[command]


@pytest.mark.parametrize("graph,h0,nl_args,expected", RECORD_CASES)
def test_check_exits_0_exactly_when_a_theorem_route_holds(
    graph, h0, nl_args, expected, graph_file, capsys
):
    path = graph_file(graph)
    code = run(["check", path, "--nl", *nl_args, "--h0", h0])
    capsys.readouterr()
    flags = dict(zip(nl_args[1::2], nl_args[2::2]))
    nl = replace(
        parse_nonlinearity(nl_args[0]),
        ar_theta=float(flags["--theta"]) if "--theta" in flags else None,
        ar_M=float(flags["--M"]) if "--M" in flags else None,
    )
    gf = parse_graph_file(path)
    holds = [verify(gf, nl, float(h0), (thm,))[1] is None for thm in ("one", "two")]
    assert (code == 0) == any(holds)


@pytest.mark.parametrize("command", ["check", "eigen", "gradcheck", "solve", "solve2"])
@pytest.mark.parametrize("flag,value,rule", [
    ("--M0", "-1", "be positive and finite"), ("--M0", "0", "be positive and finite"),
    ("--M0", "nan", "be positive and finite"), ("--rho", "-3", "be positive and finite"),
    ("--beta", "-1", "be positive and finite"), ("--tol", "-1", "be positive and finite"),
    ("--max-iter", "0", "be positive and finite"), ("--h0", "inf", "be positive and finite"),
    ("--M", "-5", "be positive and finite"), ("--theta", "1", "be finite and exceed 2"),
    ("--seed", "-1", "be non-negative"),
])
def test_bad_flag_values_exit_2(command, flag, value, rule, graph_file, capsys):
    # no --nl: the flag is refused before any command checks what it needs
    argv = [command, graph_file(PATH3), "--h0", "1", flag, value]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {flag} must {rule}, got {value}\n"


@pytest.mark.parametrize("command", ["check", "solve", "solve2", "gradcheck"])
@pytest.mark.parametrize("spec", [
    "power:p=inf", "power_plus_const:p=inf,eps=0.1", "odd_poly:c3=nan", "odd_poly:c3=inf",
])
def test_non_finite_nonlinearity_parameters_exit_2(command, spec, graph_file, capsys):
    extra = ["--rho", "1"] if command == "solve2" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would raise out of run()
        code = run([command, graph_file(PATH3), "--h0", "1", "--nl", spec, *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("input error: ")
    assert "finite" in lines[0]


def _scalars(value):
    """Every number, string, bool or null in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for v in value for x in _scalars(v)]
    return [value]


_SCALE = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)  # log-uniform over 1e-6 .. 1e6
_RANGE = st.floats(-6.0, 300.0).map(lambda e: 10.0**e)  # up to 1e300
_THETA = st.floats(2.0, 60.0, exclude_min=True) | _RANGE.filter(lambda theta: theta > 2.0)


@st.composite
def _cli_cases(draw):
    """A small graph file, interior x0 .. x(k-1) on a path (with a chord
    closing it into a cycle for k > 2) between boundary vertices y0 and
    y1, its v lines and its e lines each in a drawn order, and the argv
    of one command on it."""
    k = draw(st.integers(1, 5))
    edges = [(f"x{i}", f"x{i + 1}") for i in range(k - 1)] + [("y0", "x0"), (f"x{k - 1}", "y1")]
    if k > 2 and draw(st.booleans()):
        edges.append(("x0", f"x{k - 1}"))
    vertices = [(f"x{i}", "omega") for i in range(k)] + [("y0", "boundary"), ("y1", "boundary")]
    h = [draw(_SCALE) for _ in range(k)]
    given = draw(st.booleans())
    lines = [
        f"v {v} {repr(draw(_SCALE)) if given else 'auto'} {hv!r} {part}"
        for (v, part), hv in zip(vertices, h + [0.0, 0.0])
    ]
    edges = [f"e {a} {b} {draw(_SCALE)!r}" for a, b in edges]
    p = draw(st.floats(2.0, 60.0, exclude_min=True))
    odd = draw(st.lists(st.tuples(st.sampled_from([1, 3, 5, 7]), st.floats(-10.0, 10.0)),
                        min_size=1, max_size=3, unique_by=lambda t: t[0]))
    nl = draw(st.sampled_from([
        f"power:p={p!r}",
        f"power_plus_const:p={p!r},eps={draw(st.floats(-1.0, 1.0))!r}",
        "odd_poly:" + ",".join(f"c{d}={c!r}" for d, c in odd),
    ]))
    command = draw(st.sampled_from(["check", "eigen", "solve", "solve2"]))
    h0 = draw(st.sampled_from([min(h), draw(_SCALE)]))  # H1 holds, or h0 is arbitrary
    argv = [command, "--nl", nl, "--h0", repr(h0), "--format", "jsonl"]
    if command in ("solve", "solve2"):
        argv += ["--max-iter", str(draw(st.integers(1, 30)))]
    for flag in ("--theta", "--M", "--M0", "--rho"):
        value = draw(st.none() | (_THETA if flag == "--theta" else _RANGE))
        if value is not None:
            argv += [flag, repr(value)]
    lines = draw(st.permutations(lines)) + draw(st.permutations(edges))
    return "".join(line + "\n" for line in lines), argv


@settings(max_examples=60, deadline=None)
@given(case=_cli_cases())
@example(case=(PATH3, ["check", "--h0", "1", "--nl", "power:p=4", "--M0", "1e200", "--format", "jsonl"]))
@example(case=(PATH3, ["check", "--h0", "1", "--nl", "odd_poly:c3=1,c5=-1e-4", "--theta", "3",
                       "--M", "1", "--format", "jsonl"]))
@example(case=(PATH3, ["solve", "--h0", "1", "--nl", "power:p=2.5", "--format", "jsonl"]))
@example(case=(PATH3, ["check", "--h0", "1", "--nl", "power:p=4", "--theta", "4", "--M", "1",
                       "--M0", "1e200", "--format", "jsonl"]))
@example(case=(PATH3, ["check", "--nl", "power:p=4", "--theta", "1100", "--M", "0.5",
                       "--format", "jsonl"]))
@example(case=(PATH3, ["check", "--nl", "odd_poly:c1=-1,c5=1", "--theta", "4", "--M", "0.5",
                       "--format", "jsonl"]))
@example(case=(  # Newton from the maximizer overflows, and fails as not finite
    "v x0 auto 1 omega\nv x1 auto 1 omega\nv x2 auto 0.1 omega\nv x3 auto 1 omega\n"
    "v y0 auto 0 boundary\nv y1 auto 0 boundary\n"
    "e x0 x1 1\ne x1 x2 0.01\ne x2 x3 1\ne y0 x0 1\ne x3 y1 1\n",
    ["solve", "--nl", "power_plus_const:p=58.0,eps=-1.0", "--h0", "0.1", "--format", "jsonl",
     "--max-iter", "1"]))
def test_cli_fuzz_exits_cleanly(case, tmp_path_factory):
    # badly scaled weights, measures and flags: every run ends in exit 0,
    # 1 or 2 with nothing on stderr but an exit 2's one input error line,
    # and a success report holds only finite numbers and no error record
    text, argv = case
    path = tmp_path_factory.mktemp("fuzz") / "g.graph"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")  # a warning would raise out of run()
        code = run([argv[0], str(path), *argv[1:]])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: ")
    else:
        assert err.getvalue() == ""
    if code == 0:
        for record in jsonl_records(out.getvalue()):
            assert record["record"] != "error", record
            for value in _scalars(record):
                assert value not in ("inf", "-inf", "nan"), record
                assert not isinstance(value, float) or math.isfinite(value), record
