"""Mountain-pass search, ball minimization and the two-solution pipeline."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from graphpde import (
    Problem,
    RunLog,
    SolverConfig,
    SolverError,
    build_graph,
    build_spike_endpoint,
    ball_minimize,
    compute_boundary,
    directional_derivative,
    energy,
    first_eigenvalue,
    mountain_pass,
    odd_poly,
    power,
    power_plus_const,
    two_solutions,
)
import graphpde.nonlinearity
import graphpde.solver
import graphpde.variational
from graphpde.calculus import _interior_matrix
from graphpde.nonlinearity import reaction_derivative
from graphpde.solver import (
    _climbing_move,
    _newton_polish,
    _resample_path,
    _sobolev_direction,
)
from util import (
    band_matrix,
    bisect,
    hessian,
    interior_matrix_loop,
    lattice,
    lattice_problem,
    morse_index,
    random_connected_graph,
    random_dirichlet,
    random_partition,
    resample_about,
    three_path_problem,
)

POWER4 = power(4, theta=4.0, M=1.0)
POWER3 = power(3, theta=3.0, M=1.0)
PLUS_CONST = power_plus_const(4, 0.1)

# residual of the one-interior-vertex problem with the plus-const term
SMALL_ROOT = bisect(lambda t: 2 * t - t**3 - 0.1, 0.0, 0.5)
LARGE_ROOT = bisect(lambda t: 2 * t - t**3 - 0.1, 1.0, 1.4)


@pytest.fixture
def deform_only(monkeypatch):
    """The mountain pass with its Newton hand-off refused, so that the
    deformation loop runs on inputs that would otherwise skip it."""
    monkeypatch.setattr(graphpde.solver, "_newton_handoff", lambda *args: None)


def test_spike_endpoint_oracle():
    problem = three_path_problem(POWER4)
    e = build_spike_endpoint(problem)
    assert e.tolist() == [0.0, 2.0, 0.0]
    assert energy(problem, e) <= 0.0


def test_spike_endpoint_prefers_heavier_vertex():
    graph = build_graph(
        ["a", "b", "c", "d"],
        [("a", "b", 1.0), ("b", "c", 3.0), ("c", "d", 2.0)],
    )
    part = compute_boundary(graph, ["b", "c"])
    problem = Problem(graph=graph, partition=part, h=np.ones(4), nl=POWER4, h0=1.0)
    e = build_spike_endpoint(problem)
    assert e[2] > 0.0 and e[1] == 0.0  # mu(c) = 5 beats mu(b) = 4


def test_spike_endpoint_rejects_subquadratic_growth():
    problem = three_path_problem(odd_poly({1: 1.0}))
    with pytest.raises(SolverError) as err:
        build_spike_endpoint(problem)
    assert "superquadratic" in str(err.value)
    assert "energy(" in str(err.value)


def test_mountain_pass_power4():
    problem = three_path_problem(POWER4)
    sol = mountain_pass(problem)
    assert abs(sol.u[1] - math.sqrt(2)) <= 1e-8
    assert sol.u[0] == 0.0 and sol.u[2] == 0.0
    assert abs(sol.energy_value - 2.0) <= 1e-8
    assert sol.residual_max <= 1e-12
    assert sol.kind == "mountain_pass"
    assert sol.rho_used is None and not sol.in_ball
    assert sol.h_norm == pytest.approx(2 * math.sqrt(2), rel=1e-9)


def test_mountain_pass_power3():
    sol = mountain_pass(three_path_problem(POWER3))
    assert abs(sol.u[1] - 2.0) <= 1e-8
    assert abs(sol.energy_value - 8.0 / 3.0) <= 1e-8
    assert sol.residual_max <= 1e-12


def test_mountain_pass_plus_const_matches_bisection():
    problem = three_path_problem(PLUS_CONST)
    sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False))
    assert abs(sol.u[1] - LARGE_ROOT) <= 1e-8


def test_mountain_pass_trace_and_verdicts():
    problem = three_path_problem(POWER4)
    log = RunLog()
    sol = mountain_pass(problem, log=log)
    trace, verdicts = log.traces["mountain_pass"], log.verdicts
    assert sol.residual_max <= 1e-12
    levels = [lv for lv, _ in trace]
    assert all(b <= a + 1e-15 for a, b in zip(levels, levels[1:]))
    # the discrete path max undershoots the exact saddle by at most the
    # sampling gap; the sampled level must still land near it
    assert abs(levels[-1] - sol.energy_value) <= 0.05
    names = [v.name for v in verdicts]
    assert "H1" in names and "H2" in names and "F1" in names
    assert "F2" in names and "F4" in names  # superquadratic-constants route
    assert all(v.holds for v in verdicts)


def test_mountain_pass_monotone_route_uses_f5_f6():
    problem = three_path_problem(power(5))  # no growth constants attached
    log = RunLog()
    mountain_pass(problem, log=log)
    names = [v.name for v in log.verdicts]
    assert "F5" in names and "F6" in names and "F2" not in names


def test_mountain_pass_falls_back_to_the_monotone_route():
    # F4 fails for theta = 5 > p, and the monotone route F5 + F6 holds;
    # F3 is attached to both routes
    problem = three_path_problem(power(4, theta=5.0, M=20.0, C=1.0, growth_p=4.0))
    log = RunLog()
    sol = mountain_pass(problem, log=log)
    assert [(v.name, v.holds) for v in log.verdicts] == [
        ("H1", True), ("H2", True), ("F1", True), ("F2", True), ("F4", False),
        ("F3", True), ("F5", True), ("F6", True),
    ]
    assert abs(sol.u[1] - math.sqrt(2)) <= 1e-8


def test_mountain_pass_gate_failure_is_reported():
    # the defocusing cubic f = -u^3: f(u)/u = -u^2 falls, so F5 and F6 fail,
    # and without AR constants no other route applies
    problem = three_path_problem(odd_poly({3: -1.0}))
    with pytest.raises(SolverError) as err:
        mountain_pass(problem)
    assert "F5: u f_u - f < 0 at u = " in str(err.value)
    assert "F6: f(u)/u stays bounded above" in str(err.value)


def test_mountain_pass_f2_blocks_shifted_reaction():
    problem = three_path_problem(power_plus_const(4, 0.1, theta=3.0, M=2.0))
    with pytest.raises(SolverError) as err:
        mountain_pass(problem)
    assert "F2" in str(err.value)


def test_mountain_pass_refuses_a_collapse_to_zero(monkeypatch, deform_only):
    # f(x, 0) = 0 makes 0 a critical point; Newton landing there isolates no pass
    monkeypatch.setattr(
        graphpde.solver, "_newton_polish", lambda problem, u0: (np.zeros_like(u0), 0.0, None)
    )
    with pytest.raises(SolverError, match="^deformation collapsed to the zero function"):
        mountain_pass(three_path_problem(POWER4))


def test_mountain_pass_no_barrier():
    problem = three_path_problem(power_plus_const(4, 10.0))
    with pytest.raises(SolverError) as err:
        mountain_pass(problem, SolverConfig(verify_hypotheses=False))
    assert "endpoint" in str(err.value)


def test_mountain_pass_failure_keeps_its_trace_in_the_log():
    log = RunLog()
    with pytest.raises(SolverError, match="endpoint"):
        mountain_pass(
            three_path_problem(power_plus_const(4, 10.0)),
            SolverConfig(verify_hypotheses=False), log=log,
        )
    rows = log.traces["mountain_pass"]
    assert len(rows) >= 1
    assert all(math.isfinite(a) and math.isfinite(b) for a, b in rows)
    assert log.profile[0][0] == 0


def test_mountain_pass_on_random_graph(rng):
    graph = random_connected_graph(rng, n_min=6, n_max=10)
    part = random_partition(rng, graph)
    problem = Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=POWER4, h0=1.0)
    log = RunLog()
    sol = mountain_pass(problem, log=log)
    trace = log.traces["mountain_pass"]
    assert sol.residual_max <= 1e-12
    assert sol.energy_value > 0.0
    assert float(np.max(np.abs(sol.u))) > 1e-6
    levels = [lv for lv, _ in trace]
    assert all(b <= a + 1e-15 for a, b in zip(levels, levels[1:]))


@pytest.mark.parametrize("make", [
    lambda: three_path_problem(POWER4),
    lambda: lattice_problem(5, POWER4),
], ids=["path3", "grid5"])
def test_mountain_pass_evaluates_the_path_in_one_batch(monkeypatch, make):
    calls = []
    original = graphpde.solver._kernel

    def counted(problem, v, *args, **kwargs):
        calls.append(np.ndim(v))
        return original(problem, v, *args, **kwargs)

    monkeypatch.setattr(graphpde.solver, "_kernel", counted)
    config = SolverConfig()
    log = RunLog()
    sol = mountain_pass(make(), config, log=log)
    trace = log.traces["mountain_pass"]
    assert sol.residual_max <= 1e-12
    assert len(calls) < graphpde.solver.PATH_POINTS * len(trace)
    assert calls.count(2) == len(trace)


def test_mountain_pass_loop_holds_interior_vectors_only(monkeypatch, deform_only):
    # the loops validate no Dirichlet vector per iteration, and every
    # energy evaluation sees interior values only (100 of 144 vertices)
    problem = lattice_problem(12, POWER4)
    checks, widths = [], set()
    require, kernel = graphpde.variational._require_dirichlet, graphpde.solver._kernel

    def counted_require(*args, **kwargs):
        checks.append(1)
        return require(*args, **kwargs)

    def recorded_kernel(problem, v, *args, **kwargs):
        widths.add(np.shape(v)[-1])
        return kernel(problem, v, *args, **kwargs)

    monkeypatch.setattr(graphpde.variational, "_require_dirichlet", counted_require)
    monkeypatch.setattr(graphpde.solver, "_kernel", recorded_kernel)
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(), log=log)
    assert len(log.traces["mountain_pass"]) > 20
    assert len(checks) <= 2
    assert widths == {problem.partition.omega.size}
    assert sol.u.shape == (problem.graph.n,)


def test_ball_minimize_traces_one_row_per_newton_iterate():
    # Newton from 0 on lattice(40) converges outside the ball; the other
    # two converge inside it.  Each row is an iterate's (energy, |mu r|),
    # the first at 0, where mu r = -eps mu
    for problem, rows, accepted in (
        (lattice_problem(40, PLUS_CONST), 4, False),
        (lattice_problem(12, power_plus_const(4, 0.01)), 3, True),
        (three_path_problem(PLUS_CONST), 4, True),
    ):
        log = RunLog()
        if accepted:
            ball_minimize(problem, SolverConfig(rho=1.0), log=log)
        else:
            with pytest.raises(SolverError, match=r"^no interior minimizer found: .*"
                                                  r"\(h-norm 7\.59121 against radius 1\)$"):
                ball_minimize(problem, SolverConfig(rho=1.0), log=log)
        trace = log.traces["ball_min"]
        assert len(trace) == rows
        assert log.stops == {"ball_min": "tolerance"}
        mu = problem._form.mu
        assert trace[0] == (0.0, pytest.approx(problem.nl.eps * np.linalg.norm(mu), rel=1e-14))
        assert all(b < a for (_, a), (_, b) in zip(trace, trace[1:]))
        assert trace[-1][1] <= graphpde.solver.NEWTON_TOL * np.linalg.norm(mu)


def test_ball_minimize_plus_const():
    problem = three_path_problem(PLUS_CONST)
    sol = ball_minimize(problem, SolverConfig(rho=1.0))
    assert abs(sol.u[1] - SMALL_ROOT) <= 1e-8
    assert sol.kind == "ball_min"
    assert sol.in_ball and sol.rho_used == 1.0
    assert sol.h_norm < 1.0
    assert sol.residual_max <= 1e-12
    assert sol.energy_value < 0.0  # strictly below the zero function


def test_ball_minimize_trivial_when_zero_is_solution():
    problem = three_path_problem(POWER4)
    log = RunLog()
    sol = ball_minimize(problem, SolverConfig(rho=1.0), log=log)
    assert sol.kind == "trivial"
    # Newton starts at residual 0
    assert log.traces["ball_min"] == [(0.0, 0.0)] and log.stops == {"ball_min": "tolerance"}
    assert np.all(sol.u == 0.0)
    assert sol.energy_value == 0.0
    assert sol.in_ball


def test_ball_minimize_pinned_to_sphere():
    # eps = 10 has no interior minimizer; Newton from 0 cuts the residual too little
    problem = three_path_problem(power_plus_const(4, 10.0))
    log = RunLog()
    with pytest.raises(SolverError) as err:
        ball_minimize(problem, SolverConfig(rho=1.0), log=log)
    assert str(err.value).startswith(
        "no interior minimizer found: Newton from the zero function failed: "
        "Newton attempt cut the residual"
    )
    assert log.stops == {"ball_min": "newton_failed"} and len(log.traces["ball_min"]) == 3


def _converged_at(value, index):
    """A stand-in for _newton_polish that converges at value everywhere
    with Morse index index."""
    return lambda problem, u0, attempt=False, trace=None: (np.full_like(u0, value), 0.0, index)


def test_ball_minimize_refuses_newton_leaving_the_ball(monkeypatch):
    monkeypatch.setattr(graphpde.solver, "_newton_polish", _converged_at(1e3, 0))
    with pytest.raises(SolverError, match=r"^no interior minimizer found: Newton from the zero "
                                          r"function converged on or past the constraint sphere "
                                          r"\(h-norm 2000 against radius 1\)$"):
        ball_minimize(three_path_problem(PLUS_CONST), SolverConfig(rho=1.0))


def test_ball_minimize_refuses_a_saddle_inside_the_ball(monkeypatch):
    monkeypatch.setattr(graphpde.solver, "_newton_polish", _converged_at(0.05, 1))
    with pytest.raises(SolverError, match=r"^no interior minimizer found: Newton from the zero "
                                          r"function converged to a critical point of Morse "
                                          r"index 1, not a minimizer$"):
        ball_minimize(three_path_problem(PLUS_CONST), SolverConfig(rho=1.0))
    # the same point at index 0 lies inside the ball and is accepted
    monkeypatch.setattr(graphpde.solver, "_newton_polish", _converged_at(0.05, 0))
    sol = ball_minimize(three_path_problem(PLUS_CONST), SolverConfig(rho=1.0))
    assert sol.kind == "ball_min" and sol.u[1] == 0.05 and sol.in_ball


def test_ball_minimize_needs_rho():
    problem = three_path_problem(PLUS_CONST)
    with pytest.raises(SolverError):
        ball_minimize(problem)


def test_two_solutions_plus_const():
    problem = three_path_problem(PLUS_CONST)
    log = RunLog()
    report = two_solutions(problem, SolverConfig(rho=1.0), log=log)
    ball_sol, pass_sol = report.solutions
    assert ball_sol.kind == "ball_min" and pass_sol.kind == "mountain_pass"
    assert abs(ball_sol.u[1] - SMALL_ROOT) <= 1e-8
    assert abs(pass_sol.u[1] - LARGE_ROOT) <= 1e-8
    assert ball_sol.in_ball and not pass_sol.in_ball
    assert report.constants.lambda1 == pytest.approx(1.0, abs=1e-10)
    assert report.constants is not None and report.constants.hypothesis == "H1"
    assert report.ball is not None
    assert report.ball.beta_max == pytest.approx(1.0 / 0.7 - 1.0, rel=1e-9)
    names = [v.name for v in report.hypothesis_verdicts]
    for expected in ("H1", "H2", "H3", "F7", "F1", "beta-range"):
        assert expected in names
    assert log.verdicts == list(report.hypothesis_verdicts)
    assert set(log.traces) == {"ball_min", "mountain_pass"}
    assert all(len(rows) > 0 for rows in log.traces.values())
    assert report.ps_diagnostic


def test_two_solutions_m0_mode_matches_rho_mode():
    problem = three_path_problem(PLUS_CONST)
    by_rho = two_solutions(problem, SolverConfig(rho=1.0))
    by_m0 = two_solutions(problem, SolverConfig(m0=1.0))
    for a, b in zip(by_rho.solutions, by_m0.solutions):
        assert np.allclose(a.u, b.u, rtol=0, atol=1e-12)
    assert by_m0.ball.rho == pytest.approx(1.0)
    assert by_m0.ball.u_bound == 1.0
    names = [v.name for v in by_m0.hypothesis_verdicts]
    assert "F8" in names
    assert "F8" not in [v.name for v in by_rho.hypothesis_verdicts]


def test_two_solutions_m0_mode_scans_the_antiderivative_once(monkeypatch):
    # the ball constants and F8 share one max |F| on [-M0, M0]: F at -M0,
    # at the root -0.1^(1/3) of f = u^3 + 0.1 and at M0
    m0 = 1.0
    scans = []
    original = graphpde.nonlinearity.antiderivative

    def counted(nl, u):
        if np.ndim(u) == 1 and u.size > 1 and u[0] == -m0 and u[-1] == m0:
            scans.append(u.tolist())
        return original(nl, u)

    monkeypatch.setattr(graphpde.nonlinearity, "antiderivative", counted)
    report = two_solutions(three_path_problem(PLUS_CONST), SolverConfig(m0=m0))
    assert len(scans) == 1 and len(scans[0]) == 3
    assert scans[0][1] == pytest.approx(-0.1 ** (1 / 3), rel=1e-15)
    f8 = [v for v in report.hypothesis_verdicts if v.name == "F8"]
    assert len(f8) == 1 and f8[0].holds


def test_two_solutions_f8_blocks_large_beta():
    problem = three_path_problem(PLUS_CONST)
    with pytest.raises(SolverError) as err:
        two_solutions(problem, SolverConfig(m0=1.0, beta=1.0))
    assert "F8" in str(err.value)


def test_two_solutions_rho_mode_rejects_large_beta():
    problem = three_path_problem(PLUS_CONST)
    with pytest.raises(SolverError) as err:
        two_solutions(problem, SolverConfig(rho=1.0, beta=1.0))
    assert "no valid beta" in str(err.value)


def test_two_solutions_m0_mode_rejects_nonpositive_beta():
    # on [-2, 2] max|F| = 4.2 exceeds rho/2 = 2: beta_max = -0.52 before F8 runs
    problem = three_path_problem(PLUS_CONST)
    with pytest.raises(SolverError) as err:
        two_solutions(problem, SolverConfig(m0=2.0))
    assert "no valid beta" in str(err.value)


def test_two_solutions_rejects_zero_preserving_reaction():
    problem = three_path_problem(POWER4)
    with pytest.raises(SolverError) as err:
        two_solutions(problem, SolverConfig(rho=1.0))
    msg = str(err.value)
    assert "F7" in msg and "f(x, 0) != 0" in msg


def test_two_solutions_rejects_vanishing_h():
    problem = three_path_problem(PLUS_CONST, h_value=0.0)
    with pytest.raises(SolverError) as err:
        two_solutions(problem, SolverConfig(rho=1.0))
    assert "H2" in str(err.value)


def test_two_solutions_rejects_when_h1_and_h3_fail():
    problem = three_path_problem(PLUS_CONST, h_value=0.6, h0=1.0)
    with pytest.raises(SolverError) as err:
        two_solutions(problem, SolverConfig(rho=1.0))
    assert "H1" in str(err.value) and "H3" in str(err.value)


def test_two_solutions_needs_h0():
    problem = three_path_problem(PLUS_CONST, h0=None)
    with pytest.raises(SolverError) as err:
        two_solutions(problem, SolverConfig(rho=1.0))
    assert "h0" in str(err.value)


def test_two_solutions_ball_spec_required_and_exclusive():
    problem = three_path_problem(PLUS_CONST)
    with pytest.raises(SolverError):
        two_solutions(problem)
    with pytest.raises(SolverError):
        two_solutions(problem, SolverConfig(rho=1.0, m0=1.0))


def test_two_solutions_attaches_f4_when_constants_present():
    nl = power_plus_const(4, 0.1, theta=3.0, M=2.0)
    problem = three_path_problem(nl)
    report = two_solutions(problem, SolverConfig(rho=1.0))
    f4 = [v for v in report.hypothesis_verdicts if v.name == "F4"]
    assert len(f4) == 1 and f4[0].holds

    bad = power_plus_const(4, 0.1, theta=4.0, M=1.0)
    with pytest.raises(SolverError) as err:
        two_solutions(three_path_problem(bad), SolverConfig(rho=1.0))
    assert "F4" in str(err.value)


def test_two_solutions_refuses_one_function_twice(monkeypatch):
    monkeypatch.setattr(
        graphpde.solver, "mountain_pass",
        lambda problem, config, log: ball_minimize(problem, config, log=log),
    )
    with pytest.raises(SolverError, match=r"^the two routes converged to the same function "
                                          r"\(sup-norm gap 0 < 1e-06\)"):
        two_solutions(three_path_problem(PLUS_CONST), SolverConfig(rho=1.0))


def test_two_solutions_deterministic():
    problem = three_path_problem(PLUS_CONST)
    log_a, log_b = RunLog(), RunLog()
    a = two_solutions(problem, SolverConfig(rho=1.0), log=log_a)
    b = two_solutions(problem, SolverConfig(rho=1.0), log=log_b)
    assert log_a.traces == log_b.traces
    for sa, sb in zip(a.solutions, b.solutions):
        assert np.array_equal(sa.u, sb.u)
        assert sa.energy_value == sb.energy_value


def test_solver_scaling_equivariance():
    base = three_path_problem(PLUS_CONST)
    lam = 2.0
    scaled_graph = build_graph(
        ["a", "b", "c"],
        [("a", "b", lam), ("b", "c", lam)],
        measure_mode="given",
        measures={"a": lam, "b": 2 * lam, "c": lam},
    )
    part = compute_boundary(scaled_graph, ["b"])
    scaled = Problem(
        graph=scaled_graph, partition=part, h=np.ones(3), nl=PLUS_CONST, h0=1.0
    )
    config = SolverConfig(verify_hypotheses=False)
    sol_base = mountain_pass(base, config)
    sol_scaled = mountain_pass(scaled, config)
    # same critical points, energies scaled by the common factor
    assert np.allclose(sol_scaled.u, sol_base.u, rtol=0, atol=1e-12)
    assert sol_scaled.energy_value == pytest.approx(lam * sol_base.energy_value, rel=1e-12)
    u = sol_base.u
    assert energy(scaled, u) == pytest.approx(lam * energy(base, u), rel=1e-14)


def test_weak_residual_at_solutions(rng):
    problem = three_path_problem(PLUS_CONST)
    report = two_solutions(problem, SolverConfig(rho=1.0))
    tol = graphpde.solver.NEWTON_TOL
    for sol in report.solutions:
        for _ in range(50):
            phi = np.zeros(3)
            phi[1] = rng.uniform(-2.0, 2.0)
            norm_phi = math.sqrt(2.0) * abs(phi[1]) * math.sqrt(2.0)  # h-norm on this graph
            dd = directional_derivative(problem, sol.u, phi)
            assert abs(dd) <= 10 * tol * max(norm_phi, 1e-30)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(deform_steps=0)
    with pytest.raises(ValueError):
        SolverConfig(deform_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rho=-1.0)


def test_mountain_pass_in_ball_flag():
    problem = three_path_problem(POWER4)
    sol = mountain_pass(problem, SolverConfig(rho=100.0))
    assert sol.in_ball and sol.rho_used == 100.0
    assert sol.h_norm == pytest.approx(2 * math.sqrt(2), rel=1e-9)


def test_ball_minimize_newton_from_zero_converges_fast():
    # Newton converges quadratically from 0 to the small root
    log = RunLog()
    sol = ball_minimize(three_path_problem(PLUS_CONST), SolverConfig(rho=1.0), log=log)
    trace = log.traces["ball_min"]
    assert abs(sol.u[1] - SMALL_ROOT) <= 1e-8
    assert len(trace) <= 5


def test_mountain_pass_lattice_exits_by_tolerance(deform_only):
    config = SolverConfig()
    log = RunLog()
    sol = mountain_pass(lattice_problem(12, POWER4), config, log=log)
    trace = log.traces["mountain_pass"]
    assert trace[-1][1] <= config.deform_tol
    assert len(trace) < graphpde.solver.STALL_WINDOW
    assert sol.residual_max <= graphpde.solver.NEWTON_TOL


def _p_matrix(problem):
    omega = problem.partition.omega
    mu = problem.graph.measure[omega]
    return interior_matrix_loop(problem.graph, problem.partition) + np.diag(
        mu * np.abs(problem.h[omega])
    )


def _mixed_sign_problem(rng):
    graph = random_connected_graph(rng, n_min=4, n_max=30, measure_mode="given")
    part = random_partition(rng, graph)
    h = rng.uniform(-2.0, 2.0, size=graph.n)
    return Problem(graph=graph, partition=part, h=h, nl=POWER4)


def test_sobolev_direction_solves_the_h_gram_matrix(rng):
    problems = [_mixed_sign_problem(rng) for _ in range(20)]
    # 100 interior unknowns, two factor blocks: in row order (bandwidth
    # 10) and shuffled (a full band)
    for graph, part in (lattice(12), lattice(12, rng)):
        h = rng.uniform(-2.0, 2.0, size=graph.n)
        problems.append(Problem(graph=graph, partition=part, h=h, nl=POWER4))
    bandwidths = [len(_interior_matrix(p._form)) - 1 for p in problems[-2:]]
    assert bandwidths[0] == 10 and bandwidths[1] > 64
    for problem in problems:
        g = random_dirichlet(rng, problem.graph, problem.partition)[problem.partition.omega]
        d = _sobolev_direction(problem)(g)
        expect = np.linalg.solve(_p_matrix(problem), g)
        assert np.allclose(d, expect, rtol=1e-10, atol=1e-12 * np.max(np.abs(expect)))
        assert d.shape == g.shape


def test_climbing_move_reverses_the_tangential_part(rng):
    # at u = 0 with h > 0 the curvature along tau is tau^T P tau > 0
    for _ in range(20):
        problem = _mixed_sign_problem(rng)
        problem = Problem(
            graph=problem.graph, partition=problem.partition,
            h=np.abs(problem.h) + 0.1, nl=POWER4,
        )
        part = problem.partition
        pmat = _p_matrix(problem)
        precondition = _sobolev_direction(problem)
        g = random_dirichlet(rng, problem.graph, part)[part.omega]
        tau = random_dirichlet(rng, problem.graph, part)[part.omega]
        move = _climbing_move(problem, precondition, g, tau, np.zeros(part.omega.size))
        base = precondition(g)
        # the change is along tau, and the P-component along tau flips
        coef = (move - base) / tau
        assert np.allclose(coef, coef[0], rtol=1e-9)
        assert tau @ pmat @ move == pytest.approx(-(g @ tau), rel=1e-9)


def test_climbing_move_takes_the_newton_step_along_negative_curvature(rng):
    checked = 0
    for _ in range(40):
        problem = _mixed_sign_problem(rng)
        part = problem.partition
        pmat = _p_matrix(problem)
        precondition = _sobolev_direction(problem)
        u = random_dirichlet(rng, problem.graph, part)
        g = random_dirichlet(rng, problem.graph, part)[part.omega]
        t = random_dirichlet(rng, problem.graph, part)[part.omega]
        curv = t @ hessian(problem, u) @ t
        if not curv < 0.0:
            continue
        move = _climbing_move(problem, precondition, g, t, u[part.omega])
        coef = (move - precondition(g)) / t
        assert np.allclose(coef, coef[0], rtol=1e-9)
        tpt = t @ pmat @ t
        assert t @ pmat @ move == pytest.approx((g @ t) * tpt / curv, rel=1e-9)
        checked += 1
    assert checked >= 10


def test_climbing_move_without_tangent_does_not_reflect(rng):
    problem = lattice_problem(5, POWER4)
    precondition = _sobolev_direction(problem)
    omega = problem.partition.omega
    g = random_dirichlet(rng, problem.graph, problem.partition)[omega]
    u = random_dirichlet(rng, problem.graph, problem.partition)[omega]
    with np.errstate(all="raise"):
        move = _climbing_move(problem, precondition, g, np.zeros(omega.size), u)
    assert np.array_equal(move, precondition(g))


def _segments(path):
    deltas = np.diff(path, axis=0)
    return deltas, np.sqrt(np.sum(deltas * deltas, axis=1))


@pytest.mark.parametrize("i", [1, 7, 20, 39])
def test_resample_about_keeps_the_image(rng, i):
    # two straight legs 0 -> image -> end, points unevenly spread on each
    image, end = rng.normal(size=6), rng.normal(size=6)
    left = np.sort(rng.uniform(size=i - 1))
    right = np.sort(rng.uniform(size=39 - i))
    path = np.vstack([
        np.zeros(6), left[:, None] * image, image,
        image + right[:, None] * (end - image), end,
    ])
    out = _resample_path(path, i, *_segments(path))
    for k in (0, i, 40):
        assert np.array_equal(out[k], path[k])
    for side in (out[: i + 1], out[i:]):
        seg = np.linalg.norm(np.diff(side, axis=0), axis=1)
        assert np.allclose(seg, seg.mean(), rtol=1e-9)
    assert not np.allclose(out, path)


@pytest.mark.parametrize("npts", [3, 5, 41])
def test_resample_path_matches_the_per_side_reference(rng, npts):
    for trial in range(30):
        path = np.cumsum(rng.normal(size=(npts, 8)), axis=0)
        path[0] = 0.0
        if trial % 3 == 1:
            # coincident points, one of them next to the middle image
            for k in [npts // 2, *rng.integers(0, npts - 1, size=npts // 4)]:
                path[k + 1] = path[k]
        for i in sorted({1, npts // 2, npts - 2}):
            out = _resample_path(path, i, *_segments(path))
            expect = resample_about(path, i)
            for k in (0, i, npts - 1):
                assert np.array_equal(out[k], path[k])
            scale = np.max(np.abs(expect))
            assert np.allclose(out, expect, rtol=1e-13, atol=1e-13 * scale)


def test_mountain_pass_path3_climbs_to_the_saddle():
    # the Sobolev reflection oscillated here (multiplier -1 at p = 4) and
    # stalled after 101 iterations; the Newton step along tau converges
    config = SolverConfig()
    log = RunLog()
    sol = mountain_pass(three_path_problem(POWER4), config, log=log)
    trace = log.traces["mountain_pass"]
    assert trace[-1][1] <= config.deform_tol
    assert len(trace) <= 5
    assert sol.u[1] == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_mountain_pass_lattice_takes_few_iterations():
    log = RunLog()
    mountain_pass(lattice_problem(12, POWER4), SolverConfig(), log=log)
    trace = log.traces["mountain_pass"]
    assert len(trace) <= 45


def test_mountain_pass_random_graphs_do_not_stall(deform_only):
    rng = np.random.default_rng(11)
    config = SolverConfig()
    for _ in range(40):
        graph = random_connected_graph(rng, n_min=5, n_max=25)
        part = random_partition(rng, graph)
        problem = Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=POWER4, h0=1.0)
        log = RunLog()
        sol = mountain_pass(problem, config, log=log)
        trace = log.traces["mountain_pass"]
        assert trace[-1][1] <= config.deform_tol
        assert sol.residual_max <= graphpde.solver.NEWTON_TOL


def test_newton_refuses_a_singular_jacobian(monkeypatch, deform_only):
    original = graphpde.solver._band_solver
    calls = []

    def fail_first_newton(band):
        calls.append(band_matrix(band))
        if len(calls) == 2:  # calls[0] is P, factored once at the deformation's first move
            raise np.linalg.LinAlgError("singular matrix")
        return original(band)

    monkeypatch.setattr(graphpde.solver, "_band_solver", fail_first_newton)
    problem = lattice_problem(5, POWER4)
    with pytest.raises(SolverError, match="^Newton's Jacobian is singular at step 0$"):
        mountain_pass(problem, SolverConfig())
    assert np.allclose(calls[0], _p_matrix(problem), rtol=1e-14, atol=0.0)
    assert len(calls) == 2  # no second factor of the same step


def test_newton_refuses_a_non_finite_step(monkeypatch):
    monkeypatch.setattr(graphpde.solver, "_band_solver", lambda band: lambda y: y * np.nan)
    with pytest.raises(SolverError, match="^Newton step 0 is not finite$"):
        _newton_polish(three_path_problem(POWER4), np.array([1.4]))


def test_newton_failure_refuses_the_handoff(monkeypatch):
    # a singular Jacobian, at a step or at the converged point, is a refusal
    problem = three_path_problem(POWER4)
    start = np.array([1.4])
    assert graphpde.solver._newton_handoff(problem, start, 3.0) is not None
    original = graphpde.solver._band_solver
    for fail_at in (1, 4):  # the first step's factor; the index factor after 3 steps
        factors = []

        def singular(band, fail_at=fail_at):
            factors.append(band.shape)
            if len(factors) == fail_at:
                raise np.linalg.LinAlgError("singular matrix")
            return original(band)

        monkeypatch.setattr(graphpde.solver, "_band_solver", singular)
        assert graphpde.solver._newton_handoff(problem, start, 3.0) is None
        assert len(factors) == fail_at


def test_newton_divergence_is_refused(monkeypatch):
    # a unit step up from 1.4 moves away from the root sqrt(2): |2u - u^3| rises each step
    monkeypatch.setattr(graphpde.solver, "_band_solver", lambda band: np.ones_like)
    with pytest.raises(SolverError, match="^Newton refinement diverged: the residual rose five "):
        _newton_polish(three_path_problem(POWER4), np.array([1.4]))


def test_newton_needs_no_dense_solve(monkeypatch):
    # the indefinite Jacobian at the saddle goes through the band factor
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    sol = mountain_pass(lattice_problem(12, POWER4), SolverConfig())
    assert sol.residual_max <= graphpde.solver.NEWTON_TOL


def test_lattice40_allocates_no_dense_interior_matrix():
    # 1444 interior unknowns: one n x n array of floats takes 15.9 MiB
    problem = lattice_problem(40, POWER4)
    graph, part = problem.graph, problem.partition
    for run, mib in (
        (lambda: first_eigenvalue(graph, part), 4),
        (lambda: mountain_pass(problem, SolverConfig()), 8),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20


def test_newton_jacobian_matches_the_assembled_form(monkeypatch, rng):
    original = graphpde.solver._band_solver
    jacobians, points = [], []

    def record_factor(band):
        jacobians.append(band_matrix(band))
        return original(band)

    def record_derivative(nl, u):
        points.append(np.array(u, copy=True))
        return reaction_derivative(nl, u)

    checked = 0
    for _ in range(10):
        graph = random_connected_graph(rng, n_min=6, n_max=20)
        part = random_partition(rng, graph)
        problem = Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=POWER4, h0=1.0)
        config = SolverConfig()
        start = mountain_pass(problem, config).u
        start[part.omega] *= 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, size=part.omega.size)
        jacobians.clear()
        points.clear()
        with monkeypatch.context() as m:
            m.setattr(graphpde.solver, "_band_solver", record_factor)
            m.setattr(graphpde.solver, "reaction_derivative", record_derivative)
            _newton_polish(problem, start[part.omega])
        assert len(jacobians) == len(points) >= 1
        lmat = band_matrix(_interior_matrix(problem._form))
        mu = graph.measure[part.omega]
        for jac, u_omega in zip(jacobians, points):
            fu = reaction_derivative(problem.nl, u_omega)
            assert np.array_equal(jac, lmat + np.diag(mu * (problem.h[part.omega] - fu)))
            checked += 1
    assert checked >= 10


def test_solutions_have_the_expected_morse_index(deform_only):
    rng = np.random.default_rng(7)
    tolerance_exits = 0
    for _ in range(12):
        graph = random_connected_graph(rng, n_min=5, n_max=25)
        part = random_partition(rng, graph)
        h = np.ones(graph.n)
        config = SolverConfig()
        log = RunLog()
        pass_problem = Problem(graph=graph, partition=part, h=h, nl=POWER4, h0=1.0)
        sol = mountain_pass(pass_problem, config, log=log)
        trace = log.traces["mountain_pass"]
        if trace[-1][1] <= config.deform_tol:
            tolerance_exits += 1
            assert morse_index(pass_problem, sol.u) == 1
        ball_problem = Problem(
            graph=graph, partition=part, h=h, nl=power_plus_const(4, 0.01), h0=1.0
        )
        ball = ball_minimize(ball_problem, SolverConfig(rho=1.0))
        assert ball.kind == "ball_min"
        assert morse_index(ball_problem, ball.u) == 0
    assert tolerance_exits >= 6


def test_ball_minimize_accepts_only_interior_minima():
    # the first 40 graphs of seed 11, derived and given measures in turn,
    # x four reaction terms x three radii; the counts are those of the
    # projected descent this minimizer replaced, which agreed case by case
    rng = np.random.default_rng(11)
    families = (power_plus_const(4, 0.01), power_plus_const(4, 0.3),
                power_plus_const(3, -0.05), odd_poly({1: 0.02, 3: 1}))
    kinds = {"ball_min": 0, "trivial": 0, "refused": 0}
    for i in range(40):
        graph = random_connected_graph(rng, 5, 25, measure_mode=("derived", "given")[i % 2])
        part = random_partition(rng, graph)
        for nl in families:
            problem = Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=nl, h0=1.0)
            for rho in (0.1, 1.0, 10.0):
                try:
                    sol = ball_minimize(problem, SolverConfig(rho=rho, verify_hypotheses=False))
                except SolverError as exc:
                    assert str(exc).startswith("no interior minimizer found: ")
                    kinds["refused"] += 1
                    continue
                kinds[sol.kind] += 1
                assert morse_index(problem, sol.u) == 0
                assert sol.residual_max <= graphpde.solver.NEWTON_TOL
                assert sol.h_norm < math.sqrt(rho) and sol.in_ball
    assert kinds == {"ball_min": 258, "trivial": 120, "refused": 102}


def test_mountain_pass_profile_reports_arc_positions(deform_only):
    log = RunLog()
    mountain_pass(lattice_problem(12, POWER4), log=log)
    profile = log.profile
    for _, positions, _ in profile:
        assert positions[0] == 0.0 and positions[-1] == 1.0
        assert np.all(np.diff(positions) > 0.0)
    # the last path was resampled about its maximizer: uniform on each side
    _, positions, values = profile[-1]
    i = int(np.argmax(values))
    right = len(positions) - 1 - i
    assert np.allclose(np.diff(positions[: i + 1]), positions[i] / i, rtol=1e-9)
    assert np.allclose(np.diff(positions[i:]), (1.0 - positions[i]) / right, rtol=1e-9)
    assert not np.allclose(positions, np.linspace(0.0, 1.0, len(positions)))


def _deformed(problem, config=None):
    """mountain_pass with the hand-off refused: (solution, log)."""
    log = RunLog()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(graphpde.solver, "_newton_handoff", lambda *args: None)
        sol = mountain_pass(problem, config or SolverConfig(), log=log)
    return sol, log


def _never_factor_p(problem):
    raise AssertionError("P factored")


def test_mountain_pass_hands_off_to_newton_on_the_lattice(monkeypatch):
    problem = lattice_problem(12, POWER4)
    deformed, full = _deformed(problem)
    assert full.stops["mountain_pass"] == "tolerance"
    assert len(full.traces["mountain_pass"]) > 20
    monkeypatch.setattr(graphpde.solver, "_sobolev_direction", _never_factor_p)
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(), log=log)
    assert log.stops["mountain_pass"] == "newton_handoff"
    assert log.traces["mountain_pass"] == full.traces["mountain_pass"][:1]
    # the profile holds the initial path alone
    assert [snap for snap, _, _ in log.profile] == [0]
    assert np.allclose(log.profile[0][1], np.linspace(0.0, 1.0, graphpde.solver.PATH_POINTS))
    assert float(np.max(np.abs(sol.u - deformed.u))) <= 1e-15
    assert sol.energy_value == pytest.approx(deformed.energy_value, rel=1e-14)
    assert sol.residual_max <= graphpde.solver.NEWTON_TOL
    assert morse_index(problem, sol.u) == 1


def test_lattice_handoff_factors_its_jacobians_without_eigh(monkeypatch):
    # each Newton Jacobian of the hand-off has one row that is not
    # diagonally dominant, the spike's unknown 0: the band factor takes a
    # 1x1 pivot there, and its -1s still count the negative eigenvalues
    problem = lattice_problem(12, POWER4)
    eigh, band_solver = np.linalg.eigh, graphpde.solver._band_solver
    calls, factors = [], []

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    def recorded(band):
        factors.append((band.copy(), band_solver(band)))
        return factors[-1][1]

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(graphpde.solver, "_band_solver", recorded)
    monkeypatch.setattr(graphpde.solver, "_sobolev_direction", _never_factor_p)
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False), log=log)
    assert log.stops["mountain_pass"] == "newton_handoff"
    assert calls == [] and len(factors) == 5
    for band, solve in factors:
        assert solve.negatives == int(np.sum(np.linalg.eigvalsh(band_matrix(band)) < 0.0))
    assert factors[-1][1].negatives == morse_index(problem, sol.u) == 1


def _corpus_s10rand2():
    """perfbench.corpus.random_graph(default_rng(10)), third draw: the
    corpus generator and the tests' random_connected_graph with
    random_partition take the same draws in the same order."""
    rng = np.random.default_rng(10)
    for _ in range(3):
        graph = random_connected_graph(rng)
        part = random_partition(rng, graph)
    return Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=POWER4, h0=1.0)


def test_handoff_refuses_a_point_of_index_two(monkeypatch):
    # with the convergence monitor off, Newton from the initial maximum
    # converges below the level, to a point of Morse index 2; the index
    # gate alone refuses it, and the deformation runs as without a hand-off
    problem = _corpus_s10rand2()
    assert problem.partition.omega.size == 40
    deformed, full = _deformed(problem)
    monkeypatch.setattr(graphpde.solver, "NEWTON_CUT", math.inf)
    monkeypatch.setattr(graphpde.solver, "NEWTON_TRY", graphpde.solver.NEWTON_MAX)
    attempts = []
    polish = graphpde.solver._newton_polish

    def recorded(problem, u0, attempt=False):
        out = polish(problem, u0, attempt)
        if attempt:
            attempts.append(out)
        return out

    monkeypatch.setattr(graphpde.solver, "_newton_polish", recorded)
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(), log=log)
    [(u_omega, res_max, index)] = attempts
    u = np.zeros(problem.graph.n)
    u[problem.partition.omega] = u_omega
    assert res_max <= graphpde.solver.NEWTON_TOL and float(np.max(np.abs(u))) > 1.0
    assert index == morse_index(problem, u) == 2
    assert energy(problem, u) <= log.traces["mountain_pass"][0][0]
    assert log.stops == full.stops == {"mountain_pass": "tolerance"}
    assert log.traces == full.traces
    assert np.array_equal(sol.u, deformed.u)
    assert morse_index(problem, sol.u) == 1


def test_handoff_refuses_a_point_above_the_level():
    # on path3 Newton from the initial maximum, at 1.4, reaches the saddle
    # sqrt(2) of energy 2; the 41 samples straddle it, so the level is lower
    problem = three_path_problem(POWER4)
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(), log=log)
    level = log.traces["mountain_pass"][0][0]
    assert log.stops["mountain_pass"] == "tolerance"
    assert level < sol.energy_value == pytest.approx(2.0, rel=1e-12)
    start = np.array([1.4])
    assert graphpde.solver._newton_handoff(problem, start, level) is None
    u, res_max = graphpde.solver._newton_handoff(problem, start, 2.0 + 1e-12)
    assert u[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert res_max <= graphpde.solver.NEWTON_TOL


def test_handoff_refuses_the_zero_function(monkeypatch):
    problem = three_path_problem(POWER4)
    for u, accepted in ((np.zeros(1), False), (np.full(1, 1e-9), True)):
        monkeypatch.setattr(
            graphpde.solver, "_newton_polish", lambda *args, u=u, **kwargs: (u, 0.0, 1)
        )
        assert (graphpde.solver._newton_handoff(problem, np.ones(1), 2.0) is not None) == accepted


def test_handoff_attempt_gives_up_after_two_factors(monkeypatch):
    # h = 0.01 spreads the solution over the whole lattice; Newton from the
    # initial maximum cuts the residual eightfold, then fivefold
    graph, part = lattice(12)
    problem = Problem(graph=graph, partition=part, h=np.full(graph.n, 0.01), nl=POWER4, h0=0.01)
    factors = []
    original = graphpde.solver._band_solver

    def counted(band):
        factors.append(band.shape)
        return original(band)

    monkeypatch.setattr(graphpde.solver, "_band_solver", counted)
    with monkeypatch.context() as m:
        m.setattr(graphpde.solver, "_sobolev_direction", _never_factor_p)
        with pytest.raises(AssertionError, match="P factored"):
            mountain_pass(problem, SolverConfig(verify_hypotheses=False))
    assert len(factors) == 2


def test_accepted_handoffs_have_index_one(monkeypatch):
    # every run that reaches the first move is cut there
    class Moved(Exception):
        pass

    def refuse(problem):
        raise Moved

    monkeypatch.setattr(graphpde.solver, "_sobolev_direction", refuse)
    handoffs = 0
    for seed in (11, 12):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            graph = random_connected_graph(rng, n_min=5, n_max=25)
            part = random_partition(rng, graph)
            problem = Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=POWER4, h0=1.0)
            log = RunLog()
            try:
                sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False), log=log)
            except Moved:
                continue
            assert log.stops["mountain_pass"] == "newton_handoff"
            assert morse_index(problem, sol.u) == 1
            handoffs += 1
    assert handoffs >= 150


def test_loops_record_why_they_stopped():
    cases = [
        (lattice_problem(12, POWER4), SolverConfig(), "newton_handoff"),
        (three_path_problem(POWER4), SolverConfig(), "tolerance"),
    ]
    for problem, config, stop in cases:
        log = RunLog()
        mountain_pass(problem, config, log=log)
        assert log.stops == {"mountain_pass": stop}
    log = RunLog()
    with pytest.raises(SolverError, match="endpoint"):
        mountain_pass(
            three_path_problem(power_plus_const(4, 10.0)),
            SolverConfig(verify_hypotheses=False), log=log,
        )
    assert log.stops == {"mountain_pass": "endpoint_maximum"}
    # the budget and a stall, on the loop itself
    _, log = _deformed(lattice_problem(12, POWER4), SolverConfig(deform_steps=3))
    assert log.stops == {"mountain_pass": "budget"}
    assert len(log.traces["mountain_pass"]) == 3
    rng = np.random.default_rng(12)
    for _ in range(96):
        graph = random_connected_graph(rng, n_min=5, n_max=25)
        part = random_partition(rng, graph)
    stalled = Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=POWER4, h0=1.0)
    log = RunLog()
    mountain_pass(stalled, SolverConfig(verify_hypotheses=False), log=log)
    assert log.stops == {"mountain_pass": "stall"}

    # the ball's Newton converges, inside the ball or not, or fails; the
    # deformation's budget and tolerance do not bound it
    ball = power_plus_const(4, 0.01)
    for problem, config, stop in (
        (lattice_problem(12, ball), SolverConfig(rho=1.0), "tolerance"),
        (lattice_problem(12, ball), SolverConfig(rho=1.0, deform_tol=1e-300), "tolerance"),
        (three_path_problem(PLUS_CONST), SolverConfig(rho=1.0, deform_steps=1), "tolerance"),
        (lattice_problem(12, PLUS_CONST), SolverConfig(rho=1.0), "tolerance"),
        (three_path_problem(power_plus_const(4, 10.0)), SolverConfig(rho=1.0), "newton_failed"),
    ):
        log = RunLog()
        try:
            ball_minimize(problem, config, log=log)
        except SolverError as exc:
            assert str(exc).startswith("no interior minimizer found: ")
        assert log.stops == {"ball_min": stop}


def test_newton_failure_names_the_budget_stop(monkeypatch):
    # the deformation spends its one iteration, then Newton from the
    # maximizer spends its one step: both budget exits in one run
    monkeypatch.setattr(graphpde.solver, "NEWTON_MAX", 1)
    log = RunLog()
    problem = three_path_problem(power(4, theta=4, M=1))
    with pytest.raises(SolverError) as err:
        mountain_pass(problem, SolverConfig(deform_steps=1), log=log)
    assert log.stops == {"mountain_pass": "budget"}
    message = str(err.value)
    assert message.startswith("path deformation spent its iteration budget at sampled level ")
    assert "stalled" not in message
    assert re.search(r"Newton refinement did not reach residual 1e-12 in 1 iterations "
                     r"\(residual [-+.0-9e]+\)$", message)
