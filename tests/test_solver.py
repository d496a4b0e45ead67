"""Mountain-pass search, ball minimization and the two-solution pipeline."""

import math
import re
import tracemalloc
import weakref

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
import graphpde.spectral
import graphpde.variational
from graphpde.calculus import _interior_matrix
from graphpde.nonlinearity import parse_nonlinearity, reaction_derivative
from graphpde.solver import _Gram, _newton_polish, _ray_peak
from util import (
    band_matrix,
    bisect,
    hessian,
    interior_matrix_loop,
    lattice,
    lattice_problem,
    morse_index,
    path_graph,
    random_connected_graph,
    random_dirichlet,
    random_partition,
    three_path_problem,
)

POWER4 = power(4, theta=4.0, M=1.0)
POWER3 = power(3, theta=3.0, M=1.0)
PLUS_CONST = power_plus_const(4, 0.1)

# residual of the one-interior-vertex problem with the plus-const term
SMALL_ROOT = bisect(lambda t: 2 * t - t**3 - 0.1, 0.0, 0.5)
LARGE_ROOT = bisect(lambda t: 2 * t - t**3 - 0.1, 1.0, 1.4)


@pytest.fixture
def descent_only(monkeypatch):
    """The mountain pass with every Newton attempt refused, so that the
    descent runs on inputs that would otherwise hand off or escape."""
    monkeypatch.setattr(graphpde.solver, "_newton_attempt", lambda *args: None)


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
    # the peak of the spike ray is the saddle itself, so Newton accepts
    # it at step 0 and the trace holds that one iterate
    assert log.stops == {"mountain_pass": "newton_handoff"}
    assert len(trace) == 1
    assert trace[0][0] == pytest.approx(sol.energy_value, rel=1e-14)
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


def test_mountain_pass_refuses_a_collapse_to_zero(monkeypatch, descent_only):
    # f(x, 0) = 0 makes 0 a critical point; Newton landing there isolates no pass
    monkeypatch.setattr(
        graphpde.solver, "_newton_polish",
        lambda problem, u0, at_u0, gram: (
            np.zeros_like(u0), 0.0, 0, (0.0, 0.0, np.zeros_like(u0))),
    )
    with pytest.raises(SolverError, match="^deformation collapsed to the zero function"):
        mountain_pass(three_path_problem(POWER4))


def test_mountain_pass_no_barrier():
    problem = three_path_problem(power_plus_const(4, 10.0))
    with pytest.raises(SolverError) as err:
        mountain_pass(problem, SolverConfig(verify_hypotheses=False))
    assert "endpoint" in str(err.value)


def test_mountain_pass_failure_keeps_its_trace_in_the_log(monkeypatch, descent_only):
    # three descent steps, then the final Newton spends its one iteration
    monkeypatch.setattr(graphpde.solver, "NEWTON_MAX", 1)
    log = RunLog()
    with pytest.raises(SolverError, match="^descent spent its iteration budget"):
        mountain_pass(lattice_problem(12, POWER4), SolverConfig(deform_steps=3), log=log)
    rows = log.traces["mountain_pass"]
    assert len(rows) == 3
    assert all(math.isfinite(a) and math.isfinite(b) for a, b in rows)
    assert all(b <= a for (a, _), (b, _) in zip(rows, rows[1:]))
    # without a barrier no iterate exists, and the trace is empty
    log = RunLog()
    with pytest.raises(SolverError, match="endpoint"):
        mountain_pass(
            three_path_problem(power_plus_const(4, 10.0)),
            SolverConfig(verify_hypotheses=False), log=log,
        )
    assert log.traces == {"mountain_pass": []}


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


def test_mountain_pass_loop_holds_interior_vectors_only(monkeypatch, descent_only):
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
    assert len(log.traces["mountain_pass"]) > 5
    assert len(checks) <= 2
    assert widths == {problem.partition.omega.size}
    assert sol.u.shape == (problem.graph.n,)


def test_ball_minimize_traces_one_row_per_newton_iterate():
    # Newton from 0 on lattice(40) converges outside the ball; the other
    # two converge inside it.  Each row is an iterate's (energy, |mu r|),
    # the first at 0, where mu r = -eps mu; chord steps add iterates
    for problem, rows, accepted in (
        (lattice_problem(40, PLUS_CONST), 5, False),
        (lattice_problem(12, power_plus_const(4, 0.01)), 4, True),
        (three_path_problem(PLUS_CONST), 6, True),
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
    def polish(problem, u0, attempt=False, trace=None, gram=None):
        u = np.full_like(u0, value)
        return u, 0.0, index, graphpde.solver._kernel(problem, u, residual=True)

    return polish


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
        lambda problem, config, log, gram: ball_minimize(problem, config, log=log, gram=gram),
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


def test_ball_minimize_newton_from_zero_converges_fast(monkeypatch):
    # Newton from 0 to the small root on one factor: every step after the
    # first cuts the residual at least a hundredfold and reuses it, and
    # the index 0 is read off the Hessian's diagonal
    made = _counted_factors(monkeypatch)
    log = RunLog()
    sol = ball_minimize(three_path_problem(PLUS_CONST), SolverConfig(rho=1.0), log=log)
    trace = log.traces["ball_min"]
    assert abs(sol.u[1] - SMALL_ROOT) <= 1e-8
    assert len(made) == 1 and len(trace) <= 6


def test_mountain_pass_lattice_exits_by_tolerance(descent_only):
    config = SolverConfig()
    log = RunLog()
    sol = mountain_pass(lattice_problem(12, POWER4), config, log=log)
    trace = log.traces["mountain_pass"]
    assert log.stops == {"mountain_pass": "tolerance"}
    assert trace[-1][1] <= config.deform_tol
    assert len(trace) <= 20
    assert all(b <= a for (a, _), (b, _) in zip(trace, trace[1:]))
    assert sol.residual_max <= graphpde.solver.NEWTON_TOL
    assert sol.morse_index == 1


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


def test_gram_factor_solves_the_h_gram_matrix(rng):
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
        d = _Gram(problem).solve()(g)
        expect = np.linalg.solve(_p_matrix(problem), g)
        assert np.allclose(d, expect, rtol=1e-10, atol=1e-12 * np.max(np.abs(expect)))
        assert d.shape == g.shape


def test_ray_peak_is_the_root_of_the_radial_derivative(rng):
    # power: the peak of t -> energy(t v) is t = (|v|_h^2 / sum mu |v|^p)^(1/(p-2));
    # plus-const: the larger of the two roots of the radial derivative
    for nl in (POWER4, POWER3, power(2.5), power(7)):
        problem = lattice_problem(5, nl)
        omega = problem.partition.omega
        for _ in range(10):
            v = random_dirichlet(rng, problem.graph, problem.partition)[omega]
            for scale in (1e-6, 1.0, 1e6):
                u, (quad, value, r) = _ray_peak(problem, scale * v)
                sq = float(v @ hessian(problem, np.zeros(problem.graph.n)) @ v)
                mass = float(problem._form.mu @ np.abs(v) ** nl.p)
                t = (sq / mass) ** (1.0 / (nl.p - 2.0))
                assert u == pytest.approx(t * v, rel=1e-12, abs=1e-12 * t * np.max(np.abs(v)))
                assert value == pytest.approx(energy(problem, problem._form.expand(u)), rel=1e-14)
                fresh = graphpde.variational._kernel(problem, u, residual=True)
                assert quad == fresh[0] and value == float(fresh[1])
                assert np.array_equal(r, fresh[2])
    problem = three_path_problem(PLUS_CONST)
    for v in (0.5, 1.0, 1.5):  # from below and from above the peak
        u, _ = _ray_peak(problem, np.array([v]))
        assert u[0] == pytest.approx(LARGE_ROOT, rel=1e-14)
    assert _ray_peak(three_path_problem(power_plus_const(4, 10.0)), np.array([1.0])) is None


def test_ray_peak_looks_above_one_when_halving_finds_no_rise():
    # on the ray of v = 0.01 at path3's unknown the slope of energy(t v),
    # 4e-4 t - 0.02 (1e-6 t^3 + 0.1), is negative from t = 1 down to 0; it
    # turns positive past t = 5 and falls through 0 again at the peak
    problem = three_path_problem(PLUS_CONST)
    u, (_, value, _) = _ray_peak(problem, np.array([0.01]))
    assert u[0] == pytest.approx(LARGE_ROOT, rel=1e-14)
    assert u[0] == pytest.approx(1.38851746, rel=1e-8)
    u1, (_, value1, _) = _ray_peak(problem, np.array([1.0]))
    assert u[0] == pytest.approx(u1[0], rel=1e-14)
    assert value == pytest.approx(value1, rel=1e-14)


def test_mountain_pass_lattice_takes_few_iterations():
    log = RunLog()
    mountain_pass(lattice_problem(12, POWER4), SolverConfig(), log=log)
    trace = log.traces["mountain_pass"]
    assert len(trace) <= 45


def test_mountain_pass_random_graphs_end_at_index_one():
    rng = np.random.default_rng(11)
    for _ in range(40):
        graph = random_connected_graph(rng, n_min=5, n_max=25)
        part = random_partition(rng, graph)
        problem = Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=POWER4, h0=1.0)
        log = RunLog()
        sol = mountain_pass(problem, SolverConfig(), log=log)
        assert log.stops == {"mountain_pass": "newton_handoff"}
        assert sol.residual_max <= graphpde.solver.NEWTON_TOL
        assert sol.morse_index == morse_index(problem, sol.u) == 1


def test_newton_refuses_a_singular_jacobian(monkeypatch, descent_only):
    # Newton from the descent's last iterate, with the descent's P shared
    # and its capacitance singular: step 0 factors J(u), and that one
    # singular too ends the solve
    original, newton = graphpde.solver._band_solver, graphpde.solver._newton_polish
    calls, starts = [], []

    def fail_newton(band):
        calls.append(band_matrix(band))
        if len(calls) > 1:  # calls[0] is P, factored once at the descent's first step
            raise np.linalg.LinAlgError("singular matrix")
        return original(band)

    def singular(a):
        raise np.linalg.LinAlgError("singular matrix")

    def recorded(problem, u0, **kwargs):
        starts.append(u0.copy())
        return newton(problem, u0, **kwargs)

    monkeypatch.setattr(graphpde.solver, "_band_solver", fail_newton)
    monkeypatch.setattr(np.linalg, "inv", singular)
    monkeypatch.setattr(graphpde.solver, "_newton_polish", recorded)
    problem = lattice_problem(5, POWER4)
    with pytest.raises(SolverError, match="^Newton's Jacobian is singular at step 0$"):
        mountain_pass(problem, SolverConfig())
    assert np.allclose(calls[0], _p_matrix(problem), rtol=1e-14, atol=0.0)
    [start] = starts
    assert np.allclose(calls[1], hessian(problem, problem._form.expand(start)),
                       rtol=1e-14, atol=0.0)
    assert len(calls) == 2  # P, then J(u) at step 0, and no second factor of that step


def test_descent_refuses_a_singular_metric(monkeypatch, descent_only):
    # P is positive definite on every admissible problem; a factor that
    # fails anyway ends the descent with a SolverError that names P
    def singular(band):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(graphpde.solver, "_band_solver", singular)
    with pytest.raises(SolverError, match=r"^the Sobolev metric P = L \+ diag\(mu \|h\|\) "
                                          r"is singular$"):
        mountain_pass(lattice_problem(5, POWER4), SolverConfig())


def test_newton_refuses_a_non_finite_step(monkeypatch):
    monkeypatch.setattr(graphpde.solver, "_band_solver", lambda band: lambda y: y * np.nan)
    with pytest.raises(SolverError, match="^Newton step 0 is not finite$"):
        _newton_polish(three_path_problem(POWER4), np.array([1.4]))


def test_newton_failure_refuses_the_attempt(monkeypatch):
    # a singular Jacobian, at a step or at the converged point, is a
    # refusal; on the split path two entries of the Hessian's diagonal are
    # in doubt at the root, so its index takes a factor
    problem = _split_path_problem()
    start = np.array([1.4, 0.0])
    assert graphpde.solver._newton_attempt(problem, start) is not None
    original = graphpde.solver._band_solver
    # P and then J(u) at step 0; the index factor after exact rank-2
    # updates of P (d's entry of J(u) - P is |mu h| - mu h) at every step
    for failing in ({1, 2}, {2}):
        factors = []

        def singular(band, failing=failing):
            factors.append(band.shape)
            if len(factors) in failing:
                raise np.linalg.LinAlgError("singular matrix")
            return original(band)

        monkeypatch.setattr(graphpde.solver, "_band_solver", singular)
        assert graphpde.solver._newton_attempt(problem, start) is None
        assert len(factors) == 2


def test_newton_divergence_is_refused(monkeypatch):
    # a unit step up from 1.4 moves away from the root sqrt(2): |2u - u^3| rises each
    # step, until the iteration budget or a non-finite step ends the run
    monkeypatch.setattr(graphpde.solver, "_band_solver", lambda band: np.ones_like)
    refused = r"^Newton (refinement did not reach residual|step \d+ is not finite)"
    with pytest.raises(SolverError, match=refused):
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
    # P, the run's first factor, is the assembled form at the zero
    # function, h = 1; with the low-rank update refused, every factor is J(u) at
    # the point of the derivative call just before it
    original = graphpde.solver._band_solver
    jacobians, points = [], []

    def record_factor(band):  # with the point of the derivative call just before it
        jacobians.append((band_matrix(band), points[-1]))
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
        lmat = band_matrix(_interior_matrix(problem._form))
        mu = graph.measure[part.omega]
        for updates in (True, False):
            jacobians.clear()
            points.clear()
            with monkeypatch.context() as m:
                m.setattr(graphpde.solver, "_band_solver", record_factor)
                m.setattr(graphpde.solver, "reaction_derivative", record_derivative)
                if not updates:
                    m.setattr(graphpde.solver, "_updated_solve", lambda gram, fu: None)
                _newton_polish(problem, start[part.omega])
            assert len(points) >= len(jacobians) >= 1
            if updates:
                jacobians[0] = (jacobians[0][0], np.zeros(part.omega.size))
            assert len({id(u_omega) for _, u_omega in jacobians}) == len(jacobians)
            for jac, u_omega in jacobians:
                fu = reaction_derivative(problem.nl, u_omega)
                assert np.array_equal(jac, lmat + np.diag(mu * (problem.h[part.omega] - fu)))
                checked += 1
    assert checked >= 20


def test_solutions_have_the_expected_morse_index():
    # the index a solution reports is the count of the dense eigenvalues
    rng = np.random.default_rng(7)
    for _ in range(12):
        graph = random_connected_graph(rng, n_min=5, n_max=25)
        part = random_partition(rng, graph)
        h = np.ones(graph.n)
        pass_problem = Problem(graph=graph, partition=part, h=h, nl=POWER4, h0=1.0)
        sol = mountain_pass(pass_problem, SolverConfig())
        assert sol.morse_index == morse_index(pass_problem, sol.u) == 1
        ball_problem = Problem(
            graph=graph, partition=part, h=h, nl=power_plus_const(4, 0.01), h0=1.0
        )
        ball = ball_minimize(ball_problem, SolverConfig(rho=1.0))
        assert ball.kind == "ball_min"
        assert ball.morse_index == morse_index(ball_problem, ball.u) == 0
    trivial = ball_minimize(three_path_problem(POWER4), SolverConfig(rho=1.0))
    assert trivial.kind == "trivial" and trivial.morse_index == 0


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


def _descended(problem, config=None):
    """mountain_pass with every Newton attempt refused: (solution, log)."""
    log = RunLog()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(graphpde.solver, "_newton_attempt", lambda *args: None)
        sol = mountain_pass(problem, config or SolverConfig(), log=log)
    return sol, log


def test_mountain_pass_hands_off_to_newton_on_the_lattice(monkeypatch):
    problem = lattice_problem(12, POWER4)
    descended, full = _descended(problem)
    assert full.stops["mountain_pass"] == "tolerance"
    assert len(full.traces["mountain_pass"]) > 5
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(), log=log)
    assert log.stops["mountain_pass"] == "newton_handoff"
    assert log.traces["mountain_pass"] == full.traces["mountain_pass"][:1]
    assert float(np.max(np.abs(sol.u - descended.u))) <= 1e-15
    assert sol.energy_value == pytest.approx(descended.energy_value, rel=1e-14)
    assert sol.residual_max <= graphpde.solver.NEWTON_TOL
    assert morse_index(problem, sol.u) == 1


def test_lattice_handoff_factors_its_jacobians_without_eigh(monkeypatch):
    # the hand-off's one factor is P = L + diag(mu h), positive definite
    # and the Hessian at the zero function; its steps solve with low-rank
    # updates of it, and no eigh runs
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
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False), log=log)
    assert log.stops["mountain_pass"] == "newton_handoff"
    assert len(log.traces["mountain_pass"]) == 1
    # the index at the returned point is read off the Hessian's diagonal
    assert calls == [] and len(factors) == 1
    [(band, solve)] = factors
    assert np.array_equal(band_matrix(band), hessian(problem, np.zeros(problem.graph.n)))
    assert solve.negatives == int(np.sum(np.linalg.eigvalsh(band_matrix(band)) < 0.0)) == 0
    assert sol.morse_index == morse_index(problem, sol.u) == 1


def _counted_factors(monkeypatch, step=None):
    """Wrap solver._band_solver: returns a list that receives, per factor
    made, [solves so far, live factors made before it]; step(solve, y)
    may stand in for a factor's solves after its first."""
    band_solver, made, refs = graphpde.solver._band_solver, [], []

    def counted(band):
        solve = band_solver(band)
        row = [0, sum(ref() is not None for ref in refs)]
        made.append(row)

        def wrapped(y):
            row[0] += 1
            return solve(y) if step is None or row[0] == 1 else step(solve, y)

        wrapped.negatives = solve.negatives
        refs.append(weakref.ref(wrapped))
        return wrapped

    monkeypatch.setattr(graphpde.solver, "_band_solver", counted)
    return made


def _newton_operators(monkeypatch, step=None):
    """Wrap what Newton's steps solve with: returns a list that receives,
    in order, ["P"] when the shared P = L + diag(mu |h|) is factored and,
    per operator a fresh step makes, [kind, solves so far]: kind "update
    <rank>" for a low-rank update of P (its rank the columns of its solve
    with P), with " approximate" where it drops entries of J(u) - P, or
    "factor" for a band factor of J(u).  step(solve, y) may stand in for
    an operator's solves after its first."""
    solver = graphpde.solver
    updated_solve, band_solver = solver._updated_solve, solver._band_solver
    gram_solve = solver._Gram.solve
    made, ranks, in_gram = [], [], []

    def wrapped(solve, row):
        def counted(y):
            row[1] += 1
            return solve(y) if step is None or row[1] == 1 else step(solve, y)
        return counted

    def gram(self):
        in_gram.append(self)
        try:
            solve = gram_solve(self)
        finally:
            in_gram.pop()

        def ranked(y):
            ranks.append(y.shape[1] if y.ndim == 2 else 0)
            return solve(y)

        return solve and ranked

    def updated(gram, fu):
        ranks.clear()
        found = updated_solve(gram, fu)
        if found is None:
            return None
        row = [f"update {max(ranks, default=0)}" + " approximate" * found[1], 0]
        made.append(row)
        return wrapped(found[0], row), found[1]

    def factored(band):
        solve = band_solver(band)
        if in_gram:
            made.append(["P"])
            return solve
        row = ["factor", 0]
        made.append(row)
        counted = wrapped(solve, row)
        counted.negatives = solve.negatives
        return counted

    monkeypatch.setattr(solver, "_updated_solve", updated)
    monkeypatch.setattr(solver, "_band_solver", factored)
    monkeypatch.setattr(solver._Gram, "solve", gram)
    return made


@pytest.mark.parametrize("k", [12, 30])
def test_lattice_handoff_takes_a_chord_step(monkeypatch, k):
    # residuals 3.5e-1, 6.1e-3, 5.9e-6, 1.3e-8, 3.5e-11, 9.0e-14, 4.4e-16,
    # as with J(u) itself: P = J(0) is the only factor.  Step 1 is Newton's
    # by a rank-1 update of P (at the spike's ray only the spike's entry of
    # J(u) - P is nonzero); step 2 updates P on the four entries above
    # NEWTON_CUT^3 of its diagonal and drops the rest, and from there each
    # step cuts a hundredfold or more, so steps three to five reuse it, and
    # with that approximate Jacobian so does the step past 1e-12, which
    # lands at the residual's rounding.  No factor follows: one diagonal
    # entry of the Hessian, the spike's, is in doubt, and the curvature
    # u^T H u < 0
    problem = lattice_problem(k, POWER4)
    made = _newton_operators(monkeypatch)
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False), log=log)
    assert log.stops["mountain_pass"] == "newton_handoff"
    assert len(log.traces["mountain_pass"]) == 1
    assert made == [["P"], ["update 1", 1], ["update 4 approximate", 5]]
    assert sol.residual_max < 1e-15 and sol.morse_index == 1


def test_ball_run_solves_every_step_on_one_factor(monkeypatch):
    # path3's residuals 1e-1, 1.3e-4, 4.7e-7, 1.8e-9, 6.6e-12, 2.5e-14
    # fall at least a hundredfold a step: five steps on the first factor;
    # 2.5e-14 predicts no chord residual at rounding, so no sixth step,
    # and the index 0 needs no factor: mu (h - f_u) > 0 at the root
    made = _counted_factors(monkeypatch)
    log = RunLog()
    ball_minimize(three_path_problem(PLUS_CONST), SolverConfig(rho=1.0), log=log)
    assert made == [[5, 0]] and len(log.traces["ball_min"]) == 6


def test_approximate_steps_stop_at_the_rounding_level(monkeypatch):
    # s3rand0 of the p = 4 corpus, 4 unknowns: residuals 4.6e-1, 1.3e-2,
    # 3.4e-5, 1.8e-7, 9.7e-10, 5.2e-12, 2.8e-14 and 1.6e-16 after a rank-1
    # and a rank-3 update that drops an entry.  Each step on the
    # approximate Jacobian cuts a hundredfold or more; the last lands at
    # the residual's rounding level, 6.1e-16, and no step follows it
    problem = _corpus_problem(3, 0)
    made = _newton_operators(monkeypatch)
    sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False))
    assert made == [["P"], ["update 1", 1], ["update 3 approximate", 6]]
    u = sol.u[problem.partition.omega]
    r = graphpde.variational._kernel(problem, u, residual=True)[2]
    assert sol.residual_max <= graphpde.solver._rounding_level(problem, u, r)


def test_chord_step_that_misses_refactors(monkeypatch):
    # a chord step that goes only half way cuts the residual twofold, not
    # NEWTON_CUT's tenfold; the attempt goes on with a fresh factor of J(u)
    # and still hands off at descent step 0.  Both chord steps, from 5.9e-6
    # on the approximate update and from 2.5e-12 on the factor, fall short
    # so
    problem = lattice_problem(12, POWER4)
    made = _newton_operators(monkeypatch, step=lambda solve, y: 0.5 * solve(y))
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False), log=log)
    assert log.stops["mountain_pass"] == "newton_handoff"
    assert len(log.traces["mountain_pass"]) == 1
    assert made == [["P"], ["update 1", 1], ["update 4 approximate", 2], ["factor", 2],
                    ["factor", 1]]
    assert sol.residual_max <= graphpde.solver.NEWTON_TOL and sol.morse_index == 1


def test_chord_step_that_misses_the_squared_cut_refactors(monkeypatch):
    # a chord step at 95% cuts 5.9e-6 to 3.1e-7, within NEWTON_CUT but
    # short of its square: the next step factors J(u) afresh, and the
    # attempt neither gives up nor reuses the update again
    problem = lattice_problem(12, POWER4)
    made = _newton_operators(monkeypatch, step=lambda solve, y: 0.95 * solve(y))
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False), log=log)
    assert log.stops["mountain_pass"] == "newton_handoff"
    assert len(log.traces["mountain_pass"]) == 1
    assert made == [["P"], ["update 1", 1], ["update 4 approximate", 2], ["factor", 1]]
    assert sol.residual_max <= graphpde.solver.NEWTON_TOL and sol.morse_index == 1


def test_newton_takes_one_finishing_chord_step(monkeypatch):
    # path3 from 1.4: residuals 5.6e-2, 8.8e-4, 2.0e-7, 9.5e-11, 4.4e-14
    # and 4.4e-16.  Each fresh step is Newton's, a rank-1 update of P.
    # 4.4e-14 is below NEWTON_TOL after a chord step, and its cut predicts
    # a residual below rounding, so one more chord step lands there; none
    # follows it, and the index takes no factor
    made = _newton_operators(monkeypatch)
    trace = []
    u, res_max, index, _ = _newton_polish(three_path_problem(POWER4), np.array([1.4]),
                                          trace=trace)
    assert made == [["P"], ["update 1", 1], ["update 1", 4]] and len(trace) == 6
    assert res_max < 1e-15 and u[0] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert index == 1


def _updated_case(problem, u):
    """(P = L + diag(mu |h|) as a dense matrix, delta = |mu h| - mu h +
    mu f_u(u), the entries K of delta that _updated_solve keeps, its
    result) at interior u."""
    gram, fu = _Gram(problem), reaction_derivative(problem.nl, u)
    mu_h = problem._form.mu * problem.h[problem.partition.omega]
    delta = np.abs(mu_h) - mu_h + problem._form.mu * fu
    keep = np.abs(delta) > graphpde.solver.NEWTON_CUT**3 * np.abs(gram.diag)
    return _p_matrix(problem), delta, keep, graphpde.solver._updated_solve(gram, fu)


def test_low_rank_update_solves_p_updated_on_its_entries(rng):
    # near grid12's mountain-pass point and on random graphs, with h = 1
    # and with h of both signs, against a dense solve of P - diag(delta on
    # K): K holds the spike, its two neighbours and their common neighbour
    # on the lattice, and drops entries J(u) - P does have; on the random
    # graphs K holds every entry, and the update is J(u) itself
    problem = lattice_problem(12, POWER4)
    start = mountain_pass(problem, SolverConfig(verify_hypotheses=False)).u
    cases = [(problem, 1.001 * start[problem.partition.omega], 4)]
    for mixed in (False, True):
        graph = random_connected_graph(rng, n_min=15, n_max=25)
        part = random_partition(rng, graph)
        h = rng.uniform(-2.0, 2.0, size=graph.n) if mixed else np.ones(graph.n)
        assert np.any(h[part.omega] < 0.0) == mixed
        cases.append((Problem(graph=graph, partition=part, h=h, nl=POWER4),
                      rng.uniform(0.5, 2.0, size=part.omega.size), part.omega.size))
    for problem, u, rank in cases:
        p, delta, keep, (solve, approximate) = _updated_case(problem, u)
        assert np.count_nonzero(keep) == rank and approximate == (rank < len(u))
        b = rng.standard_normal(len(u))
        dense = np.linalg.solve(p - np.diag(np.where(keep, delta, 0.0)), b)
        assert np.linalg.norm(solve(b) - dense) <= 1e-12 * np.linalg.norm(dense)
        exact = np.linalg.solve(hessian(problem, problem._form.expand(u)), b)
        if approximate:  # what it drops moves the solve
            assert np.linalg.norm(solve(b) - exact) > 1e-6 * np.linalg.norm(exact)
        else:
            assert np.linalg.norm(solve(b) - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("k", [1, 12])
def test_low_rank_update_at_the_spike_is_newtons_step(rng, k):
    # at the spike's ray peak one entry of J(u) - P is nonzero: the
    # update keeps it and solves with the exact Jacobian
    problem = three_path_problem(POWER4) if k == 1 else lattice_problem(k, POWER4)
    u, _ = _ray_peak(problem, build_spike_endpoint(problem)[problem.partition.omega])
    _, delta, keep, (solve, approximate) = _updated_case(problem, u)
    assert np.count_nonzero(delta) == np.count_nonzero(keep) == 1 and not approximate
    b = rng.standard_normal(len(u))
    exact = np.linalg.solve(hessian(problem, problem._form.expand(u)), b)
    assert np.linalg.norm(solve(b) - exact) <= 1e-12 * np.linalg.norm(exact)


def test_low_rank_update_without_entries_solves_with_p():
    # at the zero function with h = 1 and f_u(0) = 0, J(u) = P: the update
    # is P's own solve, exact
    problem = lattice_problem(12, PLUS_CONST)
    gram = _Gram(problem)
    solve, approximate = graphpde.solver._updated_solve(gram, np.zeros(100))
    assert solve is gram.solve() and not approximate


def test_spread_update_factors_j_of_u():
    # on grid12 with h = 0.01 the solution spreads over the lattice: more
    # than _BLOCK entries of J(u) - P count, and the update is refused
    graph, part = lattice(12)
    problem = Problem(graph=graph, partition=part, h=np.full(graph.n, 0.01), nl=POWER4)
    _, _, keep, found = _updated_case(problem, np.full(100, 0.5))
    assert np.count_nonzero(keep) > graphpde.solver._BLOCK and found is None


@pytest.mark.parametrize("fails", ["P", "capacitance"])
def test_singular_gram_factor_falls_back_to_factors(monkeypatch, fails):
    # a singular P, asked for once, or a singular capacitance: every
    # fresh step factors J(u), as without the update, and the hand-off
    # still converges at index 1
    problem = lattice_problem(12, POWER4)
    p = _p_matrix(problem)
    band_solver, factors = graphpde.solver._band_solver, []

    def singular_p(band):
        factors.append(np.array_equal(band_matrix(band), p))
        if factors[-1] and fails == "P":
            raise np.linalg.LinAlgError("singular matrix")
        return band_solver(band)

    def singular(a):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(graphpde.solver, "_band_solver", singular_p)
    if fails == "capacitance":
        monkeypatch.setattr(np.linalg, "inv", singular)
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False), log=log)
    assert log.stops["mountain_pass"] == "newton_handoff"
    assert len(log.traces["mountain_pass"]) == 1
    assert factors == [True, False, False]
    assert sol.residual_max <= graphpde.solver.NEWTON_TOL
    assert sol.morse_index == morse_index(problem, sol.u) == 1


@pytest.mark.parametrize("bumps, index", [([0], 2), ([9], 2), ([0, 99], 3)])
def test_index_is_never_read_off_an_approximate_jacobian(monkeypatch, bumps, index):
    # h = -3 at one interior vertex of grid12 makes the Hessian at the
    # zero function indefinite, with one negative eigenvalue.  Newton from
    # bumps of 1.5 away from it converges to a point whose Hessian has
    # more: steps solve with low-rank updates of P, and the index comes
    # from a factor of the Hessian
    graph, part = lattice(12)
    h = np.ones(graph.n)
    h[part.omega[45]] = -3.0
    problem = Problem(graph=graph, partition=part, h=h, nl=POWER4)
    made = _newton_operators(monkeypatch)
    start = np.zeros(part.omega.size)
    start[bumps] = 1.5
    u, res_max, found, _ = _newton_polish(problem, start)
    assert res_max <= graphpde.solver.NEWTON_TOL and made[0] == ["P"]
    assert any(row[0].startswith("update") for row in made) and made[-1] == ["factor", 0]
    assert int(np.sum(np.linalg.eigvalsh(hessian(problem, np.zeros(graph.n))) < 0.0)) == 1
    assert found == morse_index(problem, problem._form.expand(u)) == index


@pytest.mark.parametrize("case", ["two_solutions", "escape"])
def test_solvers_share_one_p_per_command(monkeypatch, case):
    # two_solutions factors P once for the ball's Newton and the mountain
    # pass's, and drops it before the eigen step factors L; a mountain
    # pass that escapes a point of index 2 factors it once for all its
    # Newton runs and its descent, and drops it on return
    gram_solve, newton = graphpde.solver._Gram.solve, graphpde.solver._newton_polish
    made, live, runs = [], [], []

    def counted(self):
        if not self._made:
            made.append(weakref.ref(self))
        return gram_solve(self)

    def counted_newton(*args, **kwargs):
        runs.append(args[1])
        return newton(*args, **kwargs)

    eigen = graphpde.solver.first_eigenvalue

    def first_eigenvalue(*args, **kwargs):
        live.extend(ref() is not None for ref in made)
        return eigen(*args, **kwargs)

    monkeypatch.setattr(graphpde.solver._Gram, "solve", counted)
    monkeypatch.setattr(graphpde.solver, "_newton_polish", counted_newton)
    monkeypatch.setattr(graphpde.solver, "first_eigenvalue", first_eigenvalue)
    if case == "two_solutions":
        two_solutions(lattice_problem(12, power_plus_const(4, 0.01)), SolverConfig(m0=0.5))
    else:
        mountain_pass(_corpus_problem(10, 3), SolverConfig(verify_hypotheses=False))
        live.extend(ref() is not None for ref in made)
    assert len(runs) >= 2 and len(made) == 1 and live == [False]


def test_descent_and_newton_share_one_factor(monkeypatch):
    # s12rand3 of the p = 4 corpus descends 26 steps before it hands off.
    # The descent's steps and every Newton run's updates solve with one
    # factor of P, definite; the rest factor J(u)
    problem = _corpus_problem(12, 3)
    band_solver, negatives = graphpde.solver._band_solver, []

    def recorded(band):
        solve = band_solver(band)
        negatives.append(solve.negatives)
        return solve

    monkeypatch.setattr(graphpde.solver, "_band_solver", recorded)
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False), log=log)
    assert log.stops["mountain_pass"] == "newton_handoff"
    assert len(log.traces["mountain_pass"]) == 26
    assert negatives == [0, 2, 2, 0]
    assert sol.morse_index == morse_index(problem, sol.u) == 1


def _split_path_problem():
    """The unit 5-path a-b-c-d-e with interior {b, d}, which no edge
    joins, power:p=4 and h = 1 but at d, where h = -1/2.  At its root
    (sqrt(2), 0) two entries of mu (h - f_u) are negative, b's and d's,
    and the Hessian diag(-8, 1) has Morse index 1."""
    graph = path_graph("abcde")
    h = np.array([1.0, 1.0, 1.0, -0.5, 1.0])
    return Problem(graph=graph, partition=compute_boundary(graph, ["b", "d"]), h=h, nl=POWER4)


@pytest.mark.parametrize("k", [1, 12])
def test_index_zero_is_read_off_the_diagonal_without_a_factor(monkeypatch, k):
    # at the zero function f_u = 0, so mu (h - f_u) = mu h > 0 for h = 1
    problem = three_path_problem(POWER4) if k == 1 else lattice_problem(k, POWER4)
    made = _counted_factors(monkeypatch)
    u, res_max, index, _ = _newton_polish(problem, np.zeros(problem.partition.omega.size))
    assert made == [] and res_max == 0.0
    assert index == morse_index(problem, problem._form.expand(u)) == 0


@pytest.mark.parametrize("low, index", [(-0.01, 0), (-0.5, 0), (-3.0, 3)])
def test_index_with_a_sign_changing_h_is_factored(monkeypatch, low, index):
    # h = low on three interior vertices of grid12, 1 elsewhere: the
    # diagonal bound is negative, so the Hessian L + diag(mu h) at the
    # zero function is factored, definite for a small dip and not for a
    # deep one
    graph, part = lattice(12)
    h = np.ones(graph.n)
    h[part.omega[[0, 45, 99]]] = low
    problem = Problem(graph=graph, partition=part, h=h, nl=POWER4)
    made = _counted_factors(monkeypatch)
    u, _, found, _ = _newton_polish(problem, np.zeros(part.omega.size))
    assert len(made) == 1
    assert found == morse_index(problem, problem._form.expand(u)) == index


def test_index_with_one_entry_in_doubt_and_no_curvature_is_factored(monkeypatch):
    # h = -0.01 at one interior vertex of grid12: at the zero function one
    # entry of mu (h - f_u) is negative and u^T H u = 0, so the diagonal
    # bounds the index by 0 and 1, and the factor finds L + diag(mu h) definite
    graph, part = lattice(12)
    h = np.ones(graph.n)
    h[part.omega[45]] = -0.01
    problem = Problem(graph=graph, partition=part, h=h, nl=POWER4)
    made = _counted_factors(monkeypatch)
    u, _, index, _ = _newton_polish(problem, np.zeros(part.omega.size))
    assert made == [[0, 0]]
    assert index == morse_index(problem, problem._form.expand(u)) == 0


@pytest.mark.parametrize("case, index", [("split-path", 1), ("grid12", 2)])
def test_index_with_two_entries_in_doubt_is_factored(monkeypatch, case, index):
    # the split path's root, with curvature u^T H u = -16 < 0, and grid12's
    # zero function with h = -3 at two interior vertices far apart: the
    # diagonal bounds the index by 1 and 2, and by 0 and 2
    if case == "split-path":
        problem, start = _split_path_problem(), np.array([math.sqrt(2.0), 0.0])
    else:
        graph, part = lattice(12)
        h = np.ones(graph.n)
        h[part.omega[[0, 99]]] = -3.0
        problem, start = Problem(graph=graph, partition=part, h=h, nl=POWER4), np.zeros(100)
    made = _counted_factors(monkeypatch)
    u, res_max, found, _ = _newton_polish(problem, start)
    assert res_max <= graphpde.solver.NEWTON_TOL and made == [[0, 0]]
    assert found == morse_index(problem, problem._form.expand(u)) == index


def test_index_bracket_keeps_a_rounding_margin_on_the_curvature(monkeypatch):
    # path3 with h = 5/4 + 2^-52 and f = 9/4 u: the Hessian is the 1x1
    # 2 + 2 (h - 9/4) = 2^-51 > 0, computed exactly, and the residual is 0
    # at every u.  One entry of mu (h - f_u) is negative, and at u = 0.525
    # the curvature quad - sum mu f_u u^2 computes to -2^-52, inside its
    # rounding: the index takes a factor, and it is 0
    problem = three_path_problem(odd_poly({1: 2.25}), h_value=1.25 + 2.0**-52)
    u = np.array([0.525])
    quad = graphpde.variational._kernel(problem, u, value=False)[0]
    assert quad - (problem._form.mu * 2.25 * u) @ u < 0.0
    made = _counted_factors(monkeypatch)
    found, res_max, index, _ = _newton_polish(problem, u)
    assert res_max == 0.0 and np.array_equal(found, u) and made == [[0, 0]]
    assert index == morse_index(problem, problem._form.expand(u)) == 0


def test_index_bracket_agrees_with_the_dense_count_on_the_corpus(monkeypatch):
    # the 100-graph corpus at p = 3: at the points Newton converges to, one
    # entry of mu (h - f_u) is in doubt at some and several at others; every
    # index reported, read off the diagonal or from a factor, is the dense count
    newton, found = graphpde.solver._newton_polish, []

    def recorded(problem, *args, **kwargs):
        out = newton(problem, *args, **kwargs)
        found.append((problem, out[0], out[2]))
        return out

    monkeypatch.setattr(graphpde.solver, "_newton_polish", recorded)
    for seed in range(25):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            graph = random_connected_graph(rng)
            part = random_partition(rng, graph)
            problem = Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=POWER3)
            mountain_pass(problem, SolverConfig(verify_hypotheses=False))
    doubts = set()
    for problem, u, index in found:
        zero_order = 1.0 - reaction_derivative(problem.nl, u)
        doubts.add(min(int(np.sum(zero_order <= 0.0)), 2))
        assert index == morse_index(problem, problem._form.expand(u))
    assert len(found) > 100 and doubts == {1, 2}


@pytest.mark.parametrize("gap, factored", [(2.0**-50, True), (2.0**-30, False)])
def test_index_certificate_keeps_a_rounding_margin(monkeypatch, gap, factored):
    # f = (1 - gap) u + u^3 has f_u(0) = 1 - gap, so mu (h - f_u) = mu gap
    # at the zero function: positive, but within rounding of h and f_u
    # for gap = 2^-50, where the Hessian is factored instead
    problem = lattice_problem(12, odd_poly({1: 1.0 - gap, 3: 1.0}))
    made = _counted_factors(monkeypatch)
    u, _, index, _ = _newton_polish(problem, np.zeros(problem.partition.omega.size))
    assert len(made) == factored
    assert index == morse_index(problem, problem._form.expand(u)) == 0


def _kernel_calls_at(monkeypatch):
    """Wrap solver._kernel: returns a list that receives a copy of the
    point of every call."""
    kernel, points = graphpde.solver._kernel, []

    def recorded(problem, v, *args, **kwargs):
        points.append(np.array(v, copy=True))
        return kernel(problem, v, *args, **kwargs)

    monkeypatch.setattr(graphpde.solver, "_kernel", recorded)
    return points


@pytest.mark.parametrize("trace", [None, []])
def test_newton_hands_back_its_last_kernel_pass(trace):
    # bit for bit what a fresh kernel call at the returned point gives
    for problem, u0 in (
        (lattice_problem(12, POWER4), None),
        (lattice_problem(12, power_plus_const(4, 0.01)), 0.0),
        (three_path_problem(PLUS_CONST), 0.0),
        (three_path_problem(POWER4), 1.4),
    ):
        if u0 is None:
            start = mountain_pass(problem, SolverConfig(verify_hypotheses=False)).u
            start = 1.001 * start[problem.partition.omega]
        else:
            start = np.full(problem.partition.omega.size, u0)
        u, res_max, _, (quad, value, r) = _newton_polish(problem, start, trace=trace)
        fresh = graphpde.variational._kernel(problem, u, residual=True)
        assert quad == fresh[0] and value == fresh[1] and np.array_equal(r, fresh[2])
        assert res_max == float(np.max(np.abs(fresh[2])))


@pytest.mark.parametrize("case", ["ball-grid12", "ball-path3", "handoff", "polish"])
def test_solutions_take_one_kernel_pass_at_their_point(monkeypatch, case):
    # the ball's sphere test, the hand-off's energy test and the Solution
    # read Newton's last pass: one kernel call at the returned point, and
    # the reported values are those of a fresh call, bit for bit
    problem = {
        "ball-grid12": lattice_problem(12, power_plus_const(4, 0.01)),
        "ball-path3": three_path_problem(PLUS_CONST),
    }.get(case) or lattice_problem(12, POWER4)
    if case == "polish":
        monkeypatch.setattr(graphpde.solver, "_newton_attempt", lambda *args: None)
    points = _kernel_calls_at(monkeypatch)
    if case.startswith("ball"):
        sol = ball_minimize(problem, SolverConfig(rho=1.0))
    else:
        sol = mountain_pass(problem, SolverConfig())
    u = sol.u[problem.partition.omega]
    assert sum(np.array_equal(p, u) for p in points) == 1
    quad, value, r = graphpde.variational._kernel(problem, u, residual=True)
    assert sol.energy_value == float(value)
    assert sol.h_norm == graphpde.variational._h_norm(quad)
    assert sol.grad_norm == float(np.linalg.norm(problem._form.mu * r))
    assert sol.residual_max == float(np.max(np.abs(r)))


@pytest.mark.parametrize("case", ["attempt", "polish"])
def test_newton_reads_the_ray_peaks_kernel_pass(monkeypatch, case):
    # Newton's step 0 reads the pass _ray_peak made at its start point,
    # the spike ray's peak for the attempt and the descent's last iterate
    # for the polish: one kernel call there, with the residual
    problem = lattice_problem(12, POWER4)
    if case == "polish":
        monkeypatch.setattr(graphpde.solver, "_newton_attempt", lambda *args: None)
    starts, polish = [], graphpde.solver._newton_polish

    def recorded(problem, u0, *args, **kwargs):
        starts.append(np.array(u0, copy=True))
        return polish(problem, u0, *args, **kwargs)

    monkeypatch.setattr(graphpde.solver, "_newton_polish", recorded)
    points = _kernel_calls_at(monkeypatch)
    mountain_pass(problem, SolverConfig(verify_hypotheses=False))
    assert len(starts) == 1
    assert sum(np.array_equal(p, starts[0]) for p in points) == 1


def _corpus_problem(seed, i, nl=POWER4):
    """perfbench.corpus.random_graph(default_rng(seed)), draw i (from 0):
    the corpus generator and the tests' random_connected_graph with
    random_partition take the same draws in the same order."""
    rng = np.random.default_rng(seed)
    for _ in range(i + 1):
        graph = random_connected_graph(rng)
        part = random_partition(rng, graph)
    return Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=nl, h0=1.0)


@pytest.mark.parametrize("p, seed, i", [
    pytest.param(p, seed, i, id=f"p{p}-s{seed}rand{i}") for p, seed, i in (
        (3, 5, 1), (3, 7, 2), (3, 9, 1), (3, 12, 1), (3, 14, 1), (3, 15, 1), (3, 17, 2),
        (3, 23, 2), (4, 10, 3), (4, 13, 3), (4, 15, 1), (4, 19, 0), (4, 20, 0),
    )
])
def test_mountain_pass_escapes_points_of_higher_index(p, seed, i):
    # the path deformation the descent replaced ended at index 2-4 on the
    # p = 3 graphs, and the descent without its escape at index 2 on the
    # p = 4 ones
    problem = _corpus_problem(seed, i, power(p))
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False), log=log)
    assert log.stops == {"mountain_pass": "newton_handoff"}
    assert sol.morse_index == morse_index(problem, sol.u) == 1


# odd_poly and power_plus_const, whose Jacobians also take 1x1 pivots:
# path3, grid12 and perfbench.corpus.random_graph's four draws per seed 0-9
@pytest.mark.parametrize("spec", [
    "odd_poly:c3=1,c5=1", "odd_poly:c1=-0.5,c3=1", "power_plus_const:p=3,eps=0.05",
])
@pytest.mark.parametrize("graphs", ["path3", "grid12", *range(10)])
def test_mountain_pass_reaches_index_one_on_other_reaction_families(path3, spec, graphs):
    nl = parse_nonlinearity(spec)
    if graphs == "path3":
        problems = [Problem(*path3, h=np.ones(3), nl=nl, h0=1.0)]
    elif graphs == "grid12":
        problems = [lattice_problem(12, nl)]
    else:
        rng = np.random.default_rng(graphs)
        problems = []
        for _ in range(4):
            graph = random_connected_graph(rng)
            part = random_partition(rng, graph)
            problems.append(Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=nl, h0=1.0))
    for problem in problems:
        sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False))
        assert sol.morse_index == morse_index(problem, sol.u) == 1


def test_handoff_jacobian_calls_no_cholesky_sure_to_fail(monkeypatch):
    # the spike's row of Newton's Jacobian on grid12 has a negative
    # diagonal entry: its window goes to the 1x1 pivots without a
    # np.linalg.cholesky call, and the route and inertia stay as they were.
    # With the low-rank update refused, the hand-off factors J(u) at its
    # two fresh steps
    jacobians, band_solver = [], graphpde.solver._band_solver

    def recorded(band):
        jacobians.append(band.copy())
        return band_solver(band)

    with monkeypatch.context() as m:
        m.setattr(graphpde.solver, "_band_solver", recorded)
        m.setattr(graphpde.solver, "_updated_solve", lambda gram, fu: None)
        mountain_pass(lattice_problem(12, POWER4), SolverConfig(verify_hypotheses=False))
    assert len(jacobians) == 2 and all(band[0, 0] < 0.0 for band in jacobians)
    cholesky, pivoted, calls = np.linalg.cholesky, graphpde.spectral._pivoted_window, []

    def counted(a):
        calls.append((len(a), bool(np.all(a.diagonal() > 0.0))))
        return cholesky(a)

    def routed(*args):
        c = pivoted(*args)
        calls.append("pivots" if c is not None else None)
        return c

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    monkeypatch.setattr(graphpde.spectral, "_pivoted_window", routed)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: pytest.fail("eigh route"))
    for band in jacobians:
        calls.clear()
        solve = band_solver(band)
        # block 0: a pivot at row 0 and Cholesky on the 73 rows below it;
        # block 1: Cholesky on its window
        assert calls == [(73, True), "pivots", (36, True)]
        assert solve.negatives == int(np.sum(np.linalg.eigvalsh(band_matrix(band)) < 0.0)) == 1
        y = np.arange(1.0, 101.0)
        assert np.linalg.norm(band_matrix(band) @ solve(y) - y) <= 1e-12 * np.linalg.norm(y)


def test_escape_direction_has_negative_curvature_without_dense_eigh(monkeypatch):
    # the points an escape leaves, of Morse index 2 to 4
    points, escape = [], graphpde.solver._escape_direction

    def recorded(problem, w, index):
        points.append((problem, w.copy(), index))
        return escape(problem, w, index)

    monkeypatch.setattr(graphpde.solver, "_escape_direction", recorded)
    for seed, i in ((10, 3), (12, 1), (14, 1), (7, 2)):
        mountain_pass(_corpus_problem(seed, i), SolverConfig(verify_hypotheses=False))
    assert sorted(index for _, _, index in points) == [2, 3, 4, 4]
    eigh, shapes = np.linalg.eigh, []

    def counted(a):
        shapes.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for problem, w, index in points:
        shapes.clear()
        y = escape(problem, w, index)
        n = len(w)
        assert all(shape[-1] < n for shape in shapes) and len(shapes) == 1
        assert np.linalg.norm(y) == pytest.approx(1.0, rel=1e-12)
        hess = hessian(problem, problem._form.expand(w))
        assert y @ hess @ y < 0.0
        # of the negative eigenvectors, y is the one least aligned with w
        lam, q = np.linalg.eigh(hess)
        assert np.sum(lam < 0.0) == index
        assert abs(y @ w) <= 1.01 * np.min(np.abs(q[:, :index].T @ w))


def test_an_attempt_at_index_two_escapes(monkeypatch):
    # Newton from the spike ray's peak converges to a point of Morse index
    # 2 below the peak's energy; the descent escapes it and hands off at
    # index 1 from the escaped iterate
    problem = _corpus_problem(10, 3)
    assert problem.partition.omega.size == 30
    attempts = []
    attempt = graphpde.solver._newton_attempt

    def recorded(problem, *args):
        out = attempt(problem, *args)
        attempts.append(out and out[2])
        return out

    monkeypatch.setattr(graphpde.solver, "_newton_attempt", recorded)
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(verify_hypotheses=False), log=log)
    assert 2 in attempts and attempts[-1] == 1
    assert log.stops == {"mountain_pass": "newton_handoff"}
    assert sol.morse_index == morse_index(problem, sol.u) == 1


def test_handoff_refuses_a_point_above_the_iterate(monkeypatch):
    # an index-1 point above the iterate's energy is refused: the constant
    # 1/2 on the lattice's interior has energy far above the bump's peak
    problem = lattice_problem(12, POWER4)
    high = np.full(problem.partition.omega.size, 0.5)
    found = (high, 0.0, 1, graphpde.solver._kernel(problem, high, residual=True))
    monkeypatch.setattr(graphpde.solver, "_newton_attempt", lambda *args: found)
    log = RunLog()
    sol = mountain_pass(problem, SolverConfig(), log=log)
    assert log.stops == {"mountain_pass": "tolerance"}
    assert sol.energy_value < energy(problem, problem._form.expand(high))


def test_path3_hands_off_at_step_0():
    # one unknown: the spike ray's peak is the saddle, and Newton from it
    # is accepted at step 0, where the path's sampled level refused it
    for nl, root in ((POWER4, math.sqrt(2.0)), (PLUS_CONST, LARGE_ROOT)):
        log = RunLog()
        sol = mountain_pass(three_path_problem(nl), SolverConfig(verify_hypotheses=False), log=log)
        assert log.stops == {"mountain_pass": "newton_handoff"}
        assert len(log.traces["mountain_pass"]) == 1
        assert sol.u[1] == pytest.approx(root, rel=1e-14)


def test_attempt_refuses_the_zero_function(monkeypatch):
    problem = three_path_problem(POWER4)
    for u, accepted in ((np.zeros(1), False), (np.full(1, 1e-9), True)):
        monkeypatch.setattr(
            graphpde.solver, "_newton_polish",
            lambda *args, u=u, **kwargs: (u, 0.0, 1, (0.0, 0.0, np.zeros_like(u))),
        )
        assert (graphpde.solver._newton_attempt(problem, np.ones(1)) is not None) == accepted


def test_handoff_attempt_gives_up_after_two_factors(monkeypatch):
    # h = 0.01 spreads the solution over the whole lattice; Newton from the
    # initial maximum cuts the residual eightfold, then fivefold, and the
    # attempt at step 0 gives up having factored P and one J(u)
    graph, part = lattice(12)
    problem = Problem(graph=graph, partition=part, h=np.full(graph.n, 0.01), nl=POWER4, h0=0.01)
    factors = []
    original, attempt = graphpde.solver._band_solver, graphpde.solver._newton_attempt

    class GaveUp(Exception):
        pass

    def counted(band):
        factors.append(band.shape)
        return original(band)

    def first_attempt(*args):
        assert attempt(*args) is None
        raise GaveUp

    monkeypatch.setattr(graphpde.solver, "_band_solver", counted)
    monkeypatch.setattr(graphpde.solver, "_newton_attempt", first_attempt)
    with pytest.raises(GaveUp):
        mountain_pass(problem, SolverConfig(verify_hypotheses=False))
    assert len(factors) == 2


def test_accepted_handoffs_have_index_one(monkeypatch):
    # every run that reaches the first move, a descent step or an escape,
    # is cut at its first ray peak after the spike's
    class Moved(Exception):
        pass

    ray_peak, peaks = graphpde.solver._ray_peak, []

    def first_peak_only(problem, v):
        if peaks:
            raise Moved
        peaks.append(v)
        return ray_peak(problem, v)

    monkeypatch.setattr(graphpde.solver, "_ray_peak", first_peak_only)
    handoffs = 0
    for seed in (11, 12):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            graph = random_connected_graph(rng, n_min=5, n_max=25)
            part = random_partition(rng, graph)
            problem = Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=POWER4, h0=1.0)
            log = RunLog()
            peaks.clear()
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
        (three_path_problem(POWER4), SolverConfig(), "newton_handoff"),
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
    # the budget, and backtracking that no longer moves the iterate before
    # the gradient norm reaches 1e-300, on the loop itself
    _, log = _descended(lattice_problem(12, POWER4), SolverConfig(deform_steps=3))
    assert log.stops == {"mountain_pass": "budget"}
    assert len(log.traces["mountain_pass"]) == 3
    sol, log = _descended(lattice_problem(12, POWER4), SolverConfig(deform_tol=1e-300))
    assert log.stops == {"mountain_pass": "backtracking"}
    assert sol.morse_index == 1

    # the ball's Newton converges, inside the ball or not, or fails; the
    # descent's budget and tolerance do not bound it
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


def test_newton_failure_names_the_budget_stop(monkeypatch, descent_only):
    # the descent spends its one step, then Newton from the iterate
    # spends its one step: both budget exits in one run
    monkeypatch.setattr(graphpde.solver, "NEWTON_MAX", 1)
    log = RunLog()
    with pytest.raises(SolverError) as err:
        mountain_pass(lattice_problem(12, POWER4), SolverConfig(deform_steps=1), log=log)
    assert log.stops == {"mountain_pass": "budget"}
    message = str(err.value)
    assert message.startswith("descent spent its iteration budget at energy ")
    assert re.search(r"Newton refinement did not reach residual 1e-12 in 1 iterations "
                     r"\(residual [-+.0-9e]+\)$", message)


def test_a_final_point_of_index_two_is_refused(monkeypatch, descent_only):
    # without its attempts the descent ends next to a point of index 2
    problem = _corpus_problem(10, 3)
    log = RunLog()
    with pytest.raises(SolverError, match=r"^descent stopped by \w+ and Newton refinement "
                                          r"converged to a critical point of Morse index 2, "
                                          r"not a mountain-pass point of index 1$"):
        mountain_pass(problem, SolverConfig(verify_hypotheses=False), log=log)
    assert log.stops["mountain_pass"] in ("tolerance", "backtracking", "budget")
