"""Mountain-pass search, ball minimization and the two-solution pipeline."""

import math

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
    mountain_pass,
    odd_poly,
    power,
    power_plus_const,
    two_solutions,
)
import graphpde.solver
from graphpde.calculus import _interior_matrix
from graphpde.nonlinearity import evaluate
from graphpde.solver import (
    _climbing_move,
    _newton_polish,
    _resample_path,
    _sobolev_direction,
)
from util import (
    bisect,
    hessian,
    interior_matrix_loop,
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
    assert not sol.newton_shifted
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
    # sampling gap; the certified level must still land near it
    assert abs(levels[-1] - sol.energy_value) <= 0.05
    names = [v.name for v in verdicts]
    assert "H1" in names and "H2" in names and "F1" in names
    assert "F2" in names and "F4" in names  # superquadratic-constants route
    assert all(v.holds for v in verdicts)


def test_mountain_pass_monotone_route_uses_f5_f6():
    problem = three_path_problem(power(5))  # no growth constants attached
    log = RunLog()
    mountain_pass(problem, log=log)  # F6: f(10)/10 = 1000
    names = [v.name for v in log.verdicts]
    assert "F5" in names and "F6" in names and "F2" not in names


def test_mountain_pass_falls_back_to_the_monotone_route():
    # F4 fails for theta = 5 > p; M = 20 widens the grid to [-40, 40],
    # where the F6 proxy reads 1600; F3 is attached to both routes
    problem = three_path_problem(power(4, theta=5.0, M=20.0, C=1.0, growth_p=4.0))
    log = RunLog()
    sol = mountain_pass(problem, log=log)
    assert [(v.name, v.holds) for v in log.verdicts] == [
        ("H1", True), ("H2", True), ("F1", True), ("F2", True), ("F4", False),
        ("F3", True), ("F5", True), ("F6", True),
    ]
    assert abs(sol.u[1] - math.sqrt(2)) <= 1e-8


def test_mountain_pass_gate_failure_is_reported():
    problem = three_path_problem(power(4))
    # the default grid edge gives ratio 100 against the 1e3 threshold:
    # honest sampled evidence is "not superlinear enough", so it rejects
    with pytest.raises(SolverError) as err:
        mountain_pass(problem)
    assert "F6" in str(err.value)


def test_mountain_pass_f2_blocks_shifted_reaction():
    problem = three_path_problem(power_plus_const(4, 0.1, theta=3.0, M=2.0))
    with pytest.raises(SolverError) as err:
        mountain_pass(problem)
    assert "F2" in str(err.value)


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
    original = graphpde.solver.energy

    def counted(problem, u):
        calls.append(np.ndim(u))
        return original(problem, u)

    monkeypatch.setattr(graphpde.solver, "energy", counted)
    config = SolverConfig()
    log = RunLog()
    sol = mountain_pass(make(), config, log=log)
    trace = log.traces["mountain_pass"]
    assert sol.residual_max <= 1e-12
    assert len(calls) < graphpde.solver.PATH_POINTS * len(trace)
    assert calls.count(2) == len(trace)


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
    sol = ball_minimize(problem, SolverConfig(rho=1.0))
    assert sol.kind == "trivial"
    assert np.all(sol.u == 0.0)
    assert sol.energy_value == 0.0
    assert sol.in_ball


def test_ball_minimize_pinned_to_sphere():
    problem = three_path_problem(power_plus_const(4, 10.0))
    with pytest.raises(SolverError) as err:
        ball_minimize(problem, SolverConfig(rho=1.0))
    assert "no interior minimizer found" in str(err.value)


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


def test_ball_minimize_sobolev_steps_converge_fast():
    # 2038 Euclidean steps; the Sobolev step is a contraction here
    log = RunLog()
    sol = ball_minimize(three_path_problem(PLUS_CONST), SolverConfig(rho=1.0), log=log)
    trace = log.traces["ball_min"]
    assert abs(sol.u[1] - SMALL_ROOT) <= 1e-8
    assert len(trace) <= 10


def test_mountain_pass_lattice_exits_by_tolerance():
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
    for _ in range(20):
        problem = _mixed_sign_problem(rng)
        omega = problem.partition.omega
        g = random_dirichlet(rng, problem.graph, problem.partition)
        d = _sobolev_direction(problem)(g)
        expect = np.linalg.solve(_p_matrix(problem), g[omega])
        assert np.allclose(d[omega], expect, rtol=1e-10, atol=1e-12 * np.max(np.abs(expect)))
        assert np.all(d[~problem.partition.omega_mask] == 0.0)


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
        g = random_dirichlet(rng, problem.graph, part)
        tau = random_dirichlet(rng, problem.graph, part)
        move = _climbing_move(problem, precondition, g, tau, np.zeros(problem.graph.n))
        base = precondition(g)
        # the change is along tau, and the P-component along tau flips
        coef = (move - base)[part.omega] / tau[part.omega]
        assert np.allclose(coef, coef[0], rtol=1e-9)
        t = tau[part.omega]
        assert t @ pmat @ move[part.omega] == pytest.approx(-(g @ tau), rel=1e-9)


def test_climbing_move_takes_the_newton_step_along_negative_curvature(rng):
    checked = 0
    for _ in range(40):
        problem = _mixed_sign_problem(rng)
        part = problem.partition
        pmat = _p_matrix(problem)
        precondition = _sobolev_direction(problem)
        u = random_dirichlet(rng, problem.graph, part)
        g = random_dirichlet(rng, problem.graph, part)
        tau = random_dirichlet(rng, problem.graph, part)
        t = tau[part.omega]
        curv = t @ hessian(problem, u) @ t
        if not curv < 0.0:
            continue
        move = _climbing_move(problem, precondition, g, tau, u)
        coef = (move - precondition(g))[part.omega] / t
        assert np.allclose(coef, coef[0], rtol=1e-9)
        tpt = t @ pmat @ t
        assert t @ pmat @ move[part.omega] == pytest.approx((g @ tau) * tpt / curv, rel=1e-9)
        checked += 1
    assert checked >= 10


def test_climbing_move_without_tangent_does_not_reflect(rng):
    problem = lattice_problem(5, POWER4)
    precondition = _sobolev_direction(problem)
    g = random_dirichlet(rng, problem.graph, problem.partition)
    u = random_dirichlet(rng, problem.graph, problem.partition)
    with np.errstate(all="raise"):
        move = _climbing_move(problem, precondition, g, np.zeros(problem.graph.n), u)
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


def test_mountain_pass_random_graphs_do_not_stall():
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


def test_newton_shift_fallback(monkeypatch):
    original = np.linalg.solve
    calls = []

    def fail_first(a, b):
        calls.append(a.copy())
        if len(calls) == 1:
            raise np.linalg.LinAlgError("singular matrix")
        return original(a, b)

    monkeypatch.setattr(np.linalg, "solve", fail_first)
    config = SolverConfig()
    sol = mountain_pass(lattice_problem(5, POWER4), config)
    assert len(calls) >= 2
    # the retry solves the same Jacobian shifted by 1e-10 on the diagonal
    assert np.array_equal(calls[1], calls[0] + 1e-10 * np.eye(len(calls[0])))
    assert sol.newton_shifted
    assert sol.residual_max <= graphpde.solver.NEWTON_TOL


def test_newton_jacobian_matches_the_assembled_form(monkeypatch, rng):
    original = np.linalg.solve
    jacobians, points = [], []

    def record_solve(a, b):
        jacobians.append(a.copy())
        return original(a, b)

    def record_evaluate(nl, x, u):
        points.append(np.array(u, copy=True))
        return evaluate(nl, x, u)

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
            m.setattr(np.linalg, "solve", record_solve)
            m.setattr(graphpde.solver, "evaluate", record_evaluate)
            _newton_polish(problem, start)
        assert len(jacobians) == len(points) >= 1
        lmat = _interior_matrix(graph, part)
        mu = graph.measure[part.omega]
        for jac, u_omega in zip(jacobians, points):
            _, _, fu = evaluate(problem.nl, None, u_omega)
            assert np.array_equal(jac, lmat + np.diag(mu * (problem.h[part.omega] - fu)))
            checked += 1
    assert checked >= 10


def test_solutions_have_the_expected_morse_index():
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


def test_mountain_pass_profile_reports_arc_positions():
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
