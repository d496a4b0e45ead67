"""Energy functional, residual, gradient and the ball constants."""

import math

import numpy as np
import pytest

from graphpde import (
    Problem,
    ball_constants,
    build_graph,
    compute_boundary,
    dirichlet_energy,
    directional_derivative,
    embedding_constants,
    energy,
    gradient,
    integrate,
    odd_poly,
    pointwise_residual,
    power,
    power_plus_const,
)
from graphpde.calculus import H_NORM, laplacian, norm
from graphpde.nonlinearity import antiderivative, reaction
from graphpde.variational import _kernel, h_norm
from util import (
    random_connected_graph,
    random_dirichlet,
    random_partition,
    three_path_problem,
)


def spike(problem, t):
    u = np.zeros(problem.graph.n)
    u[problem.partition.omega[0]] = t
    return u


def random_problem(rng, nl, n_max=12, h_low=0.5, h_high=2.0):
    graph = random_connected_graph(rng, n_min=5, n_max=n_max)
    part = random_partition(rng, graph)
    h = rng.uniform(h_low, h_high, size=graph.n)
    return Problem(graph=graph, partition=part, h=h, nl=nl, h0=h_low)


def problem_with_exterior(rng, nl):
    """Random problem whose partition leaves exterior vertices, with h
    set to inf and nan off the interior."""
    while True:
        graph = random_connected_graph(rng, n_min=8, n_max=30)
        part = random_partition(rng, graph)
        if part.exterior.size:
            break
    h = rng.uniform(0.5, 2.0, size=graph.n)
    off = np.flatnonzero(~part.omega_mask)
    h[off[::2]] = np.inf
    h[off[1::2]] = np.nan
    return Problem(graph=graph, partition=part, h=h, nl=nl, h0=0.5)


def per_vertex_energy(problem, u):
    """The energy through the per-vertex gradient form."""
    graph, part = problem.graph, problem.partition
    big_f = antiderivative(problem.nl, u)
    mass = integrate(graph, problem.interior_h() * u * u, part.omega)
    return 0.5 * (dirichlet_energy(graph, part, u) + mass) - integrate(graph, big_f, part.omega)


def test_energy_oracle_power():
    problem = three_path_problem(power(4))
    for t in (0.0, 0.5, 1.0, math.sqrt(2), -1.5):
        expect = 2 * t * t - t**4 / 2
        assert energy(problem, spike(problem, t)) == pytest.approx(expect, rel=1e-14, abs=1e-15)
    assert energy(problem, spike(problem, math.sqrt(2))) == pytest.approx(2.0, rel=1e-14)


def test_energy_oracle_plus_const():
    problem = three_path_problem(power_plus_const(4, 0.1))
    for t in (0.3, 1.0, 1.3885):
        expect = 2 * t * t - t**4 / 2 - 0.2 * t
        assert energy(problem, spike(problem, t)) == pytest.approx(expect, rel=1e-14)


def test_energy_requires_dirichlet():
    problem = three_path_problem(power(4))
    with pytest.raises(ValueError):
        energy(problem, np.ones(3))
    with pytest.raises(ValueError):
        gradient(problem, np.ones(3))


def test_pointwise_residual_oracle():
    problem = three_path_problem(power_plus_const(4, 0.1))
    t = 0.7
    r = pointwise_residual(problem, spike(problem, t))
    assert r[0] == 0.0 and r[2] == 0.0
    assert r[1] == pytest.approx(2 * t - t**3 - 0.1, rel=1e-14)


def test_gradient_is_measure_times_residual(rng):
    for nl in (power(4), odd_poly({1: -1.0, 3: 1.0})):
        problem = random_problem(rng, nl)
        u = random_dirichlet(rng, problem.graph, problem.partition)
        g = gradient(problem, u)
        r = pointwise_residual(problem, u)
        assert np.array_equal(g, problem.graph.measure * r)
        assert np.all(g[~problem.partition.omega_mask] == 0.0)


def test_gradient_oracle():
    problem = three_path_problem(power(4))
    t = 0.9
    g = gradient(problem, spike(problem, t))
    assert g[1] == pytest.approx(2 * (2 * t - t**3), rel=1e-14)
    g_crit = gradient(problem, spike(problem, math.sqrt(2)))
    assert abs(g_crit[1]) <= 1e-14


def test_gradient_matches_finite_differences(rng):
    families = [power(4), power(3), power_plus_const(4, 0.1), odd_poly({1: -1.0, 5: 0.5})]
    for trial in range(20):
        problem = random_problem(rng, families[trial % len(families)])
        u = random_dirichlet(rng, problem.graph, problem.partition)
        g = gradient(problem, u)
        for x in problem.partition.omega:
            step = 1e-6 * (1.0 + abs(u[x]))
            up = u.copy(); up[x] += step
            dn = u.copy(); dn[x] -= step
            fd = (energy(problem, up) - energy(problem, dn)) / (2 * step)
            denom = max(1.0, abs(g[x]), abs(fd))
            assert abs(g[x] - fd) / denom <= 1e-6


@pytest.mark.parametrize("nl", [
    power(4), power(3), power(2.5), power_plus_const(4, 0.1), odd_poly({1: -1.0, 3: 1.0}),
], ids=["power4", "power3", "power2.5", "plus_const", "odd_poly"])
def test_three_path_gradient_audit(nl):
    # acceptance criterion 2 on the hand-oracle domain: five interior values
    # in [-2, 2], each checked against central differences of the energy and
    # against the pairing with the interior vertex's indicator
    problem = three_path_problem(nl)
    b = int(problem.partition.omega[0])
    indicator = np.zeros(3)
    indicator[b] = 1.0
    for t in np.random.default_rng(7).uniform(-2.0, 2.0, size=5):
        u = spike(problem, t)
        g = gradient(problem, u)
        step = 1e-6 * (1.0 + abs(t))
        fd = (energy(problem, spike(problem, t + step))
              - energy(problem, spike(problem, t - step))) / (2 * step)
        expect = problem.graph.measure[b] * pointwise_residual(problem, u)[b]
        dd = directional_derivative(problem, u, indicator)
        assert np.all(np.isfinite([g[b], fd, dd, expect]))
        assert abs(g[b] - fd) / max(1.0, abs(g[b]), abs(fd)) <= 1e-6
        assert abs(dd - expect) / max(1.0, abs(expect)) <= 1e-12


def test_directional_derivative_identities(rng):
    problem = random_problem(rng, power(4))
    graph, part = problem.graph, problem.partition
    u = random_dirichlet(rng, graph, part)
    g = gradient(problem, u)

    # pairing with a vertex indicator recovers the gradient entry
    for x in part.omega[: min(5, part.omega.size)]:
        delta = np.zeros(graph.n)
        delta[x] = 1.0
        dd = directional_derivative(problem, u, delta)
        assert dd == pytest.approx(g[x], rel=1e-12, abs=1e-12)

    # pairing with u gives the h-norm square minus the reaction pairing
    f = reaction(problem.nl, u)
    expect = norm(graph, part, u, H_NORM, h=problem.h) ** 2 - integrate(
        graph, f * u, part.omega
    )
    assert directional_derivative(problem, u, u) == pytest.approx(expect, rel=1e-10, abs=1e-10)

    # general test direction: agreement with the euclidean gradient pairing
    for _ in range(10):
        phi = random_dirichlet(rng, graph, part)
        dd = directional_derivative(problem, u, phi)
        assert dd == pytest.approx(float(g @ phi), rel=1e-10, abs=1e-10)


def test_directional_derivative_linear(rng):
    problem = random_problem(rng, power(4))
    u = random_dirichlet(rng, problem.graph, problem.partition)
    a = random_dirichlet(rng, problem.graph, problem.partition)
    b = random_dirichlet(rng, problem.graph, problem.partition)
    left = directional_derivative(problem, u, a + 3.0 * b)
    right = directional_derivative(problem, u, a) + 3.0 * directional_derivative(problem, u, b)
    assert left == pytest.approx(right, rel=1e-10, abs=1e-12)


def test_problem_validation(path3):
    graph, part = path3
    h = np.ones(3)
    with pytest.raises(ValueError):
        Problem(graph=graph, partition=part, h=np.ones(2), nl=power(4))
    bad_h = h.copy()
    bad_h[1] = math.nan
    with pytest.raises(ValueError):
        Problem(graph=graph, partition=part, h=bad_h, nl=power(4))
    with pytest.raises(ValueError):
        Problem(graph=graph, partition=part, h=h, nl=power(4), h0=0.0)
    all_interior = compute_boundary(graph, ["a", "b", "c"])
    with pytest.raises(ValueError):
        Problem(graph=graph, partition=all_interior, h=h, nl=power(4))
    split = build_graph(["a", "b", "c", "d"], [("a", "b", 1.0), ("c", "d", 1.0)])
    split_part = compute_boundary(split, ["a", "c"])
    with pytest.raises(ValueError):
        Problem(graph=split, partition=split_part, h=np.ones(4), nl=power(4))


def test_h_only_needs_to_be_finite_inside():
    # values off the closure are never read; junk there must not reject
    problem = three_path_problem(power(4))
    graph, part = problem.graph, problem.partition
    h = np.array([math.inf, 1.0, math.inf])
    q = Problem(graph=graph, partition=part, h=h, nl=power(4), h0=1.0)
    assert energy(q, spike(q, 1.0)) == pytest.approx(1.5, rel=1e-14)


def _ball_kappa(problem, choice):
    return ball_constants(problem, 1.0, kappa_choice=choice).kappa


def test_ball_kappa_conventions():
    problem = three_path_problem(power(4))
    assert _ball_kappa(problem, "H1") == pytest.approx(1.0)
    with pytest.raises(ValueError):
        _ball_kappa(problem, "H3")  # 1 - mu_min h0 int h = -1

    small = three_path_problem(power(4), h0=0.1, h_value=0.1)
    assert _ball_kappa(small, "H1") == pytest.approx(math.sqrt(0.1), rel=1e-12)
    assert _ball_kappa(small, "H3") == pytest.approx(
        math.sqrt(0.1) / math.sqrt(1.0 - 0.1 * 0.2), rel=1e-12
    )
    # the proof's reciprocal convention is reported as sup_embedding
    rep = embedding_constants(small.graph, small.partition, small.h, small.h0)
    assert rep.sup_embedding == pytest.approx(math.sqrt(10.0), rel=1e-12)
    for choice in ("H2", "proof"):
        with pytest.raises(ValueError, match="'H1' or 'H3'"):
            _ball_kappa(problem, choice)
    no_h0 = three_path_problem(power(4), h0=None)
    with pytest.raises(ValueError, match="h0"):
        _ball_kappa(no_h0, "H1")


def test_ball_kappa_matches_embedding_report():
    # the H1 radius conversion and the sup-norm embedding are reciprocal
    # conventions; both are reported and they agree on their product
    problem = three_path_problem(power(4))
    rep = embedding_constants(problem.graph, problem.partition, problem.h, problem.h0)
    kappa = _ball_kappa(problem, "H1")
    assert kappa == rep.kappa
    assert kappa * rep.sup_embedding == pytest.approx(1.0, rel=1e-12)
    proof = 1.0 / math.sqrt(problem.graph.mu_min * problem.h0)
    assert proof == pytest.approx(rep.sup_embedding, rel=1e-12)


def test_ball_constants_power4():
    problem = three_path_problem(power(4))
    bc = ball_constants(problem, 1.0)
    assert bc.kappa == pytest.approx(1.0)
    assert bc.u_bound == pytest.approx(1.0)
    assert bc.max_abs_F == pytest.approx(0.25, rel=1e-12)
    assert bc.beta_max == pytest.approx(1.0, rel=1e-12)
    assert bc.rho == 1.0
    assert bc.kappa_choice == "H1"
    assert bc.beta_max > 0


def test_ball_constants_small_rho():
    problem = three_path_problem(power(4))
    rho = 1e-4
    bc = ball_constants(problem, rho)
    assert bc.beta_max == pytest.approx(2.0 / rho - 1.0, rel=1e-6)
    assert bc.beta_max > 0


def test_ball_constants_plus_const():
    problem = three_path_problem(power_plus_const(4, 0.1))
    bc = ball_constants(problem, 1.0)
    assert bc.max_abs_F == pytest.approx(0.35, rel=1e-9)
    assert bc.beta_max == pytest.approx(1.0 / 0.7 - 1.0, rel=1e-9)
    assert bc.beta_max > 0


def test_ball_constants_degenerate_reaction():
    problem = three_path_problem(odd_poly({1: 0.0}))
    bc = ball_constants(problem, 1.0)
    assert bc.max_abs_F == 0.0
    assert math.isinf(bc.beta_max)
    assert bc.beta_max > 0


def test_ball_constants_validation():
    problem = three_path_problem(power(4))
    with pytest.raises(ValueError):
        ball_constants(problem, 0.0)
    with pytest.raises(ValueError):
        ball_constants(problem, 1.0, kappa_choice="H3")


def test_mountain_pass_geometry_positive_on_small_spheres(rng):
    problem = random_problem(rng, power(4), h_low=1.0, h_high=1.0)
    graph, part = problem.graph, problem.partition
    rep = embedding_constants(graph, part, problem.h, problem.h0)
    # below this radius the quadratic part dominates the quartic term
    r = 0.5 * math.sqrt(2.0 / (rep.omega_measure * rep.sup_embedding**4))
    for _ in range(100):
        d = random_dirichlet(rng, graph, part)
        nh = norm(graph, part, d, H_NORM, h=problem.h)
        if nh == 0.0:
            continue
        u = (r / nh) * d
        assert energy(problem, u) > 0.0


def test_energy_takes_one_dirichlet_function(rng):
    # a float at one function of shape (n,); a stack of them, another
    # shape or a nonzero value off the interior is refused
    problem = problem_with_exterior(rng, power(4))
    graph, part = problem.graph, problem.partition
    u = random_dirichlet(rng, graph, part)
    value = energy(problem, u)
    assert type(value) is float
    assert value == pytest.approx(per_vertex_energy(problem, u), rel=1e-12)
    for vertex in (part.boundary[0], part.exterior[0]):
        bad = u.copy()
        bad[vertex] = 1e-300
        with pytest.raises(ValueError, match="vanish outside the interior"):
            energy(problem, bad)
    for shape in ((1, graph.n), (2, 2, graph.n), (graph.n + 1,)):
        with pytest.raises(ValueError, match="one value per vertex"):
            energy(problem, np.zeros(shape))


def test_h_norm_matches_calculus_norm(rng):
    for _ in range(12):
        problem = problem_with_exterior(rng, power(4))
        graph, part = problem.graph, problem.partition
        u = random_dirichlet(rng, graph, part)
        expect = norm(graph, part, u, H_NORM, h=problem.interior_h())
        assert h_norm(problem, u) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        h_norm(problem, np.ones(graph.n))
    negative = three_path_problem(power(4), h_value=-10.0)
    with pytest.raises(ValueError, match="radicand is negative"):
        h_norm(negative, spike(negative, 1.0))


def test_kernel_matches_the_public_functions_and_per_vertex_references(rng):
    # given measures, h of both signs, h = nan off the interior and
    # exterior vertices; the public functions slice to the interior and
    # call the kernel, so they agree with it exactly
    families = [power(4), power_plus_const(3, 0.1), odd_poly({1: -1.0, 3: 1.0})]
    for trial in range(24):
        while True:
            graph = random_connected_graph(rng, n_min=8, n_max=30, measure_mode="given")
            part = random_partition(rng, graph)
            if part.exterior.size:
                break
        h = np.where(part.omega_mask, rng.uniform(-2.0, 2.0, size=graph.n), np.nan)
        problem = Problem(graph=graph, partition=part, h=h, nl=families[trial % 3])
        omega, mu = part.omega, graph.measure[part.omega]
        for u in [random_dirichlet(rng, graph, part) for _ in range(5)]:
            quad, value, none = _kernel(problem, u[omega])
            q1, value1, r = _kernel(problem, u[omega], residual=True)
            assert none is None and (q1, value1) == (quad, value)
            assert value1 == energy(problem, u)
            assert np.array_equal(pointwise_residual(problem, u)[omega], r)
            assert np.array_equal(gradient(problem, u)[omega], mu * r)
            assert np.all(pointwise_residual(problem, u)[~part.omega_mask] == 0.0)
            assert np.all(gradient(problem, u)[~part.omega_mask] == 0.0)
            # per-vertex references, within rounding of the summed magnitudes
            grad_sq = dirichlet_energy(graph, part, u)
            mass = integrate(graph, np.abs(h) * u * u, omega)
            radicand = grad_sq + integrate(graph, np.nan_to_num(h) * u * u, omega)
            assert q1 == pytest.approx(radicand, abs=1e-13 * (grad_sq + mass))
            if radicand > 0.0:
                assert h_norm(problem, u) == math.sqrt(q1)
            else:
                with pytest.raises(ValueError, match="radicand is negative"):
                    h_norm(problem, u)
            big_f = antiderivative(problem.nl, u)
            expect = 0.5 * radicand - integrate(graph, big_f, omega)
            scale = grad_sq + mass + integrate(graph, np.abs(big_f), omega)
            assert value1 == pytest.approx(expect, abs=1e-13 * scale)
            f = reaction(problem.nl, u)
            ref = (-laplacian(graph, u) + np.nan_to_num(h) * u - f)[omega]
            spread = np.abs(u[graph.adj_nbr] - u[graph.adj_center]) * graph.adj_w
            size = np.bincount(graph.adj_center, spread, graph.n) / graph.measure
            size = (size + np.abs(h * u) + np.abs(f))[omega]
            assert np.all(np.abs(r - ref) <= 1e-13 * size)
