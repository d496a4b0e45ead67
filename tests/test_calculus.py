"""Pointwise operators, integrals, energies, norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphpde import (
    DIRICHLET_W12,
    FULL_W12,
    H_NORM,
    GraphError,
    NormKind,
    build_graph,
    compute_boundary,
    dirichlet_energy,
    edge_energy,
    enforce_dirichlet,
    gradient_form,
    green_residual,
    integrate,
    laplacian,
    lp,
    norm,
)
from graphpde.calculus import _interior_matrix
from util import (
    interior_matrix_loop,
    path_graph,
    random_connected_graph,
    random_dirichlet,
    random_partition,
    random_subset_partition,
)


def spike(graph, partition, t):
    u = np.zeros(graph.n)
    u[partition.omega[0]] = t
    return u


def test_laplacian_oracle(path3):
    graph, part = path3
    u = spike(graph, part, 1.5)
    assert laplacian(graph, u).tolist() == [1.5, -1.5, 1.5]


def test_laplacian_of_constant_is_zero(rng):
    graph = random_connected_graph(rng)
    assert np.all(laplacian(graph, np.full(graph.n, 3.25)) == 0.0)


def test_gradient_form_oracle(path3):
    graph, part = path3
    u = spike(graph, part, 1.5)
    got = gradient_form(graph, u, u)
    assert got.tolist() == [1.125, 1.125, 1.125]


def test_gradient_form_constant_argument(rng):
    graph = random_connected_graph(rng)
    u = rng.uniform(-2, 2, size=graph.n)
    c = np.full(graph.n, 7.0)
    assert np.all(gradient_form(graph, u, c) == 0.0)


def test_integrate_regions(path3):
    graph, part = path3
    f = np.array([2.0, 5.0, 7.0])
    assert integrate(graph, f, part.omega) == 10.0
    assert integrate(graph, f, part.closure) == 2.0 + 10.0 + 7.0
    with pytest.raises(GraphError):
        integrate(graph, f, np.array([0, 9]))


def test_energy_oracle(path3):
    graph, part = path3
    for t in (0.25, 1.0, 1.5, -2.0):
        u = spike(graph, part, t)
        assert dirichlet_energy(graph, part, u) == pytest.approx(2 * t * t, rel=1e-15)
        assert edge_energy(graph, part, u) == pytest.approx(2 * t * t, rel=1e-15)


def test_edge_energy_ignores_exterior_edges():
    graph = path_graph("abcde")
    part = compute_boundary(graph, ["b"])
    u = np.zeros(5)
    u[1] = 2.0
    # edges c-d and d-e lie outside the closure of {a,b,c}
    u_out = u.copy()
    u_out[4] = 100.0
    assert edge_energy(graph, part, u) == 8.0
    assert edge_energy(graph, part, u_out) == 8.0


def test_product_rule_identity(rng):
    # gradient_form(u,v) = (laplacian(uv) - u laplacian(v) - v laplacian(u)) / 2
    for _ in range(50):
        graph = random_connected_graph(rng)
        u = rng.uniform(-2, 2, size=graph.n)
        v = rng.uniform(-2, 2, size=graph.n)
        lhs = gradient_form(graph, u, v)
        rhs = 0.5 * (
            laplacian(graph, u * v)
            - u * laplacian(graph, v)
            - v * laplacian(graph, u)
        )
        scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-12 * scale


def test_green_identity(rng):
    for _ in range(50):
        graph = random_connected_graph(rng)
        part = random_partition(rng, graph)
        u = rng.uniform(-2, 2, size=graph.n)
        v = random_dirichlet(rng, graph, part)
        res = green_residual(graph, part, u, v)
        scale = max(
            1.0,
            abs(integrate(graph, gradient_form(graph, u, v), part.closure)),
        )
        assert abs(res) <= 1e-12 * scale


def test_green_requires_interior_support(path3):
    graph, part = path3
    v = np.ones(3)
    with pytest.raises(ValueError):
        green_residual(graph, part, np.zeros(3), v)


def test_norm_oracles(path3):
    graph, part = path3
    t = 1.5
    u = spike(graph, part, t)
    h = np.ones(3)
    assert norm(graph, part, u, DIRICHLET_W12) == pytest.approx(math.sqrt(4.5), rel=1e-15)
    assert norm(graph, part, u, FULL_W12) == pytest.approx(3.0, rel=1e-15)
    assert norm(graph, part, u, H_NORM, h=h) == pytest.approx(3.0, rel=1e-15)
    assert norm(graph, part, u, lp(2)) == pytest.approx(t * math.sqrt(2), rel=1e-15)
    assert norm(graph, part, u, lp(1)) == pytest.approx(3.0, rel=1e-15)
    assert norm(graph, part, u, lp(math.inf)) == 1.5
    assert norm(graph, part, u, lp(4)) == pytest.approx((2 * t**4) ** 0.25, rel=1e-15)


def test_norm_validation(path3):
    graph, part = path3
    u = spike(graph, part, 1.0)
    not_dirichlet = np.ones(3)
    for kind in (FULL_W12, DIRICHLET_W12, H_NORM):
        with pytest.raises(ValueError):
            norm(graph, part, not_dirichlet, kind, h=np.ones(3))
    with pytest.raises(ValueError):
        norm(graph, part, u, H_NORM)  # missing h
    with pytest.raises(ValueError):
        norm(graph, part, u, H_NORM, h=np.full(3, -10.0))  # negative radicand
    with pytest.raises(ValueError):
        lp(0.5)
    with pytest.raises(ValueError):
        norm(graph, part, u, NormKind("bogus"))


def test_lp_ignores_off_interior_values():
    graph = path_graph("abcde")
    part = compute_boundary(graph, ["c"])
    u = np.array([9.0, 9.0, 2.0, 9.0, 9.0])
    assert norm(graph, part, u, lp(math.inf)) == 2.0
    assert norm(graph, part, u, lp(2)) == pytest.approx(2.0 * math.sqrt(2), rel=1e-15)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(-100, 100, allow_nan=False))
def test_energy_scales_quadratically(t):
    graph = path_graph("abc")
    part = compute_boundary(graph, ["b"])
    base = np.array([0.0, 1.0, 0.0])
    e1 = dirichlet_energy(graph, part, base)
    et = dirichlet_energy(graph, part, t * base)
    assert et == pytest.approx(t * t * e1, rel=1e-12, abs=1e-300)


def _omega_connected(graph, part):
    start = int(part.omega[0])
    seen = {start}
    stack = [start]
    while stack:
        nbr, _ = graph.neighbors(stack.pop())
        for j in map(int, nbr):
            if part.omega_mask[j] and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == part.omega.size


def _hub_graph(rng, n=20):
    """Vertex v0 joined to every other vertex, plus a path through them."""
    ids = [f"v{i}" for i in range(n)]
    edges = [(ids[0], ids[i], float(rng.uniform(0.1, 10.0))) for i in range(1, n)]
    edges += [(ids[i], ids[i + 1], float(rng.uniform(0.1, 10.0))) for i in range(1, n - 1)]
    return build_graph(ids, edges)


def test_interior_matrix_matches_per_vertex_loop(rng):
    seen = {"exterior": 0, "split": 0, "hub": 0}
    for trial in range(80):
        graph = _hub_graph(rng) if trial % 4 == 0 else random_connected_graph(rng, n_max=40)
        part = random_subset_partition(rng, graph)
        got = _interior_matrix(graph, part)
        want = interior_matrix_loop(graph, part)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        # np.sum adds fewer than 8 terms in order, like the accumulation
        few = np.diff(graph.adj_ptr)[part.omega] < 8
        assert np.array_equal(got[few], want[few])
        seen["exterior"] += part.exterior.size > 0
        seen["split"] += not _omega_connected(graph, part)
        seen["hub"] += not np.all(few)
    assert all(seen.values()), seen
