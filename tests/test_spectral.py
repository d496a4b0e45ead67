"""First Dirichlet eigenvalue and embedding constants."""

import math

import numpy as np
import pytest

from graphpde import (
    DIRICHLET_W12,
    FULL_W12,
    H_NORM,
    build_graph,
    compute_boundary,
    embedding_constants,
    first_eigenvalue,
    integrate,
    lp,
    norm,
)
from graphpde.spectral import _cholesky_solver
from util import (
    lattice,
    path_graph,
    random_connected_graph,
    random_dirichlet,
    random_partition,
    rayleigh_quotient,
)


def test_eigen_oracle_three_path(path3):
    graph, part = path3
    res = first_eigenvalue(graph, part)
    assert res.lambda1 == pytest.approx(1.0, abs=1e-12)
    assert res.iterations == 0
    assert res.residual <= 1e-12
    assert res.eigenfunction[part.boundary].tolist() == [0.0, 0.0]
    assert res.eigenfunction[1] == pytest.approx(1 / math.sqrt(2), rel=1e-12)


def test_eigen_oracle_four_path():
    graph = path_graph("abcd")
    part = compute_boundary(graph, ["b", "c"])
    res = first_eigenvalue(graph, part)
    assert res.lambda1 == pytest.approx(0.5, abs=1e-12)
    assert res.eigenfunction.tolist() == pytest.approx([0.0, 0.5, 0.5, 0.0], abs=1e-12)
    # normalized in the interior L2 sense, first nonzero entry positive
    mass = float(np.dot(graph.measure[part.omega], res.eigenfunction[part.omega] ** 2))
    assert mass == pytest.approx(1.0, rel=1e-12)


def test_eigen_scaling_invariance(rng):
    graph = random_connected_graph(rng, n_max=15, measure_mode="given")
    ids = list(graph.vertex_ids)
    s = 3.7
    scaled = build_graph(
        ids,
        [
            (ids[int(i)], ids[int(j)], s * float(w))
            for (i, j), w in zip(graph.edge_index, graph.edge_weight)
        ],
        measure_mode="given",
        measures={vid: s * float(m) for vid, m in zip(ids, graph.measure)},
    )
    part = random_partition(rng, graph)
    part_scaled = compute_boundary(scaled, [ids[i] for i in part.omega])
    lam = first_eigenvalue(graph, part).lambda1
    lam_scaled = first_eigenvalue(scaled, part_scaled).lambda1
    assert lam_scaled == pytest.approx(lam, rel=1e-12)


def test_rayleigh_is_upper_bound(rng):
    for _ in range(4):
        graph = random_connected_graph(rng, n_max=25)
        part = random_partition(rng, graph)
        lam = first_eigenvalue(graph, part).lambda1
        for _ in range(50):
            u = random_dirichlet(rng, graph, part)
            if not np.any(u[part.omega]):
                continue
            assert lam <= rayleigh_quotient(graph, part, u) * (1 + 1e-12)


def test_rayleigh_needs_mass(path3):
    graph, part = path3
    with pytest.raises(ValueError):
        rayleigh_quotient(graph, part, np.zeros(3))


def test_norm_equivalence_and_embeddings(rng):
    graph = random_connected_graph(rng, n_max=30)
    part = random_partition(rng, graph)
    h0 = 0.75
    h = rng.uniform(h0, 3.0, size=graph.n)
    rep = embedding_constants(graph, part, h, h0)
    upper = math.sqrt(rep.equiv_upper)
    for _ in range(200):
        u = random_dirichlet(rng, graph, part)
        nd = norm(graph, part, u, DIRICHLET_W12)
        nf = norm(graph, part, u, FULL_W12)
        nh = norm(graph, part, u, H_NORM, h=h)
        assert nd <= nf * (1 + 1e-12)
        assert nf <= upper * nd * (1 + 1e-12)
        assert norm(graph, part, u, lp(math.inf)) <= rep.sup_embedding * nh * (1 + 1e-12)
        for q in (1.0, 2.0, 4.0):
            assert norm(graph, part, u, lp(q)) <= rep.lq_embedding(q) * nh * (1 + 1e-12)


def test_iterative_agrees_with_dense(rng):
    graph = random_connected_graph(rng, n_min=25, n_max=35)
    part = random_partition(rng, graph)
    if part.omega.size < 2:
        part = compute_boundary(graph, [graph.vertex_ids[i] for i in range(10)])
    dense = first_eigenvalue(graph, part)
    iterative = first_eigenvalue(graph, part, dense_cutoff=0)
    assert dense.iterations == 0
    assert iterative.iterations >= 1
    assert iterative.lambda1 == pytest.approx(dense.lambda1, rel=1e-9)


def test_iterative_factors_once(monkeypatch, rng):
    graph = random_connected_graph(rng, n_min=25, n_max=35)
    part = random_partition(rng, graph)
    if part.omega.size < 2:
        part = compute_boundary(graph, [graph.vertex_ids[i] for i in range(10)])
    dense = first_eigenvalue(graph, part)

    factorizations = []
    cholesky = np.linalg.cholesky

    def counted(a):
        factorizations.append(a.shape)
        return cholesky(a)

    def refactoring_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve factors the matrix again")

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    monkeypatch.setattr(np.linalg, "solve", refactoring_solve)
    iterative = first_eigenvalue(graph, part, dense_cutoff=0)
    assert factorizations == [(part.omega.size, part.omega.size)]
    assert iterative.iterations >= 1
    assert iterative.lambda1 == pytest.approx(dense.lambda1, rel=1e-9)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
def test_cholesky_solver_matches_dense_solve(rng, n):
    b = rng.standard_normal((n, n))
    a = b @ b.T + n * np.eye(n)
    y = rng.standard_normal(n)
    y_before = y.copy()
    x = _cholesky_solver(a)(y)
    assert np.array_equal(y, y_before)
    assert np.linalg.norm(a @ x - y) <= 1e-12 * np.linalg.norm(y)
    ref = np.linalg.solve(a, y)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_default_iterative_branch_lattice_oracle():
    graph, part = lattice(17)
    assert part.omega.size == 225  # above the default dense_cutoff of 200
    res = first_eigenvalue(graph, part)
    assert res.iterations >= 1
    assert res.lambda1 == pytest.approx(1.0 - math.cos(math.pi / 16), rel=1e-10)
    u = res.eigenfunction
    assert np.all(u[part.boundary] == 0.0) and np.all(u[part.exterior] == 0.0)
    assert integrate(graph, u * u, part.omega) == pytest.approx(1.0, rel=1e-12)
    assert rayleigh_quotient(graph, part, u) == pytest.approx(res.lambda1, rel=1e-10)


def test_eigen_rejects_empty_boundary(path3):
    graph, _ = path3
    part = compute_boundary(graph, ["a", "b", "c"])
    assert part.boundary.size == 0
    with pytest.raises(ValueError):
        first_eigenvalue(graph, part)


def test_eigen_rejects_disconnected_closure():
    graph = build_graph(
        ["a", "b", "c", "d"], [("a", "b", 1.0), ("c", "d", 1.0)]
    )
    part = compute_boundary(graph, ["a", "c"])
    with pytest.raises(ValueError):
        first_eigenvalue(graph, part)


def test_constants_report_fields(path3):
    graph, part = path3
    h = np.ones(3)
    rep = embedding_constants(graph, part, h, 1.0)
    assert rep.lambda1 == pytest.approx(1.0, abs=1e-12)
    assert rep.equiv_upper == pytest.approx(2.0, abs=1e-12)
    assert rep.mu_min == 1.0
    assert rep.sup_embedding == pytest.approx(1.0)
    assert rep.kappa == pytest.approx(1.0)
    assert rep.hypothesis == "H1"
    assert rep.omega_measure == 2.0
    assert rep.lq_embedding(2) == pytest.approx(math.sqrt(2.0))


def test_constants_h3_variant(path3):
    graph, part = path3
    h = np.full(3, 0.1)
    rep = embedding_constants(graph, part, h, 0.1, hypothesis="H3")
    # 1 - mu_min h0 int h = 1 - 0.1 * 0.02... int_omega h dmu = 2 * 0.1
    denom = 1.0 - 1.0 * 0.1 * 0.2
    assert rep.kappa == pytest.approx(math.sqrt(0.1) / math.sqrt(denom), rel=1e-12)

    with pytest.raises(ValueError):
        embedding_constants(graph, part, np.ones(3), 1.0, hypothesis="H3")


def test_constants_validation(path3):
    graph, part = path3
    with pytest.raises(ValueError):
        embedding_constants(graph, part, np.ones(3), 0.0)
    with pytest.raises(ValueError):
        embedding_constants(graph, part, np.ones(3), 1.0, hypothesis="H9")
    rep = embedding_constants(graph, part, np.ones(3), 1.0)
    with pytest.raises(ValueError):
        rep.lq_embedding(0.5)


def test_constants_reuse_precomputed_eigen(path3):
    graph, part = path3
    eig = first_eigenvalue(graph, part)
    rep = embedding_constants(graph, part, np.ones(3), 1.0, eigen=eig)
    assert rep.lambda1 == eig.lambda1
