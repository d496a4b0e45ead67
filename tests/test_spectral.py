"""First Dirichlet eigenvalue and embedding constants."""

import math
import warnings

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
from graphpde import spectral
from graphpde.calculus import _interior_laplacian, _interior_matrix
from graphpde.spectral import _BLOCK, _band_solver, _invert_lower
from util import (
    band_matrix,
    interior_matrix_loop,
    lattice,
    lower_band,
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
    assert res.iterations == 0  # one unknown: the start spans the space, no Lanczos step
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


def _log_uniform_weights(rng, graph):
    """graph with given measures and its edge weights redrawn
    log-uniform over [1e-6, 1e6]."""
    ids = list(graph.vertex_ids)
    edges = [
        (ids[int(i)], ids[int(j)], float(10.0 ** rng.uniform(-6.0, 6.0)))
        for i, j in graph.edge_index
    ]
    measures = {vid: float(m) for vid, m in zip(ids, graph.measure)}
    return build_graph(ids, edges, measure_mode="given", measures=measures)


def _dense_eigh(graph, part):
    """numpy's dense eigh of M^(-1/2) L M^(-1/2), with L from the
    per-vertex assembly: lambda1, that matrix's 2-norm and the Rayleigh
    quotient of eigh's first eigenvector, from the per-vertex form."""
    d = 1.0 / np.sqrt(graph.measure[part.omega])
    lam, vec = np.linalg.eigh(interior_matrix_loop(graph, part) * d[:, None] * d[None, :])
    u = np.zeros(graph.n)
    u[part.omega] = d * vec[:, 0]
    return lam[0], float(np.max(np.abs(lam))), rayleigh_quotient(graph, part, u)


def test_iterative_agrees_with_dense(rng):
    cases = []
    for k in range(22):
        # weights in [0.1, 10] with derived (k = 0) and given (k = 1)
        # measures, then given measures and log-uniform weights
        mode, wide = ("derived" if k == 0 else "given"), k > 1
        graph = random_connected_graph(rng, n_min=25, n_max=35, measure_mode=mode)
        if wide:
            graph = _log_uniform_weights(rng, graph)
        part = random_partition(rng, graph)
        if part.omega.size < 2:
            part = compute_boundary(graph, [graph.vertex_ids[i] for i in range(10)])
        cases.append((graph, part, wide))
    eps = np.finfo(float).eps
    for graph, part, wide in cases:
        res = first_eigenvalue(graph, part)
        dense, norm2, quotient = _dense_eigh(graph, part)
        assert res.iterations >= 1
        # lambda1 minimizes the Rayleigh quotient: the Ritz vector's is no
        # larger than that of eigh's eigenvector
        assert res.lambda1 <= quotient * (1 + 1e-13)
        if wide:
            # eigh's error is absolute, about eps times the matrix's norm,
            # which here can exceed lambda1 itself
            assert abs(res.lambda1 - dense) <= part.omega.size * eps * norm2
        else:
            assert res.lambda1 == pytest.approx(dense, rel=1e-11)
        # the residual is the dense max |L u - lambda M u|, up to rounding
        lmat = interior_matrix_loop(graph, part)
        mu = graph.measure[part.omega]
        u = res.eigenfunction[part.omega]
        want = np.max(np.abs(lmat @ u - res.lambda1 * mu * u))
        scale = np.max(np.abs(lmat) @ np.abs(u) + abs(res.lambda1) * mu * np.abs(u))
        assert abs(res.residual - want) <= (graph.n + 4) * eps * scale


def test_iterative_factors_once(monkeypatch, rng):
    graph = random_connected_graph(rng, n_min=25, n_max=35)
    part = random_partition(rng, graph)
    if part.omega.size < 2:
        part = compute_boundary(graph, [graph.vertex_ids[i] for i in range(10)])
    dense = _dense_eigh(graph, part)[0]
    # 225 interior unknowns of bandwidth 15: four blocks, one factor each,
    # of the block's columns and the 15 rows below them
    big_graph, big_part = lattice(17)

    factorizations = []
    cholesky = np.linalg.cholesky

    def counted(a):
        factorizations.append(a.shape)
        return cholesky(a)

    def refactoring_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve factors the matrix again")

    def inverse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called on a positive definite band")

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    monkeypatch.setattr(np.linalg, "solve", refactoring_solve)
    monkeypatch.setattr(np.linalg, "inv", inverse)
    iterative = first_eigenvalue(graph, part)
    assert factorizations == [(part.omega.size, part.omega.size)]
    assert iterative.iterations >= 1
    assert iterative.lambda1 == pytest.approx(dense, rel=1e-11)

    factorizations.clear()
    big = first_eigenvalue(big_graph, big_part)
    assert len(factorizations) == math.ceil(225 / _BLOCK) == 4
    assert all(rows == cols <= _BLOCK + 15 for rows, cols in factorizations)
    assert big.lambda1 == pytest.approx(1.0 - math.cos(math.pi / 16), rel=1e-13)


def _banded_spd(rng, n, bandwidth):
    i, j = np.indices((n, n))
    low = np.where((i >= j) & (i - j <= bandwidth), rng.standard_normal((n, n)), 0.0)
    return low @ low.T + n * np.eye(n)


def _check_solver(rng, a, bandwidth):
    band = lower_band(a, bandwidth)
    assert np.array_equal(band_matrix(band), a)
    solve = _band_solver(band)
    for y in (rng.standard_normal(len(a)), rng.standard_normal((len(a), 3))):
        y_before = y.copy()
        x = solve(y)
        assert x.shape == y.shape
        assert np.array_equal(y, y_before)
        assert np.linalg.norm(a @ x - y) <= 1e-12 * np.linalg.norm(y)
        ref = np.linalg.solve(a, y)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


# the last three straddle the window factor's limit: bandwidth <= _BLOCK
# factors each block's window whole, a wider band each block's top
_BANDWIDTHS = (1, 15, _BLOCK - 1, _BLOCK, _BLOCK + 1)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
def test_cholesky_solver_matches_dense_solve(monkeypatch, rng, n):
    # positive definite: every block of the band solver is a Cholesky
    # block, with no negative sign in S; a wide band inverts each block
    # while it factors, by _invert_lower, so no bandwidth calls np.linalg.inv
    calls = []
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a.shape))
    for bandwidth in sorted({min(bw, n - 1) for bw in (*_BANDWIDTHS, n - 1)}):
        a = _banded_spd(rng, n, bandwidth)
        _check_solver(rng, a, bandwidth)
        assert _band_solver(lower_band(a, bandwidth)).negatives == 0
    assert calls == []


def test_band_solver_inverts_its_blocks_at_the_first_solve(monkeypatch, rng):
    # a factor asked only for negatives inverts nothing; the first solve
    # inverts every window block in one stacked pass, and later solves
    # reuse it, bit for bit
    graph, part = lattice(17)
    band = _interior_matrix(_interior_laplacian(graph, part))
    passes = []

    def counted(t):
        passes.append(t.shape)
        _invert_lower(t)

    monkeypatch.setattr("graphpde.spectral._invert_lower", counted)
    assert _band_solver(band).negatives == 0
    assert passes == []
    solve = _band_solver(band)
    y = rng.standard_normal((225, 3))
    x = solve(y)
    assert passes == [(4, _BLOCK, _BLOCK)]
    assert np.array_equal(solve(y), x)
    assert passes == [(4, _BLOCK, _BLOCK)]
    # a vector is one column of a matrix right-hand side, up to rounding
    a = band_matrix(band)
    for k in range(3):
        assert np.allclose(solve(y[:, k]), x[:, k], rtol=1e-14, atol=1e-14 * np.abs(x[:, k]).max())
    assert np.linalg.norm(a @ x - y) <= 1e-13 * np.linalg.norm(a) * np.linalg.norm(x)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 31, 32, 33, 50, 63, 64])
def test_stacked_triangular_inverse_matches_inv(rng, m):
    # well-conditioned lower triangular m x m blocks, identity-padded to
    # the next power of two as the band solver stacks them
    size = 1 << (m - 1).bit_length()
    blocks = np.tril(rng.uniform(-1.0, 1.0, (5, m, m)) / m) + np.diag(rng.uniform(1.0, 2.0, m))
    stack = np.tile(np.eye(size), (5, 1, 1))
    stack[:, :m, :m] = blocks
    _invert_lower(stack)
    for block, inverse in zip(blocks, stack):
        want = np.linalg.inv(block)
        assert np.linalg.norm(inverse[:m, :m] - want) <= 1e-13 * np.linalg.norm(want)
        assert np.array_equal(inverse[m:, m:], np.eye(size - m))
        assert not inverse[m:, :m].any() and not np.triu(inverse, 1).any()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
def test_band_solver_factors_indefinite_matrices(monkeypatch, rng, n):
    # negative diagonal entries in the first, a middle and the last block;
    # each of those blocks, and only those, goes to eigh, at every bandwidth
    negative = sorted({0, (n // _BLOCK // 2) * _BLOCK, n - 1})
    blocks = len({i // _BLOCK for i in negative})
    calls = _routes(monkeypatch)
    for bandwidth in sorted({min(bw, n - 1) for bw in (*_BANDWIDTHS, n - 1)}):
        a = _banded_spd(rng, n, bandwidth)
        a[negative, negative] -= 3 * n + 4 * a[negative, negative]
        calls.clear()
        _check_solver(rng, a, bandwidth)
        assert len(calls) == blocks

    # an exactly singular block stops the factor
    with pytest.raises(np.linalg.LinAlgError):
        _band_solver(np.array([[1.0, 0.0, -1.0]]))


def _negatives(a):
    return int(np.sum(np.linalg.eigvalsh(a) < 0.0))


def _routes(monkeypatch):
    """Record, from here on, each eigh call's shape."""
    eigh, calls = np.linalg.eigh, []

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _dominant_band(rng, n, bandwidth):
    # strictly diagonally dominant by a margin: the rows a test makes
    # weak are the only weak rows of any window
    i, j = np.indices((n, n))
    low = np.where((i > j) & (i - j <= bandwidth), rng.uniform(-1.0, 1.0, (n, n)), 0.0)
    a = low + low.T
    return a + np.diag(np.abs(a).sum(1) + rng.uniform(1.0, 2.0, n))


def test_band_solver_takes_eigh_on_weak_rows_within_and_below_a_block(monkeypatch, rng):
    # 150 unknowns of bandwidth 10: blocks 0 .. 63, 64 .. 127, 128 .. 149.
    # Windows with 1 to 4 rows that are not diagonally dominant: a block
    # holding a negative one goes to eigh; a block whose window reaches one
    # only below the block keeps a Cholesky top block
    calls = _routes(monkeypatch)
    cases = [
        # two adjacent negative rows in mid-block, and the matrix's last row
        ([96, 97, 149], [(_BLOCK, _BLOCK), (22, 22)]),
        # a negative and a positive weak row in mid-block, a negative row in
        # the last block
        ([90, 140], [(_BLOCK, _BLOCK), (22, 22)]),
        # a negative row in block 0, and one of block 1 inside block 0's
        # window: block 1's left edge is block 0's first column
        ([30, 70], [(_BLOCK, _BLOCK)] * 2),
        # block 1's first rows: block 0's window fails below the block only
        ([64, 66], [(_BLOCK, _BLOCK)]),
        # four negative rows in one window, the last on a block edge
        ([3, 11, 19, 63], [(_BLOCK, _BLOCK)]),
    ]
    for negative, routes in cases:
        a = _dominant_band(rng, 150, 10)
        a[negative, negative] *= -2.0
        if negative == [90, 140]:
            a[100, 100] = 0.5 * (np.abs(a[100]).sum() - a[100, 100])  # weak, still positive
        calls.clear()
        _check_solver(rng, a, 10)
        assert calls == routes
        solve = _band_solver(lower_band(a, 10))
        assert solve.negatives == _negatives(a) == len(negative)
        y = rng.standard_normal(150)
        x = solve(y)  # normwise backward error |a x - y| / (|a|_2 |x| + |y|)
        norms = np.linalg.norm(a, 2) * np.linalg.norm(x) + np.linalg.norm(y)
        assert np.linalg.norm(a @ x - y) <= 1e-13 * norms


def test_band_solver_sends_what_cholesky_refuses_to_eigh(monkeypatch, rng):
    calls = _routes(monkeypatch)
    # five weak rows in one window
    a = _dominant_band(rng, 40, 3)
    rows = list(range(3, 40, 8))
    a[rows, rows] *= -2.0
    calls.clear()
    _check_solver(rng, a, 3)
    assert calls == [(40, 40)]
    assert _band_solver(lower_band(a, 3)).negatives == _negatives(a) == 5
    # a negative entry 200 times below max|diag|
    a = _dominant_band(rng, 40, 3)
    a[0, 0] = -np.abs(np.diag(a)).max() / 200.0
    calls.clear()
    _check_solver(rng, a, 3)
    assert calls == [(40, 40)]
    # a small negative entry beside an off-diagonal one 100 times its size
    a = _dominant_band(rng, 40, 3)
    scale = np.abs(np.diag(a)).max()
    a[0, 0] = -scale / 50.0
    a[1, 0] = a[0, 1] = 2 * scale
    calls.clear()
    _check_solver(rng, a, 3)
    assert calls == [(40, 40)]
    # an exactly singular window: eigh's zero eigenvalue stops the factor
    calls.clear()
    with pytest.raises(np.linalg.LinAlgError):
        _band_solver(np.array([[1.0, 0.0, -1.0]]))
    assert calls == [(3, 3)]


def test_band_solver_inverts_around_an_eigh_block_and_padding(monkeypatch, rng):
    # 150 unknowns, so the last block has padding rows; the middle block
    # holds five negative rows and goes to eigh, and C left of the last
    # block is its below panel, from its first column.  The stacked
    # inverse meets neither slot's zero diagonal: no division by zero, as
    # an error
    calls = _routes(monkeypatch)
    a = _dominant_band(rng, 150, 3)
    rows = list(range(70, 120, 8))[:5]
    a[rows, rows] *= -2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_solver(rng, a, 3)
    assert calls == [(_BLOCK, _BLOCK)]
    assert _band_solver(lower_band(a, 3)).negatives == _negatives(a) == 5


@pytest.mark.parametrize("a, negatives", [(4.0, 0), (-4.0, 1), (2.0, 0), (-2.0, 1)])
def test_band_solver_one_unknown(a, negatives):
    # one Cholesky or one 1x1 eigh; sqrt(4) and its inverse are exact, so
    # there x = y / a to the last bit; for a = 2, within the two roundings
    # of 1 / sqrt(2)
    solve = _band_solver(np.array([[a]]))
    assert solve.negatives == negatives
    y = np.array([[3.0, -7.0, 0.1]])
    for x, want in ((solve(y), y / a), (solve(y[:, 0]), y[:, 0] / a)):
        if abs(a) == 4.0:
            assert x.tolist() == want.tolist()
        else:
            assert np.all(np.abs(x - want) <= 2.0**-51 * np.abs(want))


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
def test_band_solver_counts_negative_eigenvalues(monkeypatch, rng, n):
    # the -1s of S are the inertia of a: symmetric random bands shifted
    # to between two eigenvalues, so a block-by-block sweep of Cholesky
    # windows and eigh blocks meets every sign pattern of S; a -1 in S
    # comes only from eigh
    eigh, calls = np.linalg.eigh, []

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    for bandwidth in sorted({min(bw, n - 1) for bw in (*_BANDWIDTHS, n - 1)}):
        i, j = np.indices((n, n))
        low = np.where((i >= j) & (i - j <= bandwidth), rng.standard_normal((n, n)), 0.0)
        sym = low + low.T
        evals = np.linalg.eigvalsh(sym)
        middle = sorted(k for k in {n // 3, n // 2, n - 2} if 0 <= k < n - 1)
        shifts = [evals[0] - 1.0, evals[-1] + 1.0] + [0.5 * (evals[k] + evals[k + 1]) for k in middle]
        for sigma in shifts:
            a = sym - sigma * np.eye(n)
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigh", counted)
                negatives = _band_solver(lower_band(a, bandwidth)).negatives
            assert negatives == _negatives(a)
            assert (len(calls) > 0) == (negatives > 0)
        # a positive definite band, and the indefinite ones above, too
        a = _banded_spd(rng, n, bandwidth)
        assert _band_solver(lower_band(a, bandwidth)).negatives == 0
        a[0, 0] -= 3 * n + 4 * a[0, 0]
        assert _band_solver(lower_band(a, bandwidth)).negatives == _negatives(a) == 1


def test_band_solver_counts_eigenvalues_below_a_shift_on_the_lattice():
    # L - sigma M has as many negative eigenvalues as L u = lambda M u
    # has eigenvalues below sigma (Sylvester)
    graph, part = lattice(12)
    band = _interior_matrix(_interior_laplacian(graph, part))
    mu = graph.measure[part.omega]
    d = 1.0 / np.sqrt(mu)
    lam = np.linalg.eigvalsh(band_matrix(band) * d[:, None] * d[None, :])
    gaps = np.flatnonzero(np.diff(lam) > 1e-6)  # the lattice has repeated eigenvalues
    sigmas = [lam[0] - 1.0, lam[-1] + 1.0] + [0.5 * (lam[k] + lam[k + 1]) for k in gaps[::5]]
    counts = set()
    for sigma in sigmas:
        shifted = band.copy()
        shifted[0] -= sigma * mu
        expected = int(np.sum(lam < sigma))
        assert _band_solver(shifted).negatives == _negatives(band_matrix(shifted)) == expected
        counts.add(expected)
    assert {0, 1, part.omega.size} <= counts and len(counts) >= 12


def test_default_iterative_branch_lattice_oracle():
    graph, part = lattice(17)
    assert part.omega.size == 225
    res = first_eigenvalue(graph, part)
    assert res.iterations >= 1
    assert res.lambda1 == pytest.approx(1.0 - math.cos(math.pi / 16), rel=1e-13)
    u = res.eigenfunction
    assert np.all(u[part.boundary] == 0.0) and np.all(u[part.exterior] == 0.0)
    assert integrate(graph, u * u, part.omega) == pytest.approx(1.0, rel=1e-12)
    assert rayleigh_quotient(graph, part, u) == pytest.approx(res.lambda1, rel=1e-10)


def test_inverse_iteration_reads_the_interior_laplacian(monkeypatch):
    # v^T L v comes from the interior unknowns' edge arrays, not from an
    # edge pass over every vertex of the graph
    def closure_pass(*args):
        raise AssertionError("edge_energy called by first_eigenvalue")

    monkeypatch.setattr("graphpde.calculus.edge_energy", closure_pass)
    monkeypatch.setattr(spectral, "edge_energy", closure_pass, raising=False)
    graph, part = lattice(17)
    res = first_eigenvalue(graph, part)
    assert res.iterations >= 1
    assert res.lambda1 == pytest.approx(1.0 - math.cos(math.pi / 16), rel=1e-10)


def test_eigen_reports_non_convergence():
    graph, part = lattice(17)
    with pytest.raises(ValueError, match="^Lanczos did not converge in 1 steps$"):
        first_eigenvalue(graph, part, max_iterations=1)


@pytest.mark.parametrize("k", [12, 30, 40])
def test_lattice_lambda1_in_seven_lanczos_steps(k):
    # the benchmark's lattices: lambda1 to 1e-13 relative in at most 7
    # band solves
    graph, part = lattice(k)
    res = first_eigenvalue(graph, part)
    assert res.lambda1 == pytest.approx(1.0 - math.cos(math.pi / (k - 1)), rel=1e-13)
    assert res.iterations <= 7
    assert res.residual <= 1e-9


def test_tiny_lambda1_has_a_relative_stop():
    # a 30-vertex unit path under measures that put lambda1 at 7.0e-12,
    # where an absolute stop |dlambda| <= 1e-12 ends inverse iteration
    # after 2 steps, 1.4e-4 off; lambda_k = (2 - 2 cos(k pi / 31)) / mu
    unit = 2.0 - 2.0 * math.cos(math.pi / 31)
    ids = [f"v{i}" for i in range(32)]
    graph = path_graph(ids, measure_mode="given", measures={v: unit / 7.0e-12 for v in ids})
    part = compute_boundary(graph, ids[1:-1])
    res = first_eigenvalue(graph, part)
    assert res.lambda1 == pytest.approx(7.0e-12, rel=1e-13)
    assert res.iterations > 2


def test_invariant_start_stops_without_dividing_by_zero():
    # L = [[16, -4], [-4, 5]] and M = diag(24, 2): L 1 = M 1 / 2, and the
    # factor's solve is exact, so the first Lanczos step leaves nothing
    # orthogonal to the start, beta is 0, and the kernel stops there
    graph = path_graph("abcd", [12.0, 4.0, 1.0], measure_mode="given",
                       measures={"a": 1.0, "b": 24.0, "c": 2.0, "d": 1.0})
    part = compute_boundary(graph, ["b", "c"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = first_eigenvalue(graph, part)
    assert res.iterations == 1
    assert (res.lambda1, res.residual) == (0.5, 0.0)


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


def test_hypothesis_is_checked_before_any_eigen_work(monkeypatch, path3):
    graph, part = path3

    def refused(*args, **kwargs):
        raise AssertionError("eigen work before the hypothesis check")

    monkeypatch.setattr(spectral, "first_eigenvalue", refused)
    for hypothesis in ("H2", "proof", None):
        with pytest.raises(ValueError, match="'H1' or 'H3'"):
            spectral.embedding_kappa(graph, part, np.ones(3), 1.0, hypothesis)
        with pytest.raises(ValueError, match="'H1' or 'H3'"):
            embedding_constants(graph, part, np.ones(3), 1.0, hypothesis=hypothesis)


def test_constants_reuse_precomputed_eigen(path3):
    graph, part = path3
    eig = first_eigenvalue(graph, part)
    rep = embedding_constants(graph, part, np.ones(3), 1.0, eigen=eig)
    assert rep.lambda1 == eig.lambda1
