"""Random graph, partition and function generators shared by the tests."""

from collections import deque

import numpy as np

from graphpde import Problem, build_graph, compute_boundary, dirichlet_energy, integrate
from graphpde.nonlinearity import reaction_derivative


def random_connected_graph(rng, n_min=5, n_max=50, measure_mode="derived"):
    """Random spanning tree plus extra edges, weights in [0.1, 10]."""
    n = int(rng.integers(n_min, n_max + 1))
    ids = [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(j, i)] = float(rng.uniform(0.1, 10.0))
    for _ in range(int(rng.integers(0, n))):
        a, b = sorted(int(k) for k in rng.integers(0, n, size=2))
        if a != b and (a, b) not in edges:
            edges[(a, b)] = float(rng.uniform(0.1, 10.0))
    edge_list = [(ids[a], ids[b], w) for (a, b), w in sorted(edges.items())]
    measures = None
    if measure_mode == "given":
        measures = {vid: float(rng.uniform(0.1, 10.0)) for vid in ids}
    return build_graph(ids, edge_list, measure_mode=measure_mode, measures=measures)


def bfs_order(graph, start=0):
    seen = [False] * graph.n
    seen[start] = True
    order = [start]
    queue = deque([start])
    while queue:
        i = queue.popleft()
        nbr, _ = graph.neighbors(i)
        for j in nbr:
            j = int(j)
            if not seen[j]:
                seen[j] = True
                order.append(j)
                queue.append(j)
    return order


def random_partition(rng, graph):
    """Connected interior (a BFS prefix) with nonempty boundary."""
    order = bfs_order(graph, int(rng.integers(0, graph.n)))
    k = int(rng.integers(1, graph.n))
    omega = [graph.vertex_ids[i] for i in order[:k]]
    return compute_boundary(graph, omega)


def random_subset_partition(rng, graph, p_omega=0.4):
    """Random interior set, possibly disconnected, with nonempty boundary;
    vertices farther out are exterior."""
    while True:
        omega = [vid for vid in graph.vertex_ids if rng.random() < p_omega]
        if omega:
            part = compute_boundary(graph, omega)
            if part.boundary.size:
                return part


def interior_matrix_loop(graph, partition):
    """Per-vertex assembly of the interior Dirichlet Laplacian: the
    diagonal is np.sum of the incident weights, each interior neighbor
    subtracts its weight off the diagonal."""
    idx = partition.omega
    pos = {int(i): k for k, i in enumerate(idx)}
    nint = len(idx)
    mat = np.zeros((nint, nint))
    for k, i in enumerate(idx):
        nbr, w = graph.neighbors(int(i))
        mat[k, k] = float(np.sum(w))
        for j, wj in zip(nbr, w):
            kk = pos.get(int(j))
            if kk is not None:
                mat[k, kk] -= wj
    return mat


def resample_side(points):
    """Per-side reference for the solver's one-pass resample: the points
    redistributed uniformly by Euclidean arc length along their polygon,
    both ends kept exactly."""
    deltas = np.diff(points, axis=0)
    seg = np.sqrt(np.sum(deltas * deltas, axis=1))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    total = cum[-1]
    if not total > 0.0:
        return points
    targets = np.linspace(0.0, total, len(points))
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seg) - 1)
    safe = np.where(seg[idx] > 0.0, seg[idx], 1.0)
    local = np.where(seg[idx] > 0.0, (targets - cum[idx]) / safe, 0.0)
    out = points[idx] + local[:, None] * deltas[idx]
    out[0] = points[0]
    out[-1] = points[-1]
    return out


def resample_about(path, i):
    """Each side of path point i resampled on its own by resample_side."""
    out = path.copy()
    out[: i + 1] = resample_side(path[: i + 1])
    out[i:] = resample_side(path[i:])
    return out


def hessian(problem, u):
    """The energy's Hessian at u in the interior unknowns,
    L_int + diag(mu (h - f_u)), with L_int from the per-vertex assembly."""
    omega = problem.partition.omega
    mu = problem.graph.measure[omega]
    fu = reaction_derivative(problem.nl, np.asarray(u, dtype=float)[omega])
    hess = interior_matrix_loop(problem.graph, problem.partition)
    hess += np.diag(mu * (problem.h[omega] - fu))
    return hess


def morse_index(problem, u):
    """Number of negative eigenvalues of the energy's Hessian at u."""
    return int(np.sum(np.linalg.eigvalsh(hessian(problem, u)) < 0.0))


def rayleigh_quotient(graph, partition, u):
    """int_closure |grad u|^2 / int_omega u^2, the quotient lambda1 minimizes."""
    u = np.asarray(u, dtype=float)
    mass = integrate(graph, u * u, partition.omega)
    if mass == 0.0:
        raise ValueError("Rayleigh quotient needs u nonzero on the interior")
    return dirichlet_energy(graph, partition, u) / mass


def random_dirichlet(rng, graph, partition, scale=2.0):
    u = np.zeros(graph.n)
    u[partition.omega] = rng.uniform(-scale, scale, size=partition.omega.size)
    return u


def path_graph(ids, weights=None, measure_mode="derived", measures=None):
    ids = list(ids)
    if weights is None:
        weights = [1.0] * (len(ids) - 1)
    edges = [(ids[k], ids[k + 1], float(w)) for k, w in enumerate(weights)]
    return build_graph(ids, edges, measure_mode=measure_mode, measures=measures)


def three_path_problem(nl, h0=1.0, h_value=1.0):
    """Unit 3-path with interior {b} and constant coefficient h."""
    graph = path_graph("abc")
    partition = compute_boundary(graph, ["b"])
    h = np.full(3, float(h_value))
    return Problem(graph=graph, partition=partition, h=h, nl=nl, h0=h0)


def lattice(k):
    """k x k unit lattice with the non-edge vertices as interior; its
    corners are exterior and its rim carries boundary-boundary edges.
    Its first Dirichlet eigenvalue is 1 - cos(pi / (k - 1))."""
    ids = [f"{r},{c}" for r in range(k) for c in range(k)]
    edges = [(f"{r},{c}", f"{r},{c + 1}", 1.0) for r in range(k) for c in range(k - 1)]
    edges += [(f"{r},{c}", f"{r + 1},{c}", 1.0) for r in range(k - 1) for c in range(k)]
    graph = build_graph(ids, edges)
    part = compute_boundary(graph, [f"{r},{c}" for r in range(1, k - 1) for c in range(1, k - 1)])
    return graph, part


def lattice_problem(k, nl):
    """The k x k lattice with h = 1 and reaction term nl."""
    graph, part = lattice(k)
    return Problem(graph=graph, partition=part, h=np.ones(graph.n), nl=nl, h0=1.0)


def bisect(fn, lo, hi, tol=1e-15, max_iter=200):
    """Scalar root by bisection; fn(lo) and fn(hi) must differ in sign."""
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    assert (flo < 0.0) != (fhi < 0.0), "bisection needs a sign change"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or hi - lo <= tol:
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
