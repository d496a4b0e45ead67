"""Discrete calculus on weighted graphs.

With w_xy the edge weights and mu the vertex measure:

    laplacian(u)(x)       = (1/mu(x)) * sum_{y~x} w_xy (u(y) - u(x))
    gradient_form(u,v)(x) = (1/(2 mu(x))) * sum_{y~x} w_xy (u(y)-u(x)) (v(y)-v(x))

Integrals are measure-weighted sums over a vertex set.  The energy
seminorm integrates |grad u|^2 over the closure (interior plus
boundary); zero-order terms integrate over the interior only.  Neighbor
sums accumulate in stored edge order.  The Dirichlet unknowns are the
values on the interior: _interior_laplacian, the one vertex -> unknown
map, holds the Laplacian on them that the energy, the eigen step and the
solvers read (_interior_matrix: its band, whose diagonal the solvers'
P and Newton's Jacobians replace).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DomainPartition, GraphError, WeightedGraph, is_dirichlet


def _neighbor_sum(graph: WeightedGraph, contrib: np.ndarray) -> np.ndarray:
    # np.bincount adds the weights in index order, so each vertex
    # accumulates its incidences in stored edge order.
    return np.bincount(graph.adj_center, weights=contrib, minlength=graph.n)


def laplacian(graph: WeightedGraph, u: np.ndarray) -> np.ndarray:
    """Weighted graph Laplacian of u at every vertex."""
    u = np.asarray(u, dtype=float)
    diff = u[graph.adj_nbr] - u[graph.adj_center]
    return _neighbor_sum(graph, graph.adj_w * diff) / graph.measure


def gradient_form(graph: WeightedGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Symmetric bilinear gradient form of u and v at every vertex."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    du = u[graph.adj_nbr] - u[graph.adj_center]
    dv = v[graph.adj_nbr] - v[graph.adj_center]
    return _neighbor_sum(graph, graph.adj_w * du * dv) / (2.0 * graph.measure)


def integrate(graph: WeightedGraph, f: np.ndarray, region: np.ndarray) -> float:
    """Measure-weighted sum of f over the given vertex indices."""
    region = np.asarray(region, dtype=np.int64)
    if region.size and (region.min() < 0 or region.max() >= graph.n):
        raise GraphError("region contains unknown vertex indices")
    f = np.asarray(f, dtype=float)
    return float(np.dot(graph.measure[region], f[region]))


def dirichlet_energy(graph: WeightedGraph, partition: DomainPartition, u: np.ndarray) -> float:
    """Integral of |grad u|^2 over the closure, by the per-vertex form."""
    g = gradient_form(graph, u, u)
    return integrate(graph, g, partition.closure)


def edge_energy(graph: WeightedGraph, partition: DomainPartition, u: np.ndarray) -> float:
    """Same energy assembled per edge: each closure edge contributes
    w_xy (u(x)-u(y))^2, i.e. twice the half-weighted square seen from
    each endpoint.  Cross-check for dirichlet_energy on Dirichlet u."""
    u = np.asarray(u, dtype=float)
    i = graph.edge_index[:, 0]
    j = graph.edge_index[:, 1]
    both = partition.closure_mask[i] & partition.closure_mask[j]
    d = u[i] - u[j]
    return float(np.sum(graph.edge_weight[both] * d[both] ** 2))


# ----- norms ----- #

@dataclass(frozen=True)
class NormKind:
    """Norm selector: full_w12, dirichlet_w12, h_norm, or lp(p)."""

    tag: str
    p: float | None = None


FULL_W12 = NormKind("full_w12")
DIRICHLET_W12 = NormKind("dirichlet_w12")
H_NORM = NormKind("h_norm")


def lp(p: float) -> NormKind:
    p = float(p)
    if not p >= 1.0:  # also rejects NaN
        raise ValueError(f"lp norm requires p >= 1 (or inf), got {p}")
    return NormKind("lp", p)


def norm(
    graph: WeightedGraph,
    partition: DomainPartition,
    u: np.ndarray,
    kind: NormKind,
    h: np.ndarray | None = None,
) -> float:
    """Norm of u.

    full_w12      sqrt( int_closure |grad u|^2 + int_omega u^2 )
    dirichlet_w12 sqrt( int_closure |grad u|^2 )
    h_norm        sqrt( int_closure |grad u|^2 + int_omega h u^2 )
    lp(p)         ( int_omega |u|^p )^(1/p), sup norm for p = inf

    The three energy norms require a Dirichlet u; lp does not.
    """
    u = np.asarray(u, dtype=float)
    if kind.tag == "lp":
        vals = np.abs(u[partition.omega])
        if math.isinf(kind.p):
            return float(vals.max()) if vals.size else 0.0
        return float(np.dot(graph.measure[partition.omega], vals ** kind.p) ** (1.0 / kind.p))
    if not is_dirichlet(partition, u):
        raise ValueError("u is not a Dirichlet function (nonzero off the interior)")
    energy = dirichlet_energy(graph, partition, u)
    if kind.tag == "dirichlet_w12":
        return math.sqrt(energy)
    if kind.tag == "full_w12":
        return math.sqrt(energy + integrate(graph, u * u, partition.omega))
    if kind.tag == "h_norm":
        if h is None:
            raise ValueError("h_norm requires the coefficient h")
        radicand = energy + integrate(graph, np.asarray(h, dtype=float) * u * u, partition.omega)
        if radicand < 0.0:
            raise ValueError(f"h-norm radicand is negative ({radicand}); h is not admissible")
        return math.sqrt(radicand)
    raise ValueError(f"unknown norm kind {kind.tag!r}")


def green_residual(
    graph: WeightedGraph, partition: DomainPartition, u: np.ndarray, v: np.ndarray
) -> float:
    """Integration-by-parts defect, zero in exact arithmetic.

    Returns int_closure gradient_form(u,v) + int_omega laplacian(u) v
    for v supported in the interior.  The two terms cancel for any u,
    so the value measures floating point error only.
    """
    v = np.asarray(v, dtype=float)
    if not is_dirichlet(partition, v):
        raise ValueError("green_residual requires v supported in the interior")
    gamma_side = integrate(graph, gradient_form(graph, u, v), partition.closure)
    other = integrate(graph, laplacian(graph, u) * v, partition.omega)
    return gamma_side + other


@dataclass(frozen=True, eq=False)
class _InteriorLaplacian:
    """The Dirichlet Laplacian L on the interior unknowns, unknown k at
    vertex omega[k]; a Dirichlet function vanishes on off.  ends holds
    the unknowns at the two ends of each edge inside omega as (2, m), w
    their weights, w_off the weight from each unknown out of omega, mu
    the measure and diag, L's diagonal, each unknown's incident weight
    summed in stored edge order.  Internal, not a public interface."""

    omega: np.ndarray
    off: np.ndarray
    ends: np.ndarray
    w: np.ndarray
    w_off: np.ndarray
    mu: np.ndarray
    diag: np.ndarray

    def quadratic(self, v: np.ndarray) -> float:
        """v^T L v = sum_e w_e (v(i_e) - v(j_e))^2 + sum w_off v^2."""
        d = np.subtract(*v[self.ends])
        return float((d * d) @ self.w + (v * v) @ self.w_off)

    def expand(self, v: np.ndarray) -> np.ndarray:
        """The function on every vertex with interior values v, zero on off."""
        u = np.zeros(len(self.omega) + len(self.off))
        u[self.omega] = v
        return u


def _interior_laplacian(graph: WeightedGraph, partition: DomainPartition) -> _InteriorLaplacian:
    """The interior Laplacian of partition.omega."""
    omega, k = partition.omega, len(partition.omega)
    pos = np.full(graph.n, -1)
    pos[omega] = np.arange(k)
    ends = pos[graph.edge_index.T]  # -1 at an end off omega
    inner = np.all(ends >= 0, axis=0)
    cut = (ends >= 0) & ~inner  # the interior end of each edge leaving omega
    weights = np.broadcast_to(graph.edge_weight, ends.shape)
    inc = ends.T >= 0  # edge by edge: diag sums in stored edge order, not as w_off + inner sums
    return _InteriorLaplacian(
        omega=omega, off=np.flatnonzero(~partition.omega_mask),
        ends=np.ascontiguousarray(ends[:, inner]), w=graph.edge_weight[inner],
        w_off=np.bincount(ends[cut], weights[cut], k), mu=graph.measure[omega],
        diag=np.bincount(ends.T[inc], weights.T[inc], k),
    )


def _interior_matrix(op: _InteriorLaplacian) -> np.ndarray:
    """The interior Laplacian as its lower band: a (bw + 1, n) array,
    band[d, j] the entry (j + d, j), bw the largest |i - j| of a nonzero
    entry (i, j), zeros past the matrix's end.  Row 0 is op.diag; below
    it each edge inside omega writes its -w once (build_graph rejects
    duplicate edges).  No n x n array is formed."""
    i, j = op.ends
    offset = np.abs(i - j)
    band = np.zeros((int(np.max(offset, initial=0)) + 1, len(op.diag)))
    band[0] = op.diag
    band[offset, np.minimum(i, j)] = -op.w
    return band
