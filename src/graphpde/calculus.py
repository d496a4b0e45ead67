"""Discrete calculus on weighted graphs.

With w_xy the edge weights and mu the vertex measure:

    laplacian(u)(x)       = (1/mu(x)) * sum_{y~x} w_xy (u(y) - u(x))
    gradient_form(u,v)(x) = (1/(2 mu(x))) * sum_{y~x} w_xy (u(y)-u(x)) (v(y)-v(x))

Integrals are measure-weighted sums over a vertex set.  The energy
seminorm integrates |grad u|^2 over the closure (interior plus
boundary); zero-order terms integrate over the interior only.  Neighbor
sums accumulate in stored edge order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DomainPartition, GraphError, WeightedGraph, is_dirichlet


def _neighbor_sum(graph: WeightedGraph, contrib: np.ndarray) -> np.ndarray:
    # np.add.at is unbuffered and applies contributions in index order,
    # so each vertex accumulates its incidences in stored edge order.
    out = np.zeros(graph.n)
    np.add.at(out, graph.adj_center, contrib)
    return out


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


def _interior_matrix(graph: WeightedGraph, partition: DomainPartition) -> np.ndarray:
    """Dense weighted Dirichlet Laplacian on interior unknowns.

    Row x: the diagonal holds the full incident weight sum of x,
    accumulated in stored edge order; the off-diagonal entries are
    -w_xy for interior neighbors y; boundary values are pinned at zero.
    Assembled from the flattened adjacency: build_graph rejects
    duplicate edges, so each off-diagonal entry is written once.
    Internal assembly helper, not a public interface.
    """
    idx = partition.omega
    nint = len(idx)
    pos = np.full(graph.n, -1, dtype=np.int64)
    pos[idx] = np.arange(nint)
    row = pos[graph.adj_center]
    col = pos[graph.adj_nbr]
    inside = row >= 0
    diag = np.zeros(nint)
    np.add.at(diag, row[inside], graph.adj_w[inside])
    mat = np.diag(diag)
    both = inside & (col >= 0)
    mat[row[both], col[both]] = -graph.adj_w[both]
    return mat
