"""First Dirichlet eigenvalue and the derived embedding constants.

The first eigenvalue is the minimum of the Rayleigh quotient

    int_closure |grad u|^2  /  int_omega u^2

over Dirichlet functions, computed as the smallest eigenvalue of the
generalized problem L u = lambda M u on interior unknowns, where L is
the weighted Dirichlet Laplacian and M = diag(mu).  Small problems are
solved densely with eigh; large ones by inverse iteration that factors
L once (Cholesky) and then only back-substitutes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .calculus import _interior_matrix, integrate
from .graphs import DomainPartition, WeightedGraph


@dataclass(frozen=True, eq=False)
class EigenResult:
    """lambda1 with its eigenfunction (Dirichlet, normalized so that
    int_omega u^2 dmu = 1, first nonzero entry positive)."""

    lambda1: float
    eigenfunction: np.ndarray
    iterations: int
    residual: float


# Row/column block size of the triangular solves in _cholesky_solver.
_BLOCK = 64


def _cholesky_solver(a: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the symmetric positive definite a once; return y -> a^(-1) y.

    a = C C^T with C lower triangular.  Each solve is a blocked forward
    substitution with C followed by a blocked back substitution with
    C^T; the diagonal blocks of C are inverted once, here, so a solve
    costs two triangular sweeps of matrix-vector products.
    """
    c = np.linalg.cholesky(a)
    n = c.shape[0]
    blocks = [slice(k, min(k + _BLOCK, n)) for k in range(0, n, _BLOCK)]
    inv_diag = [np.linalg.inv(c[b, b]) for b in blocks]

    def solve(y: np.ndarray) -> np.ndarray:
        z = np.array(y, dtype=float)
        for b, inv in zip(blocks, inv_diag):
            z[b] = inv @ (z[b] - c[b, : b.start] @ z[: b.start])
        for b, inv in zip(reversed(blocks), reversed(inv_diag)):
            z[b] = inv.T @ (z[b] - c[b.stop :, b].T @ z[b.stop :])
        return z

    return solve


def first_eigenvalue(
    graph: WeightedGraph,
    partition: DomainPartition,
    tolerance: float = 1e-12,
    max_iterations: int = 500,
    dense_cutoff: int = 200,
) -> EigenResult:
    """Smallest Dirichlet eigenvalue of the domain.

    Up to dense_cutoff interior vertices the dense symmetric problem
    M^(-1/2) L M^(-1/2) is solved directly.  Above that, inverse
    iteration runs on L u = lambda M u from the constant function of
    unit mass: u <- L^(-1) M u, rescaled to int_omega u^2 dmu = 1, with
    lambda = u^T L u, until successive lambdas differ by at most
    tolerance * max(1, |lambda|).  L is factored once; each iteration
    only back-substitutes.
    """
    if partition.boundary.size == 0:
        raise ValueError(
            "empty boundary: constants make the Rayleigh quotient infimum 0, "
            "the eigenvalue problem is rejected"
        )
    if not partition.connected:
        raise ValueError("interior plus boundary must be connected")

    idx = partition.omega
    lmat = _interior_matrix(graph, partition)
    mdiag = graph.measure[idx]

    if len(idx) <= dense_cutoff:
        d = 1.0 / np.sqrt(mdiag)
        smat = lmat * d[:, None] * d[None, :]
        smat = 0.5 * (smat + smat.T)
        evals, evecs = np.linalg.eigh(smat)
        lam = float(evals[0])
        u_int = d * evecs[:, 0]  # back to the generalized problem; int u^2 dmu = 1
        iterations = 0
    else:
        solve = _cholesky_solver(lmat)
        u_int = np.full(len(idx), 1.0 / math.sqrt(float(np.sum(mdiag))))
        lam = float(u_int @ lmat @ u_int)
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            z = solve(mdiag * u_int)
            u_int = z / math.sqrt(float(z @ (mdiag * z)))
            lam_new = float(u_int @ lmat @ u_int)
            if abs(lam_new - lam) <= tolerance * max(1.0, abs(lam_new)):
                lam = lam_new
                break
            lam = lam_new
        else:
            raise ValueError(
                f"inverse power iteration did not converge in {max_iterations} iterations"
            )

    scale = np.max(np.abs(u_int))
    for val in u_int:
        if abs(val) > 1e-14 * scale:
            if val < 0.0:
                u_int = -u_int
            break
    u = np.zeros(graph.n)
    u[idx] = u_int
    residual = float(np.max(np.abs(lmat @ u_int - lam * mdiag * u_int)))
    return EigenResult(lambda1=lam, eigenfunction=u, iterations=iterations, residual=residual)


@dataclass(frozen=True, eq=False)
class ConstantsReport:
    """Numeric constants attached to a domain and coefficient h.

    equiv_upper: factor 1 + 1/lambda1 relating the squared full and
        Dirichlet W12 norms.
    sup_embedding: bounds the sup norm on the interior by
        sup_embedding * ||u||_h, equal to sqrt(1/(mu_min * h0)).
    kappa: radius scale used by the two-solution ball criterion,
        sqrt(mu_min * h0) under H1, or that value divided by
        sqrt(1 - mu_min * h0 * int_omega h dmu) under H3.  kappa and
        sup_embedding are reciprocal conventions; both are reported so
        either one can be read off directly.
    """

    lambda1: float
    equiv_upper: float
    mu_min: float
    h0: float
    sup_embedding: float
    kappa: float
    hypothesis: str
    omega_measure: float

    def lq_embedding(self, q: float) -> float:
        """L^q bound factor: (total omega measure)^(1/q) * sup_embedding."""
        q = float(q)
        if not q >= 1.0:
            raise ValueError(f"q must be >= 1, got {q}")
        return self.omega_measure ** (1.0 / q) * self.sup_embedding


def embedding_kappa(graph, partition, h, h0: float, hypothesis: str) -> float:
    """The radius scale sqrt(mu_min h0) under H1; under H3 that value
    divided by sqrt(1 - mu_min h0 int_omega h dmu), which must be
    positive."""
    mu_h0 = graph.mu_min * h0
    if hypothesis == "H1":
        return math.sqrt(mu_h0)
    radicand = 1.0 - mu_h0 * integrate(graph, np.asarray(h, dtype=float), partition.omega)
    if radicand <= 0.0:
        raise ValueError(
            "H3 kappa undefined: 1 - mu_min * h0 * int_omega h dmu = "
            f"{radicand} is not positive"
        )
    return math.sqrt(mu_h0) / math.sqrt(radicand)


def embedding_constants(
    graph: WeightedGraph,
    partition: DomainPartition,
    h: np.ndarray,
    h0: float,
    hypothesis: str = "H1",
    eigen: EigenResult | None = None,
) -> ConstantsReport:
    """Collect lambda1, the norm-equivalence factor and the embedding
    constants for the given uniform lower bound h0 of h."""
    h0 = float(h0)
    if not h0 > 0.0:
        raise ValueError(f"h0 must be positive, got {h0}")
    if hypothesis not in ("H1", "H3"):
        raise ValueError(f"hypothesis must be 'H1' or 'H3', got {hypothesis!r}")
    if eigen is None:
        eigen = first_eigenvalue(graph, partition)
    mu_min = graph.mu_min
    return ConstantsReport(
        lambda1=eigen.lambda1,
        equiv_upper=1.0 + 1.0 / eigen.lambda1,
        mu_min=mu_min,
        h0=h0,
        sup_embedding=math.sqrt(1.0 / (mu_min * h0)),
        kappa=embedding_kappa(graph, partition, h, h0, hypothesis),
        hypothesis=hypothesis,
        omega_measure=integrate(graph, np.ones(graph.n), partition.omega),
    )
