"""First Dirichlet eigenvalue and the derived embedding constants.

The first eigenvalue is the minimum of the Rayleigh quotient

    int_closure |grad u|^2  /  int_omega u^2

over Dirichlet functions, computed as the smallest eigenvalue of the
generalized problem L u = lambda M u on interior unknowns, where L is
the weighted Dirichlet Laplacian and M = diag(mu).  Small problems are
solved densely with eigh; large ones by inverse iteration that factors
L once, by _band_solver (a = C S C^T, S = +-1: Cholesky blocks, or eigh
where Cholesky fails), and then only back-substitutes.
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


# Row/column block size of _band_solver: no np.linalg.cholesky or eigh
# call sees a larger matrix, and below an eigh block C fills the block.
_BLOCK = 64


def _band_solver(a: np.ndarray, bw: int) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the symmetric nonsingular a once; return y -> a^(-1) y.

    bw is the bandwidth of a: a[i, j] = 0 for |i - j| > bw.  a = C S C^T
    with S diagonal +-1 and C block lower triangular, computed
    left-looking one block b of _BLOCK columns at a time: the panel of a
    on b and the bw rows below it, minus the products of the band of
    C S C^T left of b, is factored in its top block, whose inverse is
    kept, and scaled by that inverse and S_b below.  The top block is
    factored by np.linalg.cholesky (S_b = I), or where that fails by
    np.linalg.eigh (C_bb = Q |Lambda|^(1/2), S_b = sign Lambda; the rows
    of C below it fill that block, so a later panel whose left edge
    k - bw falls in it starts at its first column).  So C is the banded
    Cholesky factor of a positive definite a, and the -1s of S count the
    negative eigenvalues of a (Haynsworth).  An exactly singular top
    block raises LinAlgError.  A solve is a blocked forward substitution
    with C, a product with S and a blocked back substitution with C^T.
    Factor and solves touch C only within bw rows below each diagonal
    block, so the factor costs O(n bw _BLOCK) and a solve
    O(n (bw + _BLOCK)).  A full band (bw >= n - 1) is the dense blocked
    factor.  y may be a vector or an (n, k) matrix.
    """
    n = a.shape[0]
    c = np.zeros(a.shape)  # C below its diagonal blocks, whose inverses are kept
    s = np.ones(n)  # the diagonal of S
    edge = np.arange(n)  # column j, or the first column of j's block if eigh factored it
    blocks = []
    for k in range(0, n, _BLOCK):
        b = slice(k, min(k + _BLOCK, n))
        lo, hi = int(edge[max(0, k - bw)]), min(n, b.stop + bw)
        # C S on b's rows; unscaled while S = I, so P and L keep numpy's A @ A.T path
        left = c[b, lo:k] * s[lo:k] if s.min() < 0.0 else c[b, lo:k]
        panel = a[k:hi, b] - c[k:hi, lo:k] @ left.T
        try:
            cbb = np.linalg.cholesky(panel[: b.stop - k])
        except np.linalg.LinAlgError:
            lam, q = np.linalg.eigh(panel[: b.stop - k])
            cbb, s[b], edge[b] = q * np.sqrt(np.abs(lam)), np.sign(lam), k
        inv = np.linalg.inv(cbb)
        c[b.stop : hi, b] = panel[b.stop - k :] @ inv.T * s[b]
        blocks.append((b, lo, hi, inv))

    def solve(y: np.ndarray) -> np.ndarray:
        z = np.array(y, dtype=float)
        for b, lo, _, inv in blocks:
            z[b] = inv @ (z[b] - c[b, lo : b.start] @ z[lo : b.start])
        z.T[...] *= s  # S on every column of z
        for b, _, hi, inv in reversed(blocks):
            z[b] = inv.T @ (z[b] - c[b.stop : hi, b].T @ z[b.stop : hi])
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
    lmat, bw = _interior_matrix(graph, partition)
    mdiag = graph.measure[idx]
    iterations = 0
    if len(idx) <= dense_cutoff:
        d = 1.0 / np.sqrt(mdiag)
        smat = lmat * d[:, None] * d[None, :]
        smat = 0.5 * (smat + smat.T)
        evals, evecs = np.linalg.eigh(smat)
        lam = float(evals[0])
        u_int = d * evecs[:, 0]  # back to the generalized problem; int u^2 dmu = 1
    else:
        solve = _band_solver(lmat, bw)
        u_int = np.full(len(idx), 1.0 / math.sqrt(float(np.sum(mdiag))))
        lam = float(u_int @ lmat @ u_int)
        for iterations in range(1, max_iterations + 1):
            z = solve(mdiag * u_int)
            u_int = z / math.sqrt(float(z @ (mdiag * z)))
            lam, lam_old = float(u_int @ lmat @ u_int), lam
            if abs(lam - lam_old) <= tolerance * max(1.0, abs(lam)):
                break
        else:
            raise ValueError(
                f"inverse power iteration did not converge in {max_iterations} iterations"
            )

    size = np.abs(u_int)
    if u_int[np.argmax(size > 1e-14 * np.max(size))] < 0.0:  # first nonzero entry
        u_int = -u_int
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
