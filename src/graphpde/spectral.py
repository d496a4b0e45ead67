"""First Dirichlet eigenvalue and the derived embedding constants.

The first eigenvalue is the minimum of the Rayleigh quotient

    int_closure |grad u|^2  /  int_omega u^2

over Dirichlet functions, computed as the smallest eigenvalue of the
generalized problem L u = lambda M u on interior unknowns, where L is
the weighted Dirichlet Laplacian and M = diag(mu), both read off
calculus._interior_laplacian, L kept as its band.  One kernel serves
every graph: Lanczos on L^(-1) M with full reorthogonalization
(Ericsson & Ruhe, Math. Comp. 35, 1980; Parlett, The Symmetric
Eigenvalue Problem, SIAM 1998, ch. 13).  It factors L once, by
_band_solver (a = C S C^T, S = +-1: Cholesky windows; where Cholesky
fails, 1x1 pivots at the window's rows that are not diagonally
dominant, or else eigh blocks), and then only back-substitutes; its
only dense eigensolve is of the j x j tridiagonal after j steps.  The
reported lambda1 is the Rayleigh quotient of the Ritz vector, with
v^T L v the interior Laplacian's edge sum, and the residual's L u is
-mu times the graph Laplacian of u, a second route, so neither applies
L as a matrix.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .calculus import (
    _interior_laplacian, _interior_matrix, _InteriorLaplacian, integrate, laplacian,
)
from .graphs import DomainPartition, WeightedGraph


@dataclass(frozen=True, eq=False)
class EigenResult:
    """lambda1 with its eigenfunction (Dirichlet, normalized so that
    int_omega u^2 dmu = 1, first nonzero entry positive), the number of
    Lanczos steps, one band solve each (0 for one interior unknown), and
    the residual max |L u - lambda1 M u| over the interior unknowns,
    absolute."""

    lambda1: float
    eigenfunction: np.ndarray
    iterations: int
    residual: float


# Row/column block size of _band_solver; np.linalg.cholesky sees at most
# a block's window of 2 _BLOCK rows, and below an eigh block C fills it.
_BLOCK = 64
# Most 1x1 pivots _pivoted_window takes in a window, and its growth bound:
# it refuses a pivot |d| <= max|diag| / _GROWTH, or C^2 above _GROWTH max|diag|.
_PIVOTS = 4
_GROWTH = 100.0


def _band_panel(band: np.ndarray, k: int, m: int) -> np.ndarray:
    """Rows k .. k + m + bw - 1 and columns k .. k + m - 1 of the
    symmetric matrix whose lower band is band, with zeros above the
    diagonal, as an (m + bw, m) array; rows past the matrix's end hold
    band's padding.  Column c is band[:, k + c] shifted down by c: rows
    of length m + bw + 1, zero-padded, read back at length m + bw."""
    bw = len(band) - 1
    skew = np.zeros((m, bw + 1 + m))
    skew[:, : bw + 1] = band[:, k : k + m].T
    return skew.ravel()[: m * (bw + m)].reshape(m, bw + m).T


def _invert_lower(t: np.ndarray) -> None:
    """Invert the C-contiguous stack t of nonsingular lower triangular
    N x N matrices in place, N a power of two, by recursive doubling
    (Du Croz & Higham, IMA J. Numer. Anal. 12, 1992): the reciprocal
    diagonal, then for s = 1, 2, .. N/2 at once on every diagonal 2s
    block [[X11, 0], [A21, X22]], X21 = -X22 A21 X11."""
    size = t.shape[-1]
    diagonal = t.reshape(len(t), size * size)[:, :: size + 1]
    diagonal[...] = 1.0 / diagonal
    for s in (2**j for j in range(size.bit_length() - 1)):
        q = size // (2 * s)
        blocks = np.einsum("kiaib->kiab", t.reshape(len(t), q, 2 * s, q, 2 * s))
        a21 = blocks[..., s:, :s]
        a21[...] = -(blocks[..., s:, s:] @ a21 @ blocks[..., :s, :s])


def _cholesky(a: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky, or its LinAlgError at once where a diagonal entry is not > 0."""
    if not a.diagonal().min() > 0.0:
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return np.linalg.cholesky(a)


def _pivoted_window(window: np.ndarray, m: int, s: np.ndarray) -> np.ndarray | None:
    """Lower triangular C with window = C S C^T on its first m columns,
    the window read from its lower triangle, or None.  A 1x1 pivot d
    (C = |d|^(1/2), S = sign d, then a rank-1 Schur update) is taken at
    each row j < m not strictly diagonally dominant, a_jj <= sum_(l != j)
    |a_jl|, updating only down to its column's last nonzero (the window
    is banded); _cholesky factors the rows between pivots, the last
    segment down to the window's end, or to row m when the rows below
    the block are not definite.  None without such a row, with more than
    _PIVOTS, when a segment's Cholesky fails or a _GROWTH guard trips;
    else s, the block's entries of S, takes the pivots' signs."""
    a = window * np.tri(len(window))  # np.tril, at a third of its cost on one row
    mag = np.abs(a)
    # a_jj <= sum_(l != j) |a_jl| is 3 a_jj <= the sum of |a| along row j plus that down column j
    (weak,) = np.nonzero(3.0 * a.diagonal()[:m] <= mag[:m].sum(1) + mag[:, :m].sum(0))
    if not 0 < len(weak) <= _PIVOTS:
        return None
    scale = float(mag.diagonal().max())
    c, signs, start = np.zeros_like(a), np.ones(m), 0

    def segment(i, j):  # Cholesky on rows i .. j - 1, C below them and their update
        c[i:j, i:j] = top = _cholesky(a[i:j, i:j])
        c[j:, i:j] = np.linalg.solve(top, a[j:, i:j].T).T
        a[j:, j:] -= c[j:, i:j] @ c[j:, i:j].T

    try:
        for p in weak.tolist():
            if p > start:
                segment(start, p)
            pivot = float(a[p, p])
            if not abs(pivot) > scale / _GROWTH:
                return None
            signs[p] = sign = math.copysign(1.0, pivot)
            c[p, p] = root = math.sqrt(abs(pivot))
            start = p + 1
            if start < len(a):
                c[start:, p] = col = a[start:, p] * (sign / root)
                end = start + 1 + int(np.flatnonzero(col).max(initial=-1))
                a[start:end, start:end] -= sign * np.outer(col[: end - start], col[: end - start])
        if start < len(a):
            try:
                c[start:, start:] = _cholesky(a[start:, start:])
            except np.linalg.LinAlgError:
                if start < m:
                    segment(start, m)
    except np.linalg.LinAlgError:
        return None
    if np.abs(c[:, :m]).max() ** 2 > _GROWTH * scale:
        return None
    s[...] = signs
    return c


def _band_solver(band: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Factor the symmetric nonsingular matrix a once; return
    y -> a^(-1) y, whose attribute negatives counts the -1s of S.

    a is given by its lower band, as _interior_matrix returns it: a
    (bw + 1, n) array with band[d, j] = a[j + d, j], the diagonal in
    row 0 and bw the bandwidth of a (a[i, j] = 0 for |i - j| > bw).
    a = C S C^T with S diagonal +-1 and C block lower triangular,
    computed left-looking one block b of _BLOCK columns at a time: b's
    window, a on rows and columns b's start .. hi - 1, hi = min(n, b's
    end + bw), read off the band by _band_panel, minus the band of
    C S C^T left of b, which reaches only its first bw rows.  While
    bw <= _BLOCK _cholesky factors the whole window; its first columns
    are C on b and below (S_b = I).  Where that fails (at once where a
    diagonal entry is not > 0, as at the spike's row of Newton's Jacobian),
    _pivoted_window tries a guarded unpivoted LDL^T: C triangular, S_b
    the signs of 1x1 pivots at its few rows not diagonally dominant, no
    interchanges, stable by its growth guards and eigh fallback.  Where it
    refuses, and at every block when bw > _BLOCK (a window costs
    (bw + _BLOCK)^3 / 3), the window's first columns are factored in
    their top block and scaled below by its inverse and S_b:
    _cholesky (S_b = I, inverted by _invert_lower on an
    identity-padded copy), or where that fails np.linalg.eigh (C_bb =
    Q |Lambda|^(1/2), inverse (Q |Lambda|^(-1/2))^T, S_b = sign Lambda;
    the rows of C below it fill that block, so a later window whose left
    edge k - bw falls in it starts at its first column; a zero
    eigenvalue raises LinAlgError).  So C is the banded Cholesky factor
    of a positive definite a, and the -1s of S count the negative
    eigenvalues of any a (Haynsworth, Linear Algebra Appl. 1, 1968).

    C is kept as two panels per block b, never as an n x n array:
    below, C on b's columns and rows b's end .. hi - 1; and row, C on
    b's rows and columns lo .. b's start - 1, a view of the below panel
    of the block before b while bw <= _BLOCK (lo >= b's start - bw, or
    that block's start after eigh), else gathered from the below panels
    it crosses.  The windows' C_bb wait in one zero stack, identity only
    where _invert_lower would divide by 0 (the last block's padding, the
    slot of a block off the window route); the first solve inverts it in
    place, so a factor asked only for negatives inverts nothing.  A
    solve substitutes forward with the row panels, multiplies by S
    unless S = I (kept as a flag) and substitutes back with the below
    panels, skipping empty products.  The
    factor costs O(n (bw + _BLOCK)^2), about n^3 / 3 for a full band,
    and a solve O(n (bw + _BLOCK)).  y may be a vector or an (n, k)
    matrix.
    """
    bw, n = len(band) - 1, band.shape[1]
    s, signed = np.ones(n), False  # the diagonal of S, and whether it has a -1
    edge = np.arange(n)  # column j, or the first column of j's block if eigh factored it
    size = 1 << (min(n, _BLOCK) - 1).bit_length()
    stack = np.zeros((math.ceil(n / _BLOCK) if bw <= _BLOCK else 0, size, size))
    diagonal = stack.reshape(len(stack), size * size)[:, :: size + 1]
    diagonal[-1:, (n - 1) % _BLOCK + 1 :] = 1.0  # the last block's padding rows
    blocks = []
    for i, k in enumerate(range(0, n, _BLOCK)):
        b = slice(k, min(k + _BLOCK, n))
        m = b.stop - k
        lo, hi = int(edge[max(0, k - bw)]), min(n, b.stop + bw)
        c = min(hi - k, bw)  # C left of b is zero below row k + bw
        if bw <= _BLOCK and k > lo:  # all in the block before b: a view of its below panel
            left = blocks[-1][5][:, lo - blocks[-1][0].start :]
        else:  # C on rows k .. k + c - 1, columns lo .. k - 1
            left = np.zeros((c, k - lo))
            for b2, _, hi2, _, _, below in blocks[lo // _BLOCK :]:
                start = max(b2.start, lo)
                left[: hi2 - k, start - lo : b2.stop - lo] = below[k - b2.stop :, start - b2.start :]
        width = hi - k if bw <= _BLOCK else m  # the window, or its first m columns
        window = _band_panel(band, k, width)[: hi - k]
        if k > lo:
            # C S on those rows; unscaled while S = I, so P and L keep numpy's A @ A.T path
            scaled = left * s[lo:k] if signed else left
            window[:c, : min(c, width)] -= left @ scaled[:width].T
        if bw <= _BLOCK:
            try:
                cw = _cholesky(window)
            except np.linalg.LinAlgError:
                cw = _pivoted_window(window, m, s[b])
                signed = signed or bool(s[b].min() < 0.0)
            if cw is not None:
                stack[i, :m, :m] = cw[:m, :m]
                blocks.append((b, lo, hi, stack[i, :m, :m], left[:m], cw[m:, :m].copy()))
                continue
            diagonal[i] = 1.0  # an identity the first solve inverts and no solve reads
        panel = window[:, :m]
        t = np.eye(size)
        try:
            t[:m, :m] = _cholesky(panel[:m])
            _invert_lower(t[None])
            inv = t[:m, :m]
        except np.linalg.LinAlgError:
            lam, q = np.linalg.eigh(panel[:m])
            if not lam.all():
                raise np.linalg.LinAlgError("Singular matrix") from None
            inv, s[b], edge[b] = (q / np.sqrt(np.abs(lam))).T, np.sign(lam), k
            signed = signed or bool(lam.min() < 0.0)
        blocks.append((b, lo, hi, inv, left[:m], panel[m:] @ inv.T * s[b]))
    pending = [stack]  # inverted in place by the first solve

    def solve(y: np.ndarray) -> np.ndarray:
        if pending:
            _invert_lower(pending.pop())
        z = np.array(y, dtype=float)
        for b, lo, _, inv, row, _ in blocks:
            if b.start > lo:
                z[b.start : b.start + len(row)] -= row @ z[lo : b.start]
            z[b] = inv @ z[b]
        if signed:
            z.T[...] *= s  # S on every column of z
        for b, _, hi, inv, _, below in reversed(blocks):
            z[b] = inv.T @ (z[b] - below.T @ z[b.stop : hi] if hi > b.stop else z[b])
        return z

    solve.negatives = int(np.count_nonzero(s < 0.0)) if signed else 0
    return solve


def _lanczos(op: _InteriorLaplacian, tolerance: float, max_iterations: int):
    """(v, lambda, steps) for lambda1 of L v = lambda M v: Lanczos on
    L^(-1) M, self-adjoint in <x, y> = x^T M y / sum(mu) (unit mean
    square, so v^T L v does not overflow where mu is tiny), from the
    constant 1.  Each step solves with L's band factor, made once,
    orthogonalizes against the whole basis twice and takes eigh of the
    tridiagonal T_j.  Once T_j's largest eigenvalue theta moves by at
    most sqrt(tolerance) * theta (1 / theta is the Rayleigh quotient of
    L^(-1) M at v, whose error is at most lambda's), a step forms the
    Ritz vector v and lambda, its Rayleigh quotient with v^T L v an edge
    sum, so lambda >= lambda1 whatever the factor's rounding.  Stops
    when lambda moves by at most tolerance * lambda between two
    consecutive steps, or when the Krylov space is invariant: it spans
    every unknown (one unknown takes no step) or the next basis vector is
    0.  Raises ValueError after max_iterations steps, or when a basis
    vector leaves floating point.
    """
    mu, n, total = op.mu, len(op.mu), float(np.sum(op.mu))
    p, v = mu / total, np.ones(n)
    lam = op.quadratic(v) / total
    if n == 1:
        return v, lam, 0
    solve = _band_solver(_interior_matrix(op))
    size = min(n, max_iterations, 8)  # rows of the basis and of T, doubled when full
    q, tri = np.empty((size, n)), np.zeros((size, size))
    q[0] = v
    for steps in range(1, min(n, max_iterations) + 1):
        basis = q[:steps]
        w = solve(mu * basis[-1])
        h = basis @ (p * w)
        tri[steps - 1, steps - 1] = h[-1]
        w -= h @ basis
        w -= (basis @ (p * w)) @ basis
        b = math.sqrt(float(w @ (p * w)))
        if not b < math.inf:
            raise ValueError(
                f"the first eigenvalue leaves floating point: Lanczos step {steps} gives {b}"
            )
        last = steps == n or b == 0.0  # the Krylov space is invariant
        if steps == 1:  # T_1 = [theta], whose Ritz vector is the start
            theta = h[-1]
        else:
            ritz, s = np.linalg.eigh(tri[:steps, :steps])  # reads the lower band
            theta, theta_old = ritz[-1], theta
            if last or abs(theta - theta_old) <= math.sqrt(tolerance) * theta:
                v = s[:, -1] @ basis
                lam, lam_old = op.quadratic(v) / float(v @ (mu * v)), lam
                if abs(lam - lam_old) <= tolerance * lam:
                    break
            else:
                lam = math.nan  # the next lambda has no predecessor to compare with
        if last:
            break
        if steps == size:
            size = min(2 * size, n)
            q = np.concatenate((q, np.empty((size - steps, n))))
            tri = np.pad(tri, (0, size - steps))
        tri[steps, steps - 1] = b
        q[steps] = w / b
    else:
        raise ValueError(f"Lanczos did not converge in {max_iterations} steps")
    return v, lam, steps


@np.errstate(over="ignore", invalid="ignore")  # a result that leaves floating point is refused
def first_eigenvalue(
    graph: WeightedGraph,
    partition: DomainPartition,
    tolerance: float = 1e-12,
    max_iterations: int = 500,
    *,
    form: _InteriorLaplacian | None = None,
) -> EigenResult:
    """Smallest Dirichlet eigenvalue of the domain, by _lanczos on the
    interior values v.

    form is the interior Laplacian of partition when the caller holds it
    (Problem._form).  u is v with zeros off omega; the residual is
    max |L u - lambda M u| there, with L u = -mu laplacian(u).  Raises
    ValueError when _lanczos does, or when lambda1 or the residual is
    not finite (a finite residual also bounds every value of u).
    """
    if partition.boundary.size == 0:
        raise ValueError(
            "empty boundary: constants make the Rayleigh quotient infimum 0, "
            "the eigenvalue problem is rejected"
        )
    if not partition.connected:
        raise ValueError("interior plus boundary must be connected")

    op = _interior_laplacian(graph, partition) if form is None else form
    mu = op.mu
    v, lam, iterations = _lanczos(op, tolerance, max_iterations)
    v = v / math.sqrt(float(v @ (mu * v)))  # int_omega v^2 dmu = 1
    size = np.abs(v)
    if v[np.argmax(size > 1e-14 * np.max(size))] < 0.0:  # first nonzero entry
        v = -v
    u = op.expand(v)
    lu = -mu * laplacian(graph, u)[op.omega]  # L u, as u = 0 off omega
    residual = float(np.max(np.abs(lu - lam * mu * v)))
    if not (math.isfinite(lam) and math.isfinite(residual)):
        raise ValueError(
            f"the first eigenvalue leaves floating point: lambda1 = {lam}, residual = {residual}"
        )
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
    positive.  Any other hypothesis is a ValueError."""
    if hypothesis not in ("H1", "H3"):
        raise ValueError(f"hypothesis must be 'H1' or 'H3', got {hypothesis!r}")
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
    constants for the given uniform lower bound h0 of h.  Raises
    ValueError when one of them is not finite."""
    h0 = float(h0)
    if not h0 > 0.0:
        raise ValueError(f"h0 must be positive, got {h0}")
    kappa = embedding_kappa(graph, partition, h, h0, hypothesis)  # before any eigen work
    eigen = eigen or first_eigenvalue(graph, partition)
    mu_h0 = graph.mu_min * h0
    constants = ConstantsReport(
        lambda1=eigen.lambda1,
        equiv_upper=1.0 + 1.0 / eigen.lambda1,
        mu_min=graph.mu_min,
        h0=h0,
        sup_embedding=math.sqrt(1.0 / mu_h0) if mu_h0 else math.inf,  # refused below
        kappa=kappa,
        hypothesis=hypothesis,
        omega_measure=integrate(graph, np.ones(graph.n), partition.omega),
    )
    for name, value in vars(constants).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"the constant {name} leaves floating point: {value}")
    return constants
