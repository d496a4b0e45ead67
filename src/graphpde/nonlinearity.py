"""Nonlinearity families and sampled hypothesis checks.

Built-in families (all x-independent, F the antiderivative with
F(0) = 0, f_u the u-derivative):

    power(p)                f = |u|^(p-2) u,  F = |u|^p / p,  p > 2
    power_plus_const(p,eps) f = |u|^(p-2) u + eps
    odd_poly(c1,c3,...)     f = sum c_k u^k over odd k

Every power of u goes through one kernel, _abs_pow.  For an integral
exponent k in 1..64 it computes |u|^k by binary powering of s = u*u
(times |u| for odd k), which skips the slow paths float pow takes at
zeros and at results that underflow; on normal results it differs from
np.abs(u) ** k by at most k 2^-52 relative.  Other exponents keep
np.abs(u) ** k.  Odd polynomials sum their terms, c_k u^k as
c_k u |u|^(k-1), each power through the same kernel.

Hypothesis checks on the coefficient h are named H1 (uniform lower
bound), H2 (1/h summable, on a finite graph: no zeros) and H3 (an upper
bound on the h integral).  Checks on f are named F1..F8; sampled checks
scan a uniform grid and report a witness point, so a "holds" verdict is
evidence on the sampled range, not a proof.  Comparisons that are exact
equalities in closed form carry a 1e-12 relative float guard.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

_REL_GUARD = 1e-12  # slack for closed-form equality cases in sampled checks
F6_DEFAULT_THRESHOLD = 1e3  # f(u)/u at the range edge that the F6 proxy requires
GRID_POINTS = 10001  # points of every sampling grid: GridSpec, the |F| scan, F8


@dataclass(frozen=True)
class Nonlinearity:
    """A reaction term f(x, u) with antiderivative and u-derivative.

    ar_theta / ar_M are the superquadratic growth constants
    (theta * F(u) <= u f(u) for |u| >= M); growth_C / growth_p the
    polynomial growth constants (|f| <= C (1 + |u|^(p-1))).  They are
    optional metadata consumed by the checkers and the solver gates.
    """

    family: str
    p: float = 0.0
    eps: float = 0.0
    coeffs: tuple[tuple[int, float], ...] = ()
    ar_theta: float | None = None
    ar_M: float | None = None
    growth_C: float | None = None
    growth_p: float | None = None


def _check_optional(theta, M, C, growth_p):
    if theta is not None and not theta > 2.0:
        raise ValueError(f"ar_theta must exceed 2, got {theta}")
    if M is not None and not M > 0.0:
        raise ValueError(f"ar_M must be positive, got {M}")
    if C is not None and not C > 0.0:
        raise ValueError(f"growth_C must be positive, got {C}")
    if growth_p is not None and not growth_p > 2.0:
        raise ValueError(f"growth_p must exceed 2, got {growth_p}")


def power(p: float, *, theta=None, M=None, C=None, growth_p=None) -> Nonlinearity:
    p = float(p)
    if not 2.0 < p < math.inf:
        raise ValueError(f"power family requires a finite p > 2, got {p}")
    _check_optional(theta, M, C, growth_p)
    return Nonlinearity("power", p=p, ar_theta=theta, ar_M=M, growth_C=C, growth_p=growth_p)


def power_plus_const(
    p: float, eps: float, *, theta=None, M=None, C=None, growth_p=None
) -> Nonlinearity:
    p = float(p)
    if not 2.0 < p < math.inf:
        raise ValueError(f"power_plus_const family requires a finite p > 2, got {p}")
    eps = float(eps)
    if eps == 0.0 or not math.isfinite(eps):
        # eps = 0 would silently degenerate to the plain power family
        raise ValueError(f"power_plus_const requires a nonzero finite eps, got {eps}")
    _check_optional(theta, M, C, growth_p)
    return Nonlinearity(
        "power_plus_const", p=p, eps=eps,
        ar_theta=theta, ar_M=M, growth_C=C, growth_p=growth_p,
    )


def odd_poly(
    coeffs: Mapping[int, float], *, theta=None, M=None, C=None, growth_p=None
) -> Nonlinearity:
    """Odd polynomial f = sum c_k u^k; keys must be odd positive ints
    and each k c_k (hence c_k and c_k/(k+1)) a finite float."""
    items = []
    for k in sorted(coeffs):
        if k < 1 or k % 2 == 0:
            raise ValueError(f"odd_poly degrees must be odd positive integers, got {k}")
        c = float(coeffs[k])
        if not (k <= sys.float_info.max and math.isfinite(k * c)):
            raise ValueError(f"odd_poly coefficient c{k} = {c:g} does not give a finite k c_k")
        items.append((int(k), c))
    if not items:
        raise ValueError("odd_poly needs at least one coefficient")
    _check_optional(theta, M, C, growth_p)
    return Nonlinearity(
        "odd_poly", coeffs=tuple(items),
        ar_theta=theta, ar_M=M, growth_C=C, growth_p=growth_p,
    )


def parse_nonlinearity(spec: str) -> Nonlinearity:
    """Parse CLI strings like "power:p=4", "power_plus_const:p=4,eps=0.1"
    or "odd_poly:c1=-1,c3=1"."""
    family, sep, rest = spec.partition(":")
    if not sep or not rest:
        raise ValueError(f"nonlinearity spec needs parameters, got {spec!r}")
    params: dict[str, float] = {}
    for item in rest.split(","):
        key, sep2, val = item.partition("=")
        key = key.strip()
        if not sep2 or not key:
            raise ValueError(f"bad nonlinearity parameter {item!r} in {spec!r}")
        if key in params:
            raise ValueError(f"duplicate parameter {key!r} in {spec!r}")
        try:
            params[key] = float(val)
        except ValueError:
            raise ValueError(f"parameter {key!r} must be a real number in {spec!r}") from None
    if family == "power":
        if set(params) != {"p"}:
            raise ValueError(f"power takes exactly the parameter p, got {sorted(params)}")
        return power(params["p"])
    if family == "power_plus_const":
        if set(params) != {"p", "eps"}:
            raise ValueError(
                f"power_plus_const takes exactly p and eps, got {sorted(params)}"
            )
        return power_plus_const(params["p"], params["eps"])
    if family == "odd_poly":
        coeffs = {}
        for key, val in params.items():
            if not key.startswith("c") or not key[1:].isdigit():
                raise ValueError(f"odd_poly parameters look like c1, c3, ..., got {key!r}")
            coeffs[int(key[1:])] = val
        return odd_poly(coeffs)
    raise ValueError(f"unknown nonlinearity family {family!r}")


def _square_pow(s, m: int, out=None):
    """out * s^m (s^m when out is None) for an integer m >= 0, by binary
    powering of s."""
    while m:
        if m & 1:
            out = s if out is None else out * s
        m >>= 1
        if m:
            s = s * s
    return out


def _abs_pow(u, k):
    """|u|^k, the one power kernel of this module (see the module
    docstring): binary powering for an integral k in 1..64, otherwise
    np.abs(u) ** k.

    Each squaring doubles the relative error of its input, so binary
    powering is within k 2^-52 of |u|^k, while float pow is within an
    ulp for every k.  The cap 64 keeps that gap at most 2^-46 (1.4e-14),
    well under the 1e-12 guard of the sampled checks; past the cap
    the error bound would grow with k, so float pow takes over."""
    if not (1.0 <= k <= 64.0 and float(k).is_integer()):
        return np.abs(u) ** k
    k = int(k)
    return _square_pow(u * u, k // 2, np.abs(u) if k % 2 else None)


def reaction(nl: Nonlinearity, u):
    """f at the values u (an array of any shape), elementwise."""
    if nl.family in ("power", "power_plus_const"):
        out = _abs_pow(u, nl.p - 2.0) * u
        if nl.family == "power_plus_const":
            out = out + nl.eps
        return out
    out = np.zeros_like(u)
    for k, c in nl.coeffs:
        out = out + c * u * _abs_pow(u, k - 1)
    return out


def antiderivative(nl: Nonlinearity, u):
    """F, the antiderivative of f with F(0) = 0, elementwise."""
    if nl.family in ("power", "power_plus_const"):
        out = _abs_pow(u, nl.p) / nl.p
        if nl.family == "power_plus_const":
            out = out + nl.eps * u
        return out
    out = np.zeros_like(u)
    for k, c in nl.coeffs:
        out = out + c / (k + 1) * _abs_pow(u, k + 1)
    return out


def reaction_derivative(nl: Nonlinearity, u):
    """f_u, the u-derivative of f, elementwise."""
    if nl.family in ("power", "power_plus_const"):
        return (nl.p - 1.0) * _abs_pow(u, nl.p - 2.0)
    out = np.zeros_like(u)
    for k, c in nl.coeffs:
        out = out + k * c * _abs_pow(u, k - 1)
    return out


def evaluate(nl: Nonlinearity, u):
    """Return (f, F, f_u) at u; scalar in, scalar out.  Callers that
    need one quantity call reaction, antiderivative or
    reaction_derivative directly."""
    scalar = np.isscalar(u) or np.ndim(u) == 0
    arr = np.asarray(u, dtype=float)
    f, F, fu = reaction(nl, arr), antiderivative(nl, arr), reaction_derivative(nl, arr)
    if scalar:
        return float(f), float(F), float(fu)
    return f, F, fu


def antiderivative_peak(nl: Nonlinearity, u_max: float):
    """max |F| over GRID_POINTS uniform grid points on [-u_max, u_max],
    and the first of them where it is attained."""
    us = np.linspace(-u_max, u_max, GRID_POINTS)
    big_f = np.abs(antiderivative(nl, us))
    k = int(np.argmax(big_f))
    return float(big_f[k]), float(us[k])


def smoothness_note(nl: Nonlinearity) -> str:
    """Analytic differentiability statement per family (check F1)."""
    if nl.family in ("power", "power_plus_const") and nl.p < 3.0:
        return (
            f"{nl.family} with p = {nl.p:g} < 3: f is C^1 on R (f_u exists and is "
            "continuous) but not C^2 at u = 0"
        )
    if nl.family == "odd_poly":
        return "odd polynomial: f is smooth on R"
    return f"{nl.family} with p = {nl.p:g}: f is C^1 on R and smooth away from u = 0"


# ----- sampled checks ----- #

@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric sampling grid of GRID_POINTS points on
    [-u_max, u_max]."""

    u_max: float

    def __post_init__(self):
        if not self.u_max > 0.0:
            raise ValueError(f"u_max must be positive, got {self.u_max}")

    def values(self) -> np.ndarray:
        return np.linspace(-self.u_max, self.u_max, GRID_POINTS)

    def label(self) -> str:
        return f"[-{self.u_max:g}, {self.u_max:g}] with {GRID_POINTS} points"

    @staticmethod
    def default(M: float | None = None, M0: float | None = None) -> "GridSpec":
        u_max = 10.0
        for bound in (M, M0):
            if bound is not None:
                u_max = max(u_max, 2.0 * float(bound))
        return GridSpec(u_max)


@dataclass(frozen=True)
class HypothesisVerdict:
    """Outcome of one hypothesis check.

    witness describes the failing point or the certified bound;
    sampled_range records the grid for sampled checks (None for exact
    ones); data carries the numeric constants behind the verdict.
    """

    name: str
    holds: bool
    witness: str
    sampled_range: str | None = None
    data: Mapping[str, float] = field(default_factory=dict)


def check_h(graph, partition, h, which: str, h0: float | None = None) -> HypothesisVerdict:
    """Check H1 (h >= h0 on the interior), H2 (no zeros of h on the
    interior, with the summed 1/|h| reported) or H3 (the h integral is
    at most 1/(mu_min h0))."""
    h = np.asarray(h, dtype=float)
    omega = partition.omega
    h_omega = h[omega]
    if which == "H1":
        if h0 is None or not h0 > 0.0:
            raise ValueError("H1 needs a positive h0")
        k = int(np.argmin(h_omega))
        hmin = float(h_omega[k])
        vid = graph.vertex_ids[int(omega[k])]
        return HypothesisVerdict(
            "H1", hmin >= h0,
            f"min h on the interior is {hmin:g} at vertex {vid!r} (required >= h0 = {h0:g})",
            sampled_range="interior vertices",
            data={"h_min": hmin, "h0": float(h0)},
        )
    if which == "H2":
        zeros = np.flatnonzero(h_omega == 0.0)
        if zeros.size:
            vid = graph.vertex_ids[int(omega[zeros[0]])]
            return HypothesisVerdict(
                "H2", False, f"h vanishes at vertex {vid!r}; 1/h is not summable",
                sampled_range="interior vertices",
            )
        l1 = float(np.dot(graph.measure[omega], 1.0 / np.abs(h_omega)))
        return HypothesisVerdict(
            "H2", True,
            f"h has no interior zeros; int 1/|h| dmu = {l1:g}",
            sampled_range="interior vertices",
            data={"l1_of_inverse": l1},
        )
    if which == "H3":
        if h0 is None or not h0 > 0.0:
            raise ValueError("H3 needs a positive h0")
        h_int = float(graph.measure[omega] @ h_omega)
        bound = 1.0 / (graph.mu_min * h0)
        holds = h_int <= bound
        return HypothesisVerdict(
            "H3", holds,
            f"int_omega h dmu = {h_int:g} vs bound 1/(mu_min h0) = {bound:g}",
            sampled_range="interior vertices",
            data={"h_integral": float(h_int), "bound": float(bound)},
        )
    raise ValueError(f"unknown h-hypothesis {which!r}")


def f1_verdict(nl: Nonlinearity) -> HypothesisVerdict:
    """F1 is a smoothness statement; for the built-in families it holds
    by construction and is reported analytically, not sampled."""
    return HypothesisVerdict("F1", True, smoothness_note(nl))


@np.errstate(over="ignore", invalid="ignore")
def check_f(
    nl: Nonlinearity,
    which: str,
    grid: GridSpec,
    *,
    theta: float | None = None,
    M: float | None = None,
    C: float | None = None,
    p: float | None = None,
) -> HypothesisVerdict:
    """Sampled checks F2..F7 on the nonlinearity.

    F2  f(0) = 0 and f_u(0) = 0 (exact, from closed forms)
    F3  |f(u)| <= C (1 + |u|^(p-1))              needs C, p
    F4  0 < theta F(u) <= u f(u) for |u| >= M    needs theta, M
    F5  f(u)/u nondecreasing on u > 0
    F6  proxy: f(u_max)/u_max >= F6_DEFAULT_THRESHOLD at the range edge
    F7  f(0) != 0 (exact)

    Constants default to the ones stored on the nonlinearity.  F3..F6
    fail at the first grid point where f or F is not finite.  F8 needs
    the ball's constants and is decided by f8_verdict alone.
    """
    theta = nl.ar_theta if theta is None else theta
    M = nl.ar_M if M is None else M
    C = nl.growth_C if C is None else C
    p = nl.growth_p if p is None else p

    if which == "F2":
        f0, _, fu0 = evaluate(nl, 0.0)
        holds = f0 == 0.0 and fu0 == 0.0
        return HypothesisVerdict(
            "F2", holds, f"f(0) = {f0:g}, f_u(0) = {fu0:g} (both must vanish)",
            data={"f0": f0, "fu0": fu0},
        )
    if which == "F7":
        f0 = float(reaction(nl, 0.0))
        holds = f0 != 0.0
        return HypothesisVerdict(
            "F7", holds, f"f(0) = {f0:g} (must be nonzero)", data={"f0": f0}
        )

    if which == "F3" and (C is None or p is None):
        raise ValueError("F3 needs the growth constants C and p")
    if which == "F3" and not (C > 0.0 and p > 2.0):
        raise ValueError(f"F3 needs C > 0 and p > 2, got C={C}, p={p}")
    if which == "F4" and (theta is None or M is None):
        raise ValueError("F4 needs the constants theta and M")
    if which == "F4" and not (theta > 2.0 and M > 0.0):
        raise ValueError(f"F4 needs theta > 2 and M > 0, got theta={theta}, M={M}")
    us = grid.values()
    if which == "F4" and not (np.abs(us) >= M).any():
        raise ValueError(f"grid {grid.label()} does not reach |u| >= M = {M:g}")
    f, F = reaction(nl, us), antiderivative(nl, us)
    finite = np.isfinite(f) & np.isfinite(F)
    if which in ("F3", "F4", "F5", "F6") and not finite.all():
        return HypothesisVerdict(
            which, False, f"f or F is not finite at u = {us[np.argmin(finite)]:g}, the first "
            "such grid point", sampled_range=grid.label(),
        )

    if which == "F3":
        bound = C * (1.0 + _abs_pow(us, p - 1.0))
        slack = bound * (1.0 + _REL_GUARD)
        bad = np.abs(f) > slack
        if bad.any():
            k = int(np.argmax(np.abs(f) - slack))
            return HypothesisVerdict(
                "F3", False,
                f"|f({us[k]:g})| = {abs(f[k]):g} exceeds C(1+|u|^(p-1)) = {bound[k]:g}",
                sampled_range=grid.label(), data={"C": C, "p": p},
            )
        worst = int(np.argmax(np.abs(f) / bound))
        return HypothesisVerdict(
            "F3", True,
            f"|f| <= C(1+|u|^(p-1)) on the grid; tightest at u = {us[worst]:g}",
            sampled_range=grid.label(), data={"C": C, "p": p},
        )
    if which == "F4":
        sel = np.abs(us) >= M
        lhs = theta * F[sel]
        rhs = us[sel] * f[sel]
        uu = us[sel]
        pos_bad = lhs <= 0.0
        ineq_bad = lhs > rhs + _REL_GUARD * np.maximum(1.0, np.abs(rhs))
        bad = pos_bad | ineq_bad
        if bad.any():
            k = int(np.argmax(bad))
            reason = "theta F <= 0" if pos_bad[k] else "theta F > u f"
            return HypothesisVerdict(
                "F4", False,
                f"{reason} at u = {uu[k]:g} (theta F = {lhs[k]:g}, u f = {rhs[k]:g})",
                sampled_range=grid.label(), data={"theta": theta, "M": M},
            )
        return HypothesisVerdict(
            "F4", True,
            f"0 < theta F(u) <= u f(u) at every grid point with |u| >= {M:g}",
            sampled_range=grid.label(), data={"theta": theta, "M": M},
        )
    if which == "F5":
        sel = us > 0.0
        up = us[sel]
        ratio = f[sel] / up
        diffs = np.diff(ratio)
        tol = _REL_GUARD * np.maximum(1.0, np.abs(ratio[:-1]))
        bad = diffs < -tol
        if bad.any():
            k = int(np.argmax(bad))
            return HypothesisVerdict(
                "F5", False,
                f"f(u)/u decreases from {ratio[k]:g} at u = {up[k]:g} "
                f"to {ratio[k + 1]:g} at u = {up[k + 1]:g}",
                sampled_range=grid.label(),
            )
        return HypothesisVerdict(
            "F5", True, "f(u)/u is nondecreasing across the positive grid points",
            sampled_range=grid.label(),
        )
    if which == "F6":
        edge = float(us[-1])
        ratio = float(f[-1] / edge)
        holds = ratio >= F6_DEFAULT_THRESHOLD
        return HypothesisVerdict(
            "F6", holds,
            f"proxy for f(u)/u -> infinity: f({edge:g})/{edge:g} = {ratio:g} vs "
            f"threshold {F6_DEFAULT_THRESHOLD:g} (sampled evidence, not a proof)",
            sampled_range=grid.label(),
            data={"ratio": ratio, "threshold": F6_DEFAULT_THRESHOLD},
        )
    raise ValueError(f"unknown f-hypothesis {which!r}")


def f8_verdict(max_abs, u_at, M0, beta, mu_min, h0) -> HypothesisVerdict:
    """F8, max |F| on [-M0, M0] <= M0^2/(2 (beta+1) mu_min h0), from
    max_abs, the largest |F| on GRID_POINTS uniform grid points over
    [-M0, M0], attained first at u_at (see antiderivative_peak)."""
    bound = M0 ** 2 / (2.0 * (beta + 1.0) * mu_min * h0)
    holds = max_abs <= bound * (1.0 + _REL_GUARD)
    return HypothesisVerdict(
        "F8", holds,
        f"max |F| on [-M0, M0] is {max_abs:g} at u = {u_at:g} vs bound "
        f"M0^2/(2(beta+1) mu_min h0) = {bound:g}",
        sampled_range=f"[-{M0:g}, {M0:g}] with {GRID_POINTS} points",
        data={"max_abs_F": max_abs, "bound": bound, "beta": beta},
    )


@np.errstate(over="ignore", invalid="ignore")
def ar_lower_bound(
    nl: Nonlinearity, theta: float, M: float, grid: GridSpec
) -> HypothesisVerdict:
    """Superquadratic lower bound implied by the AR condition.

    With c_side = theta ln M - ln F(+-M), checks
    F(u) >= exp(-c_side) |u|^theta for grid points with |u| >= M (the
    additive slack constant is zero on this range), with equality at
    u = M by construction.  Requires F(+-M) > 0; a nonpositive value
    means the AR condition already fails at M, and one that is not
    finite leaves the bound undefined.  Fails at the first grid point
    where F or the bound is not finite, as where exp(-c_side) overflows.
    """
    if not (theta > 2.0 and M > 0.0):
        raise ValueError(f"need theta > 2 and M > 0, got theta={theta}, M={M}")
    F_plus = float(antiderivative(nl, float(M)))
    F_minus = float(antiderivative(nl, -float(M)))
    for side, u, value in (("M", M, F_plus), ("-M", -M, F_minus)):
        if not math.isfinite(value):
            raise ValueError(f"F({side}) is not finite at {side} = {u:g}: the "
                             "superquadratic lower bound is undefined")
        if value <= 0.0:
            raise ValueError(
                f"F({side}) = {value:g} is not positive at {side} = {u:g}: the superquadratic "
                f"lower bound is undefined (AR condition fails at {side})"
            )
    c_plus = theta * math.log(M) - math.log(F_plus)
    c_minus = theta * math.log(M) - math.log(F_minus)

    us = grid.values()
    F = antiderivative(nl, us)
    sides = []
    for sel, c in ((us >= M, c_plus), (us <= -M, c_minus)):
        try:
            scale = math.exp(-c)
        except OverflowError:  # the bound is not finite on this side
            scale = math.inf
        sides.append((sel, scale * _abs_pow(us[sel], theta)))
    finite = np.isfinite(F)
    for sel, lower in sides:
        finite[sel] &= np.isfinite(lower)
    holds = bool(finite.all())
    if not holds:
        witness = (f"F or its lower bound is not finite at u = {us[np.argmin(finite)]:g}, "
                   "the first such grid point")
    else:
        witness = f"F(u) >= exp(-c) |u|^theta on the grid for |u| >= {M:g}, equality at u = {M:g}"
        for sel, lower in sides:
            slack = 1e-9 * (1.0 + np.abs(lower))
            bad = F[sel] < lower - slack
            if bad.any():
                k = int(np.argmax(bad))
                holds = False
                witness = (f"F({us[sel][k]:g}) = {F[sel][k]:g} falls below "
                           f"exp(-c) |u|^theta = {lower[k]:g}")
                break
    return HypothesisVerdict(
        "AR-bound", holds, witness, sampled_range=grid.label(),
        data={"theta": float(theta), "M": float(M),
              "c_plus": c_plus, "c_minus": c_minus, "slack_constant": 0.0},
    )
