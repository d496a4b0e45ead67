"""Nonlinearity families and exact hypothesis checks.

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
bound on the h integral).  Checks on f are named F1..F8 and decided on
all of R: with u = -t or t, f, F and f_u are sums of powers of t > 0,
and a failed verdict names a u where the inequality fails.  Comparisons
that are exact equalities in closed form carry a 1e-12 relative guard.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

_REL_GUARD = 1e-12  # slack, relative to the terms' magnitudes, for closed-form equality cases


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
            if int(key[1:]) in coeffs:  # c1 and c01 name the same degree
                raise ValueError(f"duplicate degree {int(key[1:])} in {spec!r}")
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
    well under the 1e-12 guard of the checks; past the cap
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


# ----- power sums ----- #

def _f_terms(nl: Nonlinearity, sign: float):
    """f at u = sign t, t > 0, as the (b, s) pairs of a sum of b t^s; F(u)
    is then the sum of sign b t^(s+1) / (s+1), and u f_u the sum of b s t^s."""
    if nl.family == "odd_poly":
        return [(sign * c, float(k)) for k, c in nl.coeffs]
    return [(sign, nl.p - 1.0)] + [(nl.eps, 0.0)] * (nl.family == "power_plus_const")


def _F_terms(nl: Nonlinearity, sign: float):
    return [(sign * b / (s + 1.0), s + 1.0) for b, s in _f_terms(nl, sign)]


def _merged(pairs):
    """The sum of the (b, s) pairs as (b, s, m) terms by increasing s, m
    the sum of |b| merged into the term; a b within _REL_GUARD m of 0
    cancels exactly and becomes 0, while m stays in the guard's scale."""
    merged: dict[float, tuple[float, float]] = {}
    for b, s in pairs:
        b0, m0 = merged.get(s, (0.0, 0.0))
        merged[s] = (b0 + b, m0 + abs(b))
    return [(b if abs(b) > _REL_GUARD * m else 0.0, s, m)
            for s, (b, m) in sorted(merged.items()) if m > 0.0]


def _ratio(terms, t: float) -> float:
    """sum b t^s over sum m t^s at a finite t >= 0, both divided by t^e
    (e the largest s for t > 1, else the smallest) so no power overflows;
    at t = 0 the limit t -> 0+."""
    e = terms[-1][1] if t > 1.0 else terms[0][1]
    w = [t ** (s - e) for _, s, _ in terms]
    value = sum(b * x for (b, _, _), x in zip(terms, w))
    return value / sum(m * x for (_, _, m), x in zip(terms, w))


def _sign_changes(terms, lo: float, hi: float) -> list[float]:
    """The points of (lo, hi), increasing, where the sum of terms changes
    sign: in closed form for two terms, else by bisection between the
    sign changes of the derivative of the sum over its lowest power."""
    terms = [(b, s, 1.0) for b, s, _ in terms if b != 0.0]  # m = 1: only signs are read
    if len(terms) < 2:
        return []
    (b0, s0, _), (b1, s1, _) = terms[:2]
    if len(terms) == 2:  # b0 t^s0 = -b1 t^s1
        with np.errstate(over="ignore"):
            t = float(np.exp((math.log(abs(b0)) - math.log(abs(b1))) / (s1 - s0)))
        return [t] if (b0 < 0.0) != (b1 < 0.0) and lo < t < hi else []
    slope = [(b * (s - s0), s - s0 - 1.0, 1.0) for b, s, _ in terms[1:]]
    cuts = [lo, *_sign_changes(slope, lo, hi), min(hi, sys.float_info.max)]
    roots = []
    for a, b in zip(cuts, cuts[1:]):
        neg = _ratio(terms, a) < 0.0
        if neg == (_ratio(terms, b) < 0.0):
            continue
        for _ in range(200):
            mid = math.sqrt(max(a, 5e-324)) * math.sqrt(b) if 4.0 * a < b else a + 0.5 * (b - a)
            if not a < mid < b:
                break
            a, b = (mid, b) if (_ratio(terms, mid) < 0.0) == neg else (a, mid)
        roots.append(a + 0.5 * (b - a))
    return roots


def _lowest(pairs, lo: float):
    """(r, t): the least r over t >= lo of the sum of the (b, s) pairs over
    the sum of its terms' magnitudes, and the smallest t reaching it, among
    lo (unless every term vanishes there), the derivative's sign changes
    and the largest float, or 2 max(1, roots) if the sum falls unbounded."""
    terms = _merged(pairs)
    lead = [(b, s) for b, s, _ in terms if b != 0.0]
    if not lead:
        return 0.0, lo
    points = [lo] * (lo > 0.0 or terms[0][1] == 0.0)
    points += _sign_changes([(b * s, s - 1.0, 0.0) for b, s in lead if s > 0.0], lo, math.inf)
    falls = lead[-1][0] < 0.0 < lead[-1][1]
    points.append(min(2.0 * max([lo, 1.0, *_sign_changes(terms, lo, math.inf)]) if falls
                      else math.inf, sys.float_info.max))
    ratios = [_ratio(terms, t) for t in points]
    k = int(np.argmin(ratios))
    return ratios[k], points[k]


@np.errstate(over="ignore", invalid="ignore")
def antiderivative_peak(nl: Nonlinearity, u_max: float):
    """max |F| on [-u_max, u_max] and the smallest u where it is reached:
    at +-u_max or at a sign change of f, each evaluated by antiderivative."""
    us = np.sort([-u_max, u_max] + [sign * t for sign in (-1.0, 1.0) for t in
                                    _sign_changes(_merged(_f_terms(nl, sign)), 0.0, u_max)])
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


# ----- exact checks ----- #

@dataclass(frozen=True)
class GridSpec:
    """A range [-u_max, u_max] that check_f and ar_lower_bound take, unread."""

    u_max: float

    def __post_init__(self):
        if not self.u_max > 0.0:
            raise ValueError(f"u_max must be positive, got {self.u_max}")

    default = staticmethod(lambda: GridSpec(10.0))


@dataclass(frozen=True)
class HypothesisVerdict:
    """Outcome of one hypothesis check.

    witness describes the failing point or the certified bound;
    sampled_range names the points an h check reads (None for the f
    checks); data carries the numeric constants behind the verdict.
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


def _verdict(name, claims, values, holds, data) -> HypothesisVerdict:
    """Verdict name, failed at u = sign t where the first of claims (claim,
    sign, pairs, lo, slack) has _lowest(pairs, lo) at most -slack, named
    with the quantities values(u) (+ 0.0 prints -0 as 0); else holds."""
    for claim, sign, pairs, lo, slack in claims:
        r, t = _lowest(pairs, lo)
        if not r > -slack:
            u = sign * t + 0.0
            shown = ", ".join(f"{key} = {value + 0.0:g}" for key, value in values(u).items())
            return HypothesisVerdict(name, False, f"{claim} at u = {u:g}: {shown}", data=data)
    return HypothesisVerdict(name, True, holds, data=data)


def f1_verdict(nl: Nonlinearity) -> HypothesisVerdict:
    """F1 is a smoothness statement; for the built-in families it holds
    by construction and is reported analytically."""
    return HypothesisVerdict("F1", True, smoothness_note(nl))


@np.errstate(over="ignore", invalid="ignore")
def check_f(nl: Nonlinearity, which: str, grid: GridSpec | None = None, *,
            theta: float | None = None, M: float | None = None,
            C: float | None = None, p: float | None = None) -> HypothesisVerdict:
    """Checks F2..F7 on the nonlinearity, decided on all of R.

    F2  f(0) = 0 and f_u(0) = 0
    F3  |f(u)| <= C (1 + |u|^(p-1))              needs C, p
    F4  0 < theta F(u) <= u f(u) for |u| >= M    needs theta, M
    F5  f(u)/u nondecreasing on u > 0, i.e. u f_u - f >= 0
    F6  f(u)/u -> infinity as u -> -infinity and as u -> infinity
    F7  f(0) != 0

    F3..F5 ask sums of powers of t = |u| to stay nonnegative, F6 reads
    the leading power of f(u)/u.  Constants default to the ones stored
    on the nonlinearity; grid is not read.  F8 is f8_verdict's."""
    theta, M = (nl.ar_theta if theta is None else theta), (nl.ar_M if M is None else M)
    C, p = (nl.growth_C if C is None else C), (nl.growth_p if p is None else p)
    if which in ("F2", "F7"):
        f0, fu0 = float(reaction(nl, 0.0)), float(reaction_derivative(nl, 0.0))
        if which == "F7":
            return HypothesisVerdict("F7", f0 != 0.0, f"f(0) = {f0:g} (must be nonzero)",
                                     data={"f0": f0})
        return HypothesisVerdict(
            "F2", f0 == 0.0 and fu0 == 0.0,
            f"f(0) = {f0:g}, f_u(0) = {fu0:g} (both must vanish)", data={"f0": f0, "fu0": fu0},
        )
    if which == "F3" and not (C is not None and p is not None and C > 0.0 and p > 2.0):
        raise ValueError(f"F3 needs the growth constants C > 0 and p > 2, got C={C}, p={p}")
    if which == "F4" and not (theta is not None and M is not None and theta > 2.0 and M > 0.0):
        raise ValueError(f"F4 needs the constants theta > 2 and M > 0, got theta={theta}, M={M}")

    if which == "F3":  # C (1 + t^(p-1)) -+ f >= 0
        bound = [(C, 0.0), (C, p - 1.0)]
        return _verdict("F3", [
            ("|f(u)| > C(1+|u|^(p-1))", sign, bound + [(pm * b, s) for b, s in _f_terms(nl, sign)],
             0.0, _REL_GUARD) for sign in (-1.0, 1.0) for pm in (-1.0, 1.0)
        ], lambda u: {"|f|": abs(float(reaction(nl, u))),
                      "C(1+|u|^(p-1))": C * (1.0 + float(_abs_pow(np.float64(u), p - 1.0)))},
            "|f(u)| <= C(1+|u|^(p-1)) for every u", {"C": C, "p": p})
    if which == "F4":  # F > 0, and u f - theta F over theta, so no coefficient overflows
        claims = [(claim, sign, pairs, M, slack) for sign in (-1.0, 1.0)
                  for claim, pairs, slack in (
                      ("theta F <= 0", _F_terms(nl, sign), 0.0),
                      ("theta F > u f", [(sign * b / theta, s + 1.0) for b, s in _f_terms(nl, sign)]
                       + [(-b, s) for b, s in _F_terms(nl, sign)], _REL_GUARD))]
        return _verdict("F4", claims, lambda u: {
            "theta F": theta * float(antiderivative(nl, u)), "u f": u * float(reaction(nl, u))},
            f"0 < theta F(u) <= u f(u) for every |u| >= {M:g}", {"theta": theta, "M": M})
    if which == "F5":  # u f_u - f = sum b (s - 1) t^s >= 0 for u = t > 0
        pairs = [(b * (s - 1.0), s) for b, s in _f_terms(nl, 1.0)]
        return _verdict("F5", [("u f_u - f < 0", 1.0, pairs, 0.0, _REL_GUARD)], lambda u: {
            "u f_u - f": u * float(reaction_derivative(nl, u)) - float(reaction(nl, u))},
            "f(u)/u is nondecreasing on u > 0", {})
    if which == "F6":
        for sign in (-1.0, 1.0):  # f(u)/u = sign sum b t^(s-1)
            b, s = ([(b, s) for b, s, _ in _merged(_f_terms(nl, sign)) if b] or [(0.0, 1.0)])[-1]
            if not (s > 1.0 and sign * b > 0.0):
                return HypothesisVerdict("F6", False, (
                    f"f(u)/u stays bounded above as u -> {'-' if sign < 0 else '+'}infinity: "
                    f"its leading power there is {sign * b:g} |u|^{s - 1.0:g}"))
        return HypothesisVerdict(
            "F6", True, "f(u)/u -> infinity as u -> -infinity and as u -> +infinity")
    raise ValueError(f"unknown f-hypothesis {which!r}")


def f8_verdict(max_abs, u_at, M0, beta, mu_min, h0) -> HypothesisVerdict:
    """F8, max |F| on [-M0, M0] <= M0^2/(2 (beta+1) mu_min h0), from
    max_abs and u_at, the smallest u reaching it (antiderivative_peak)."""
    bound = M0 ** 2 / (2.0 * (beta + 1.0) * mu_min * h0)
    holds = max_abs <= bound * (1.0 + _REL_GUARD)
    return HypothesisVerdict(
        "F8", holds,
        f"max |F| on [-M0, M0] is {max_abs:g} at u = {u_at:g} vs bound "
        f"M0^2/(2(beta+1) mu_min h0) = {bound:g}",
        data={"max_abs_F": max_abs, "bound": bound, "beta": beta},
    )


@np.errstate(over="ignore", invalid="ignore")
def ar_lower_bound(nl: Nonlinearity, theta: float, M: float,
                   grid: GridSpec | None = None) -> HypothesisVerdict:
    """Superquadratic lower bound implied by the AR condition.

    With c_side = theta ln M - ln F(+-M), checks F(u) >= exp(-c_side)
    |u|^theta = F(+-M) (|u|/M)^theta for every |u| >= M (the additive
    slack constant is zero on this range), with equality at u = M.
    Raises where F(+-M) is not positive (the AR condition fails at M) or
    not finite; an exp(-c_side) that overflows fails.  grid is not read."""
    if not (theta > 2.0 and M > 0.0):
        raise ValueError(f"need theta > 2 and M > 0, got theta={theta}, M={M}")
    F_plus = float(antiderivative(nl, float(M)))
    F_minus = float(antiderivative(nl, -float(M)))
    for side, u, value in (("M", M, F_plus), ("-M", -M, F_minus)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"F({side}) = {value:g} is not positive at {side} = {u:g}: the "
                             f"superquadratic lower bound is undefined (AR condition fails at "
                             f"{side})" if value <= 0.0 else f"F({side}) is not finite at {side} = "
                             f"{u:g}: the superquadratic lower bound is undefined")
    data = {"theta": float(theta), "M": float(M), "slack_constant": 0.0,
            "c_plus": theta * math.log(M) - math.log(F_plus),
            "c_minus": theta * math.log(M) - math.log(F_minus)}
    return _verdict("AR-bound", [  # in r = |u|/M, so that no coefficient overflows
        ("F(u) < exp(-c) |u|^theta", sign * M, [(b * float(np.power(M, s)), s) for b, s in
                                                 _F_terms(nl, sign)] + [(-value, theta)], 1.0,
         _REL_GUARD) for sign, value in ((-1.0, F_minus), (1.0, F_plus))
    ], lambda u: {"F": float(antiderivative(nl, u)), "exp(-c) |u|^theta":
                  (F_plus if u > 0 else F_minus) * float(np.power(abs(u) / M, theta))},
        f"F(u) >= exp(-c) |u|^theta for every |u| >= {M:g}, equality at u = {M:g}", data)
