"""Critical-point solvers for the graph reaction-diffusion energy.

Three entry points:

    mountain_pass   descends on the Nehari manifold from the energy's
                    peak on the ray of a spike endpoint and hands over
                    to Newton iteration at a point of Morse index 1
    ball_minimize   Newton iteration from the zero function, accepted
                    when it converges to a point of Morse index 0
                    strictly inside the ball of radius sqrt(rho)
    two_solutions   verifies the two-solution hypotheses, then runs
                    both and checks the results are distinct

Each writes what it sees into an optional RunLog as it runs, so the
record of a run survives a SolverError.

The descent steps along the Sobolev gradient: the Riesz representative
P^(-1) g of the Euclidean gradient g in the inner product of
P = L + diag(mu |h|) on interior unknowns, with L the interior
Laplacian.  Where h > 0, P is the Gram matrix of the h-norm, the metric
the energy is posed in, so one unit step undoes the quadratic part of
the energy whatever the weights and measures.  Each step then returns
to the Nehari manifold by the peak on its ray (Li & Zhou, SIAM J. Sci.
Comput. 23, 2001; Horak, Numer. Math. 98, 2004).  Where also
f_u(0) = 0, P is Newton's Jacobian at the zero function, and J(u)
differs from it only where f_u(u) != 0 or h < 0.  So one factor of P
per command serves both: the descent solves with it, and Newton solves
its steps with low-rank updates of it where J(u) differs from it on
few vertices, factors J(u) itself where it does not, keeps what it
solves with for as long as its steps cut the residual hundredfold
(chord steps), and reads a Morse index of 0 or 1 without a factor where
the Hessian's diagonal and the point's own curvature bracket it to one
value.  Every Newton run takes at most NEWTON_MAX steps and gives up on
a weak cut.  spectral._band_solver (_band_factor) factors P and Newton's
indefinite Jacobians, whose negative pivots count the Morse index; an
escape from a point of higher index factors nothing.

The solvers iterate on interior values only, (|omega|,) vectors.  They
evaluate through variational._kernel, which checks nothing, and expand
only the reported Solution's u to every vertex; the Dirichlet check of
the public energy functions runs on calls from outside the solvers.

All loops are deterministic: no randomness and fixed tie-breaking
(lowest input order).
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import _interior_matrix
from .nonlinearity import (
    HypothesisVerdict,
    check_f,
    check_h,
    f1_verdict,
    f8_verdict,
    reaction,
    reaction_derivative,
)
from .spectral import (
    _BLOCK,
    ConstantsReport,
    _band_solver,
    embedding_constants,
    first_eigenvalue,
)
from .variational import BallConstants, Problem, _h_norm, _kernel, _value, ball_constants

TRIVIAL_SUP = 1e-10    # sup-norm below which an iterate counts as the zero function
DISTINCT_SUP = 1e-6    # sup-norm gap two reported solutions must exceed
SPHERE_MARGIN = 1e-8   # how far inside the constraint sphere "interior" starts
NEWTON_TOL = 1e-12     # vertexwise residual Newton refinement must reach
NEWTON_MAX = 8         # Newton iterations before a run gives up
NEWTON_CUT = 0.1       # residual factor each fresh exact step after the first must reach;
                       # a step that reaches its square lets the next one reuse its factor
NEWTON_EVERY = 5       # descent steps from one Newton hand-off to the next, the first at step 0
ESCAPE_STEP = 0.1      # length of an escape step, relative to the point it leaves
SPIKE_DOUBLINGS = 60   # doublings (halvings) before the spike or ray-peak search gives up

# The alternative hypothesis sets under which the existence theorems
# hold, on the coefficient h (H1-H3) and on the reaction term f (F1-F8),
# tried in this order: (theorem, the verdicts the route requires, the
# verdicts it attaches only when their constants exist).  Theorem "one"
# gives a pass-level solution, "two" a ball minimizer and a pass-level
# solution, "ball" the ball minimizer alone.  H1 and H3 need h0, F3 and
# F4 the constants of f.  A route that requires a verdict whose
# constants are absent does not apply; an attached verdict, once
# checked, must hold too.
ROUTES = (
    ("one", ("H2", "F1", "F2", "F4"), ("H1", "F3")),
    ("one", ("H2", "F1", "F5", "F6"), ("H1", "F3")),
    ("two", ("H2", "F7", "F1"), ("H1", "F3", "F4")),
    ("two", ("H2", "F7", "F1"), ("H3", "F3", "F4")),
    ("ball", ("H2",), ("H1",)),
)
# the constants of f that the F checks need, by verdict name
_F_CONSTANTS = {"F3": ("growth_C", "growth_p"), "F4": ("ar_theta", "ar_M")}
# why a failed verdict blocks its route, where its witness does not say
_WHY = {"F7": "the two-solution setup requires f(x, 0) != 0 so that every "
              "solution is nontrivial"}


class SolverError(RuntimeError):
    """A solve failed in a way the caller should see, with diagnosis."""


@dataclass(frozen=True)
class SolverConfig:
    """Budgets of the mountain pass's descent and the ball setup.

    The descent stops when the Euclidean gradient norm reaches
    deform_tol or after deform_steps steps; neither bounds the ball
    minimizer's Newton iteration.  rho is the squared radius of the
    constraint ball (weighted Sobolev norm); beta the smallness
    parameter for the two-solution setup (computed from the ball
    constants when absent); m0 switches the two-solution pipeline to the
    mode where the pointwise range bound m0 is given and the ball radius
    is derived as m0^2/(mu_min h0).
    """

    deform_steps: int = 5000
    deform_tol: float = 1e-8
    rho: float | None = None
    beta: float | None = None
    m0: float | None = None
    verify_hypotheses: bool = True

    def __post_init__(self):
        if self.deform_steps < 1:
            raise ValueError(f"deform_steps must be positive, got {self.deform_steps}")
        if not self.deform_tol > 0.0:
            raise ValueError(f"deform_tol must be positive, got {self.deform_tol}")
        for name in ("rho", "beta", "m0"):
            val = getattr(self, name)
            if val is not None and not val > 0.0:
                raise ValueError(f"{name} must be positive when given, got {val}")


@dataclass(frozen=True, eq=False)
class Solution:
    """One converged candidate: the function, its energy and norms, the
    route that produced it, and whether it lies in the constraint ball
    (rho_used is the squared radius that flag refers to, None when no
    ball was in play).  kind "trivial" marks the zero function, only
    reported when f(x, 0) = 0 makes it an actual solution.  morse_index
    is the number of negative eigenvalues of the Hessian at u, the
    negative pivots of its band factor, or 0 or 1 where its diagonal and
    the curvature at u bracket it (_newton_polish); never read off P or
    the low-rank updates of it that Newton steps with."""

    u: np.ndarray
    energy_value: float
    grad_norm: float
    residual_max: float
    kind: str
    in_ball: bool
    rho_used: float | None
    h_norm: float
    morse_index: int


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Bundle returned by the two-solution pipeline: solutions, the
    hypothesis verdicts that gated them, the embedding constants (with
    the first eigenvalue), the ball constants, and a flag recording
    that gradient norms fell to tolerance while the energy stayed
    bounded along the iterates.  The flag is an observation about this
    run, not a proof of a compactness property; the iteration traces it
    rests on are in the RunLog."""

    solutions: tuple[Solution, ...]
    hypothesis_verdicts: tuple[HypothesisVerdict, ...]
    constants: ConstantsReport
    ball: BallConstants
    ps_diagnostic: bool


@dataclass
class RunLog:
    """What the solvers saw: the verdicts of the gates that passed, the
    (level, gradient norm) rows of each loop by solver name (set afresh
    as the loop starts; mountain_pass's level is the energy of each
    descent iterate, the peak of its ray; ball_min's the energy of each
    Newton iterate), and why each loop stopped by solver name
    ("newton_handoff", "tolerance", "budget", "backtracking" or
    "endpoint_maximum" for mountain_pass; "tolerance" or "newton_failed"
    for ball_min)."""

    verdicts: list[HypothesisVerdict] = field(default_factory=list)
    traces: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    stops: dict[str, str] = field(default_factory=dict)


def ps_diagnostic(traces, solutions) -> bool:
    """The SolveReport flag: every iteration trace is nonempty with
    finite levels and gradient norms, and every solution reached the
    Newton tolerance NEWTON_TOL; false on a solution whose Newton run
    stopped above it, at the rounding of the residual's terms."""
    return bool(
        all(traces)
        and all(math.isfinite(a) and math.isfinite(b) for rows in traces for a, b in rows)
        and all(sol.residual_max <= NEWTON_TOL for sol in solutions)
    )


def coefficient_verdicts(source, h0, names):
    """The check_h verdicts of names for the coefficient h of source (a
    Problem or a GraphFile), in order; H1 and H3 compare h with h0 and
    are left out when it is not given."""
    return [
        check_h(source.graph, source.partition, source.h, name, h0=h0)
        for name in names if h0 is not None or name == "H2"
    ]


def embedding_hypothesis(verdicts) -> str | None:
    """The bound on h the embedding constants rest on: H1 when its
    verdict holds, else H3 when its verdict holds, else None."""
    return next((v.name for v in verdicts if v.name in ("H1", "H3") and v.holds), None)


def verify(source, nl, h0, theorems, every=False):
    """Judge the routes of ROUTES for theorems on the coefficient h of
    source (a Problem or a GraphFile) with lower bound h0, and on nl;
    when nl is None, on the h side of each route alone.

    The h verdicts are checked first, by name.  Then each route in turn
    checks the f verdicts it names, and the first route that holds ends
    the search; with every, all the f verdicts the routes name are
    checked before any route is judged, first those that need no
    constants, each in table order.  Returns the verdicts checked, in
    that order, and None when a route holds, else the failures of every
    route that applies, one list per route, h first.
    """
    rows = [(req, att) for thm, req, att in ROUTES if thm in theorems]
    names = dict.fromkeys(
        n for req, att in rows for n in req + att if nl is not None or n[0] == "H"
    )
    h_names = sorted(n for n in names if n[0] == "H")
    checked = {v.name: v for v in coefficient_verdicts(source, h0, h_names)}
    known = [
        n for n in names if n in checked
        or (n[0] == "F" and all(getattr(nl, c) is not None for c in _F_CONSTANTS.get(n, ())))
    ]

    def verdict(name):
        if name not in checked:
            checked[name] = f1_verdict(nl) if name == "F1" else check_f(nl, name)
        return checked[name]

    if every:
        for name in sorted(known, key=_F_CONSTANTS.__contains__):
            verdict(name)
    failures = []
    for req, att in rows:
        if any(n in names and n not in known for n in req):
            continue
        route = [verdict(n) for n in req + att if n in known]
        failed = [v for v in checked.values() if v in route and not v.holds]
        if not failed:
            return list(checked.values()), None
        failures.append(failed)
    return list(checked.values()), failures


def _gate(problem: Problem, theorem: str):
    """The verdicts behind the first route of theorem that holds for
    problem; a SolverError that lists every route's failures when none
    does, and why a failure blocks where its witness does not say."""
    verdicts, failures = verify(problem, problem.nl, problem.h0, (theorem,))
    if failures is None:
        return verdicts
    detail = " | ".join("; ".join(f"{v.name}: {v.witness}" for v in f) for f in failures)
    why = dict.fromkeys(_WHY[v.name] for f in failures for v in f if v.name in _WHY)
    raise SolverError(
        f"hypothesis verification failed before solving: {detail}"
        + "".join(f" ({w})" for w in why)
    )


@np.errstate(over="ignore", invalid="ignore")  # an energy that overflows fails, named, below
def build_spike_endpoint(problem: Problem) -> np.ndarray:
    """Single-vertex spike t at the interior vertex of largest measure
    (ties to the earliest input vertex), with t doubled from 1 until the
    energy is nonpositive.

    A nonpositive energy already places the endpoint outside every ball
    on which the energy stays positive, so no separate radius check is
    made.  Failure to terminate within the doubling budget signals a
    reaction term without superquadratic growth.
    """
    mu = problem._form.mu
    x0 = int(np.argmax(mu))
    t = 1.0
    samples = []
    for _ in range(SPIKE_DOUBLINGS + 1):
        e = np.zeros(len(mu))
        e[x0] = t
        val = float(_kernel(problem, e)[1])
        samples.append((t, val))
        if val <= 0.0:
            return problem._form.expand(e)
        t *= 2.0
    tail = ", ".join(f"energy({s:g} * spike) = {v:g}" for s, v in samples[-4:])
    raise SolverError(
        "spike energy stayed positive through "
        f"{SPIKE_DOUBLINGS} doublings; the reaction term does not "
        f"look superquadratic ({tail})"
    )


@np.errstate(over="ignore", invalid="ignore")  # a slope that overflows is not positive
def _ray_peak(problem: Problem, v: np.ndarray):
    """The peak of the energy on the ray t v, t > 0, as (t v, its
    _kernel pass (squared h-norm, energy, pointwise residual)), or None
    when none is found; Newton from the peak reads that pass.

    The peak is a root of d/dt energy(t v) = t |v|_h^2 - sum mu f(t v) v
    where it falls through 0.  From t = 1 the root is bracketed by at
    most SPIKE_DOUBLINGS doublings while that slope is positive, or else
    halvings while it is not.  When no halving finds it positive (a well
    that f(x, 0) != 0 digs near 0 can hold t = 1), doublings from t = 1
    look for the rise above 1 and then for the fall after it.  The root
    is refined by Newton's method on the slope, with f_u, bisecting when
    a step leaves the bracket, until a step no longer moves t.
    """
    nl = problem.nl
    sq = float(_kernel(problem, v, value=False)[0])
    mv = problem._form.mu * v

    def slope(t):
        return t * sq - float(mv @ reaction(nl, t * v))

    def walk(t, factor, rising):
        """The first of up to SPIKE_DOUBLINGS multiples of t by factor
        where the slope's sign turns, or None."""
        for _ in range(SPIKE_DOUBLINGS):
            t *= factor
            if (slope(t) > 0.0) != rising:
                return t
        return None

    t = 1.0
    if not slope(t) > 0.0:
        t = walk(t, 0.5, False) or walk(t, 2.0, False)
    if t is not None and t >= 1.0:
        t = walk(t, 2.0, True)
    if t is None:
        return None
    lo, hi = (t, 2.0 * t) if t < 1.0 else (0.5 * t, t)
    for _ in range(100):
        value = slope(t)
        if value == 0.0:
            break
        lo, hi = (t, hi) if value > 0.0 else (lo, t)
        curvature = sq - float((mv * v) @ reaction_derivative(nl, t * v))
        nxt = t - value / curvature if curvature else math.nan
        if nxt == t:
            break
        if not lo < nxt < hi:
            nxt = lo + 0.5 * (hi - lo)
            if not lo < nxt < hi:
                break
        t = nxt
    u = t * v
    quad, value, r = _kernel(problem, u, residual=True)
    return u, (quad, float(value), r)


def _band_factor(form, diag: np.ndarray):
    """_band_solver's factor of the interior Laplacian with its diagonal
    replaced by diag: _interior_matrix's band with diag in row 0."""
    band = _interior_matrix(form)
    band[0] = diag
    return _band_solver(band)


def _escape_direction(problem: Problem, w: np.ndarray, index: int):
    """A unit direction of negative curvature at w, a critical point of
    Morse index index >= 2: the Ritz vector of negative Ritz value least
    aligned with w, or None.

    The Ritz vectors are those of the Hessian H = L + diag(mu (h -
    f_u(w))) on a patch: the index + 1 least entries of rows = w_off +
    mu (h - f_u) (ties to the earliest) and their neighbours inside
    omega.  H's projection on it, assembled over the edges like the
    energy, goes to one small eigh, without a factor or a solve; a Ritz
    vector of negative Ritz value has negative curvature (Cauchy
    interlacing; Parlett, The Symmetric Eigenvalue Problem, 1998, ch. 10).
    """
    form = problem._form
    rows = form.w_off + problem._mu_h - form.mu * reaction_derivative(problem.nl, w)
    near = np.zeros(len(w), dtype=bool)
    near[np.argsort(rows, kind="stable")[: index + 1]] = True
    near[form.ends[::-1][near[form.ends]]] = True  # the other end of each edge that meets one
    (patch,) = np.nonzero(near)
    x = np.zeros((len(w), len(patch)))
    x[patch, np.arange(len(patch))] = 1.0
    d = x[form.ends[0]] - x[form.ends[1]]
    ritz, z = np.linalg.eigh(d.T @ (form.w[:, None] * d) + x.T @ (rows[:, None] * x))
    y = x @ z[:, ritz < 0.0]
    if not y.shape[1]:
        return None
    return y[:, int(np.argmin(np.abs(w @ y)))]


class _Gram:
    """P = L + diag(mu |h|) on the interior unknowns, the Gram matrix of
    the h-norm where h >= 0, factored by _band_factor at its first solve
    and kept; solve() is None where P is singular.  L is positive
    definite for every admissible problem (a nonempty boundary and a
    connected closure), and the |h| keeps P so where h is negative.  The
    descent steps along its solve, and Newton solves with its low-rank
    updates: J(u) = P - diag(offset + mu f_u(u)), offset = |mu h| - mu h,
    zero where h >= 0.  The solvers make one per command and share it."""

    def __init__(self, problem: Problem):
        mu_h = problem._mu_h
        self.form = problem._form
        self.diag = self.form.diag + np.abs(mu_h)
        self.offset = np.abs(mu_h) - mu_h
        self._solve, self._made = None, False

    def solve(self):
        if not self._made:
            self._made = True
            try:
                self._solve = _band_factor(self.form, self.diag)
            except np.linalg.LinAlgError:
                pass
        return self._solve


def _updated_solve(gram: _Gram, fu: np.ndarray):
    """Solve with J(u) = P - diag(delta), delta = |mu h| - mu h + mu fu,
    fu = f_u(u), by the Woodbury identity: (solve, whether it is
    approximate), or None where a factor of J(u) should be made instead.

    Only the entries K where |delta| > NEWTON_CUT^3 |P's diagonal|
    enter, so the dropped part of J(u) - P is within NEWTON_CUT^3 of P
    entry by entry, a tenth of the NEWTON_CUT^2 cut that keeps a chord
    step's solve; the solve is exact when K holds every nonzero of delta
    (one, at the spike's ray where h >= 0 and f_u(0) = 0).  On the
    lattices and the corpus the hand-off then cuts the residual as with
    J(u); NEWTON_CUT^2 takes more steps, more factors of J(u) after weak
    cuts and more time, and NEWTON_CUT^4 gains nothing.  One solve of P
    with |K| columns, Z = P^(-1) E_K, and the capacitance C = I -
    diag(delta_K) Z_K give (P - E_K diag(delta_K) E_K^T)^(-1) b = y + Z
    C^(-1) (delta_K y_K), y = P^(-1) b, for vectors b (Hager, SIAM Rev.
    31, 1989).  None when P or C is singular, or when |K| exceeds
    _BLOCK: the update costs as much as a factor of J(u) and its solve
    at 80 to 110 columns on the 12, 30 and 40 lattices, about bw +
    _BLOCK, and at most 0.7 of it up to _BLOCK.
    """
    solve0 = gram.solve()
    if solve0 is None:
        return None
    delta = gram.offset + gram.form.mu * fu
    (keep,) = np.nonzero(np.abs(delta) > NEWTON_CUT**3 * np.abs(gram.diag))
    k = len(keep)
    approximate = bool(k < np.count_nonzero(delta))
    if k > _BLOCK:
        return None
    if not k:
        return solve0, approximate
    columns = np.zeros((len(delta), k))
    columns[keep, np.arange(k)] = 1.0
    z = solve0(columns)
    scale = delta[keep]
    try:
        inverse = np.linalg.inv(np.eye(k) - scale[:, None] * z[keep])
    except np.linalg.LinAlgError:
        return None

    def solve(b):
        y = solve0(b)
        return y + z @ (inverse @ (scale * y[keep]))

    return solve, approximate


def _rounding_level(problem: Problem, u: np.ndarray, r: np.ndarray) -> float:
    """2^-52 times the largest magnitude of the residual r's two terms at
    u, L u / mu = r + f(u) and f(u): the size of r's rounding."""
    f = reaction(problem.nl, u)
    return float(2.0**-52 * max(np.max(np.abs(r + f)), np.max(np.abs(f))))


def _term_level(problem: Problem, u: np.ndarray) -> float:
    """16 * 2^-52 times the largest sum of the residual's term sizes at
    u, (|L| |u|) / mu + |h u| + |f(u)|, L the interior Laplacian: the
    residual's rounding floor, as the terms' roundings do not cancel as
    the terms do.  It lies above NEWTON_TOL where weights and measures
    differ by orders of magnitude."""
    form, a = problem._form, np.abs(u)
    wa = form.w * a[form.ends]  # w |u| at each end of every edge inside omega
    lu = (form.diag * a + np.bincount(form.ends[0], wa[1], len(a))
          + np.bincount(form.ends[1], wa[0], len(a)))
    size = lu / form.mu + np.abs(problem.h[form.omega] * u) + np.abs(reaction(problem.nl, u))
    return float(16 * 2.0**-52 * np.max(size))


@np.errstate(over="ignore", invalid="ignore")  # a diverging step fails as not finite
def _newton_polish(problem: Problem, u0: np.ndarray, trace=None, at_u0=None,
                   gram: _Gram | None = None):
    """Refine a candidate, given by its interior values, to vertexwise
    residual <= NEWTON_TOL, or to at most its terms' rounding
    (_term_level) after a step that cut it by less than NEWTON_CUT; at_u0,
    when given, is the _kernel pass at u0 with energy and residual, which
    step 0 then reads.

    The linearization at u restricted to interior unknowns is J(u) =
    P - diag(delta), P = L + diag(mu |h|) (gram, the caller's _Gram, or
    one of this run's own; J(0) where h >= 0 and f_u(0) = 0) and delta =
    |mu h| - mu h + mu f_u(u).  A fresh step solves with P updated on
    the entries of delta not negligible against P's diagonal
    (_updated_solve): Newton's step where that update is exact, as at
    the spike's ray, and an approximate Jacobian's elsewhere.  A fresh
    step after a chord or approximate one (which cut the residual by
    less than NEWTON_CUT^2), and every step where the update does not
    apply (P or its capacitance singular, a spread update), factors
    J(u) afresh: the interior Laplacian with diagonal L's plus mu (h -
    f_u), factored by _band_factor.
    A step keeps the last fresh solve while the steps since cut fast
    (chord steps; Kelley, Iterative Methods for Linear and Nonlinear
    Equations, SIAM 1995, 5.4): it solves with the kept one when the
    step before cut the residual from r_prev to r <= NEWTON_CUT^2 r_prev,
    and otherwise drops it before making a fresh one, so that two
    factors of J(u) never coexist.  Once r <= NEWTON_TOL after a chord
    step, one more is taken when the residual it predicts, r (r /
    r_prev), is at or below r's rounding level (_rounding_level); with an
    approximate Jacobian, which converges only linearly, steps go on
    while they cut to r <= NEWTON_CUT^2 r_prev and r is above that level.
    A run gives up with a SolverError that names why: its NEWTON_MAX
    iterations spent, an exact step after the first that cut the
    residual by less than NEWTON_CUT (a chord or approximate one that
    does so only ends the chord steps), a singular Jacobian or a
    non-finite step; no step is retried.  A trace list receives the
    (energy, Euclidean gradient norm) row of each iterate, also of one
    that fails.

    Returns (u, residual_max, index, the _kernel pass at u with energy
    and residual).  index is the Morse index at u, the number of negative
    eigenvalues of the Hessian H = L + diag(D), D = mu (h - f_u), and is
    bracketed without a factor.  upper counts the entries of D at or
    below 2^-40 of their terms' size mu (|h| + |f_u|), a margin far above
    their rounding: H = (L + max(D, 0)) - E, E >= 0 of rank upper, and
    L is positive definite, so H has at most upper negative eigenvalues
    (Weyl; Horn & Johnson, Matrix Analysis, 4.3).  lower is 1 when the
    curvature u^T H u = quad - sum mu f_u u^2, quad from the last pass,
    is below minus gamma_n (quad + 2 sum mu (|h| + |f_u|) u^2), a bound
    on its rounding with n = edges + 2 |omega| + 8 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3), else 0.  When lower
    equals upper, that is the index; otherwise H is factored, never
    read off an approximate Jacobian.
    """
    mu, h = problem._form.mu, problem.h[problem._form.omega]
    gram = gram or _Gram(problem)
    u = np.array(u0, dtype=float, copy=True)
    prev = math.inf
    solve = None         # the kept solve, of the last fresh step
    fresh = False        # whether the last step made it
    approximate = False  # whether it solves with an approximate Jacobian (_updated_solve)
    finish = False       # whether the run took its one chord step past NEWTON_TOL

    def factor(step, zero_order):
        try:
            return _band_factor(problem._form, problem._form.diag + zero_order)
        except np.linalg.LinAlgError:
            raise SolverError(f"Newton's Jacobian is singular at step {step}") from None

    for step in range(NEWTON_MAX + 1):
        if step or at_u0 is None:
            quad, value, r = _kernel(problem, u, value=trace is not None, residual=True)
        else:
            quad, value, r = at_u0
        if trace is not None:
            trace.append((float(value), float(np.linalg.norm(mu * r))))
        res_max = float(np.max(np.abs(r)))
        # a step that cut by less than NEWTON_CUT down to its terms' rounding converges too
        if res_max <= NEWTON_TOL or (not res_max <= NEWTON_CUT * prev
                                     and res_max <= _term_level(problem, u)):
            # with an approximate Jacobian, steps while they cut fast down to
            # rounding; after a chord step, one more when predicted to land there
            if approximate:
                chord = (step < NEWTON_MAX and res_max <= NEWTON_CUT**2 * prev
                         and res_max > _rounding_level(problem, u, r))
            else:
                chord = (solve is not None and not fresh and not finish and step < NEWTON_MAX
                         and res_max * (res_max / prev) <= _rounding_level(problem, u, r))
            if not chord:
                solve = None
                at_u = (quad, _value(problem, u, quad) if value is None else value, r)
                fu = reaction_derivative(problem.nl, u)
                zero_order, size = mu * (h - fu), mu * (np.abs(h) + np.abs(fu))
                upper = int(np.count_nonzero(~(zero_order > 2.0**-40 * size)))
                nu = 2.0**-53 * (len(problem._form.w) + 2 * len(u) + 8)
                rounding = nu / (1.0 - nu) * (quad + 2.0 * (size @ (u * u)))
                lower = int(quad - (mu * fu * u) @ u < -rounding)
                if lower == upper:
                    return u, res_max, upper, at_u
                return u, res_max, factor(step, zero_order).negatives, at_u
            finish = True
        else:
            if step == NEWTON_MAX:
                raise SolverError(f"Newton refinement did not reach residual {NEWTON_TOL:g} in "
                                  f"{NEWTON_MAX} iterations (residual {res_max:g})")
            if step >= 2 and fresh and not approximate and not res_max <= NEWTON_CUT * prev:
                raise SolverError(
                    f"Newton attempt cut the residual only from {prev:g} to {res_max:g}")
            chord = solve is not None and res_max <= NEWTON_CUT**2 * prev
        if not chord:
            fu = reaction_derivative(problem.nl, u)
            # after a chord or approximate step that cut too little, J(u) itself
            updated = (None if solve is not None and (approximate or not fresh)
                       else _updated_solve(gram, fu))
            solve = None  # before factor(step), so that two factors never coexist
            solve, approximate = updated or (factor(step, mu * (h - fu)), False)
        fresh, prev = not chord, res_max
        delta = solve(-(mu * r))
        if not np.all(np.isfinite(delta)):
            raise SolverError(f"Newton step {step} is not finite")
        u += delta


def _is_trivial_collapse(problem: Problem, u) -> bool:
    return reaction(problem.nl, 0.0) == 0.0 and float(np.max(np.abs(u))) < TRIVIAL_SUP


def _finish_solution(problem, kind, config, u, res_max, index, at_u) -> Solution:
    """The Solution at interior values u, expanded to every vertex, from
    _newton_polish's result: at_u is the _kernel pass at u."""
    quad, value, r = at_u
    hn = _h_norm(quad)
    rho = config.rho
    return Solution(
        u=problem._form.expand(u),
        energy_value=float(value),
        grad_norm=float(np.linalg.norm(problem._form.mu * r)),
        residual_max=res_max,
        kind=kind,
        in_ball=(rho is not None and hn < math.sqrt(rho)),
        rho_used=rho,
        h_norm=hn,
        morse_index=index,
    )


def mountain_pass(
    problem: Problem,
    config: SolverConfig | None = None,
    *,
    log: RunLog | None = None,
    gram: _Gram | None = None,
) -> Solution:
    """Pass-level critical point by descent on the Nehari manifold plus
    Newton.

    Every iterate u is the energy's peak on its ray (_ray_peak), a point
    of the Nehari manifold {u != 0 : energy'(u) u = 0}, where the
    mountain-pass points are local minima.  The first is the peak on the
    spike endpoint's ray; without one of positive energy no barrier
    separates 0 from the endpoint.  A step moves u to the peak of
    u - s P^(-1) g, g the gradient, when its energy is at most
    energy(u) - s g.P^(-1)g/2 (Armijo), halving s from 1 otherwise.  The
    loop stops when |g| reaches deform_tol, after deform_steps steps, or
    when halving no longer moves u to a finite new point ("backtracking").

    Newton (_newton_polish) runs from u's ray-peak pass at step 0, every
    NEWTON_EVERY steps after and once after the descent stops.  In the
    descent a run that fails is passed over, and one that converges to
    a nonzero w with energy(w) <= energy(u) hands off: w of Morse index
    1 is the solution, and w of index >= 2 is escaped, u becoming the
    lower peak of w +- ESCAPE_STEP |w| y, y from _escape_direction.
    After the stop, a failure is the error, and w must be nonzero and of
    index 1.  The descent's steps and every Newton run solve with one
    factor of P, gram's when given (two_solutions shares it with the ball
    minimizer), else one made here and dropped on return; it is factored
    at the first solve that needs it.

    log receives the gate's verdicts, the "mountain_pass" trace, one
    (energy, gradient norm) row per iterate, and its stop reason.
    """
    config = config or SolverConfig()
    log = RunLog() if log is None else log
    if config.verify_hypotheses:
        log.verdicts += _gate(problem, "one")
    mu = problem._form.mu
    gram = gram or _Gram(problem)
    trace = log.traces["mountain_pass"] = []
    peak = _ray_peak(problem, build_spike_endpoint(problem)[problem._form.omega])
    if peak is None or not peak[1][1] > 0.0:
        log.stops["mountain_pass"] = "endpoint_maximum"
        raise SolverError(
            "the path maximum sits at an endpoint; no interior energy "
            "barrier separates 0 from the spike endpoint"
        )
    u, (quad, level, r) = peak
    stop = "budget"
    for k in range(config.deform_steps):
        gvec = mu * r
        gn = math.sqrt(gvec @ gvec)
        trace.append((level, gn))
        found = None
        if k % NEWTON_EVERY == 0:
            with contextlib.suppress(SolverError):
                found = _newton_polish(problem, u, at_u0=(quad, level, r), gram=gram)
        if found is not None and found[3][1] <= level and np.max(np.abs(found[0])) >= TRIVIAL_SUP:
            w, _, index, _ = found
            if index == 1:
                log.stops["mountain_pass"] = "newton_handoff"
                return _finish_solution(problem, "mountain_pass", config, *found)
            y = _escape_direction(problem, w, index) if index >= 2 else None
            if y is not None:
                y *= ESCAPE_STEP * math.sqrt(w @ w)
                peaks = [p for p in (_ray_peak(problem, w + y), _ray_peak(problem, w - y)) if p]
                if peaks:
                    u, (quad, level, r) = min(peaks, key=lambda p: p[1][1])
                    continue
        if gn <= config.deform_tol:
            stop = "tolerance"
            break
        if (solve := gram.solve()) is None:  # P is positive definite on admissible problems
            raise SolverError("the Sobolev metric P = L + diag(mu |h|) is singular")
        d = solve(gvec) if np.all(np.isfinite(gvec)) else gvec  # then no trial point is finite
        drop = 0.5 * float(gvec @ d)
        s = 1.0
        while np.all(np.isfinite(v := u - s * d)) and not np.array_equal(v, u):
            peak = _ray_peak(problem, v)
            if peak is not None and peak[1][1] <= level - s * drop:
                break
            s *= 0.5
        else:
            stop = "backtracking"
            break
        u, (quad, level, r) = peak
    log.stops["mountain_pass"] = stop
    try:
        found = _newton_polish(problem, u, at_u0=(quad, level, r), gram=gram)
    except SolverError as exc:
        if stop == "tolerance":
            raise
        how = "spent its iteration budget" if stop == "budget" else "exhausted its backtracking"
        raise SolverError(f"descent {how} at energy {level:.17g} and Newton "
                          f"refinement from the iterate failed: {exc}") from exc
    u, _, index, _ = found
    if _is_trivial_collapse(problem, u):
        raise SolverError(
            "deformation collapsed to the zero function; no pass-level "
            "critical point was isolated"
        )
    if index != 1:
        raise SolverError(
            f"descent stopped by {stop} and Newton refinement converged to a critical "
            f"point of Morse index {index}, not a mountain-pass point of index 1"
        )
    return _finish_solution(problem, "mountain_pass", config, *found)


def ball_minimize(
    problem: Problem,
    config: SolverConfig | None = None,
    *,
    log: RunLog | None = None,
    gram: _Gram | None = None,
) -> Solution:
    """Local minimizer of the energy strictly inside the ball h-norm <
    sqrt(rho).

    Newton runs from the zero function (_newton_polish).
    Its point is accepted when the Hessian there has Morse index 0 and
    its h-norm lies inside the sphere by SPHERE_MARGIN; otherwise, and
    when Newton fails, the error says "no interior minimizer found" and
    why.  When f(x,0) = 0 the zero function is a genuine solution, where
    Newton starts at residual 0; it is returned with kind="trivial"
    rather than treated as an error.  log receives the gate's verdicts,
    the "ball_min" trace (one row per Newton iterate) and its stop,
    "tolerance" or "newton_failed".  gram, when given, is the P whose
    updates Newton solves with (two_solutions shares it with the
    mountain pass).
    """
    config = config or SolverConfig()
    log = RunLog() if log is None else log
    if config.rho is None:
        raise SolverError("ball minimization needs rho, the squared ball radius")
    if config.verify_hypotheses:
        # no reaction-term check on this route: with f(x,0) = 0 the ball
        # minimizer is legitimately the zero function, reported as "trivial"
        log.verdicts += _gate(problem, "ball")
    trace = log.traces["ball_min"] = []
    refused = "no interior minimizer found: Newton from the zero function"
    try:
        found = _newton_polish(problem, np.zeros(len(problem._form.mu)), trace=trace, gram=gram)
    except SolverError as exc:
        log.stops["ball_min"] = "newton_failed"
        raise SolverError(f"{refused} failed: {exc}") from exc
    log.stops["ball_min"] = "tolerance"
    u, _, index, at_u = found
    if _is_trivial_collapse(problem, u):
        return _finish_solution(problem, "trivial", config, *found)
    if index != 0:
        raise SolverError(
            f"{refused} converged to a critical point of Morse index {index}, not a minimizer"
        )
    hn, radius = _h_norm(at_u[0]), math.sqrt(config.rho)
    if hn >= radius - SPHERE_MARGIN:
        raise SolverError(
            f"{refused} converged on or past the constraint sphere (h-norm "
            f"{hn:.6g} against radius {radius:.6g})"
        )
    return _finish_solution(problem, "ball_min", config, *found)


def two_solutions(
    problem: Problem,
    config: SolverConfig | None = None,
    *,
    log: RunLog | None = None,
) -> SolveReport:
    """Run the full two-solution pipeline and report both solutions.

    Ball specification is either rho directly, or m0 (pointwise range
    bound), in which case the squared ball radius is m0^2/(mu_min h0),
    max |F| is taken on [-m0, m0] and the smallness check F8 must
    pass.  beta defaults to the largest admissible value from
    the ball constants and must satisfy 0 < beta <= that bound.

    log receives the verdicts once the whole gate has passed, then what
    both solvers write.  They share one P (gram), dropped before the
    eigen step factors L.
    """
    config = config or SolverConfig()
    log = RunLog() if log is None else log
    if config.rho is not None and config.m0 is not None:
        raise SolverError(
            "rho and m0 are alternative ball specifications; give exactly one"
        )
    if problem.h0 is None:
        raise SolverError(
            "the two-solution pipeline needs h0, the asserted lower bound of h"
        )
    m0 = config.m0
    verdicts = _gate(problem, "two")
    hypothesis = embedding_hypothesis(verdicts)
    if m0 is not None:
        rho = m0 * m0 / (problem.graph.mu_min * problem.h0)
    elif config.rho is None:
        raise SolverError(
            "the two-solution pipeline needs rho (squared ball radius) or m0"
        )
    else:
        rho = config.rho
    ball = ball_constants(problem, rho, kappa_choice=hypothesis, u_bound=m0)
    beta = ball.beta_max if config.beta is None else config.beta
    no_beta = SolverError(
        "no valid beta: the smallness condition needs 0 < beta <= "
        f"rho/(2 max|F|) - 1 = {ball.beta_max:g}, got beta = {beta:g}"
    )
    if not beta > 0.0:
        raise no_beta
    if m0 is not None:
        f8 = f8_verdict(
            ball.max_abs_F, ball.u_at_max, m0, beta, problem.graph.mu_min, problem.h0
        )
        verdicts.append(f8)
        if not f8.holds:
            raise SolverError(
                f"the antiderivative smallness condition F8 fails: {f8.witness}"
            )
    if not beta <= ball.beta_max * (1.0 + 1e-12):
        raise no_beta
    verdicts.append(HypothesisVerdict(
        "beta-range", True,
        f"1 < beta + 1 = {beta + 1.0:g} <= {ball.beta_max + 1.0:g} = rho/(2 max|F|)",
        data={"beta": float(beta), "beta_max": float(ball.beta_max), "rho": float(rho)},
    ))

    log.verdicts += verdicts
    sub = dataclasses.replace(config, verify_hypotheses=False, rho=rho, m0=None)
    gram = _Gram(problem)
    ball_sol = ball_minimize(problem, sub, log=log, gram=gram)
    pass_sol = mountain_pass(problem, sub, log=log, gram=gram)
    del gram  # before the eigen step factors L

    for sol in (ball_sol, pass_sol):
        if sol.kind == "trivial" or float(np.max(np.abs(sol.u))) < TRIVIAL_SUP:
            raise SolverError(
                f"the {sol.kind} route returned the zero function even though "
                "F7 holds; this contradicts the gate and is reported, not "
                "silently accepted"
            )
    gap = float(np.max(np.abs(ball_sol.u - pass_sol.u)))
    if gap < DISTINCT_SUP:
        raise SolverError(
            f"the two routes converged to the same function (sup-norm gap "
            f"{gap:g} < {DISTINCT_SUP:g}); both iteration traces are in the run log"
        )

    eigen = first_eigenvalue(problem.graph, problem.partition, form=problem._form)
    constants = embedding_constants(
        problem.graph, problem.partition, problem.h, problem.h0,
        hypothesis=hypothesis, eigen=eigen,
    )
    return SolveReport(
        solutions=(ball_sol, pass_sol),
        hypothesis_verdicts=tuple(verdicts),
        constants=constants,
        ball=ball,
        ps_diagnostic=ps_diagnostic(log.traces.values(), (ball_sol, pass_sol)),
    )
