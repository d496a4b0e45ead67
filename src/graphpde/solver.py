"""Critical-point solvers for the graph reaction-diffusion energy.

Three entry points:

    mountain_pass   deforms a polygonal path from 0 to a spike endpoint
                    with nonpositive energy, climbing its maximizing
                    point up to the saddle, which Newton iteration then
                    refines into a positive-level critical point
    ball_minimize   Newton iteration from the zero function, accepted
                    when it converges to a point of Morse index 0
                    strictly inside the ball of radius sqrt(rho)
    two_solutions   verifies the two-solution hypotheses, then runs
                    both and checks the results are distinct

Each writes what it sees into an optional RunLog as it runs, so the
record of a run survives a SolverError.

The path deformation steps along the Sobolev gradient: the Riesz
representative P^(-1) g of the Euclidean gradient g in the inner
product of P = L + diag(mu |h|) on interior unknowns, with L the
interior Laplacian.  Where h > 0, P is the Gram matrix of the h-norm,
the metric the energy is posed in, so one unit step undoes the
quadratic part of the energy whatever the weights and measures.  P is
factored once per deformation, and Newton's indefinite Jacobian once
per step, by the band factor spectral._band_solver.  Along the path
tangent the climbing image does not take the Sobolev step: where the
energy's exact curvature there is negative it takes the 1-D Newton step
to the maximum along the tangent, and otherwise reflects the tangential
part of the Sobolev gradient.

The solvers iterate on interior values only: the path is a (P, |omega|)
array and every iterate an (|omega|,) vector.  They evaluate through
variational._kernel, which checks nothing, and expand only the reported
Solution's u to every vertex; the Dirichlet check of the public energy
functions runs on calls from outside the solvers.

All loops are deterministic: no randomness, fixed tie-breaking (lowest
input order), and a nonincreasing record of the sampled path level.
"""

from __future__ import annotations

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
from .spectral import ConstantsReport, _band_solver, embedding_constants, first_eigenvalue
from .variational import BallConstants, Problem, _h_norm, _kernel, ball_constants

TRIVIAL_SUP = 1e-10    # sup-norm below which an iterate counts as the zero function
DISTINCT_SUP = 1e-6    # sup-norm gap two reported solutions must exceed
SPHERE_MARGIN = 1e-8   # how far inside the constraint sphere "interior" starts
STALL_WINDOW = 100     # iterations over which path-level progress is measured
STALL_DROP = 1e-15     # minimum sampled-level progress per window
PATH_POINTS = 41       # points of the deformation path, both endpoints included
NEWTON_TOL = 1e-12     # vertexwise residual Newton refinement must reach
NEWTON_MAX = 50        # Newton iterations before refinement gives up
NEWTON_TRY = 8         # Newton iterations of the mountain pass's hand-off attempt
NEWTON_CUT = 0.1       # residual factor each attempt step after the first must reach
SPIKE_DOUBLINGS = 60   # doublings of the spike height before the endpoint search gives up

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
    """Budgets of the path deformation and the ball setup.

    The deformation stops when the Euclidean gradient norm reaches
    deform_tol or after deform_steps iterations; neither bounds the
    ball minimizer's Newton iteration.  rho is the squared radius of the
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
    reported when f(x, 0) = 0 makes it an actual solution."""

    u: np.ndarray
    energy_value: float
    grad_norm: float
    residual_max: float
    kind: str
    in_ball: bool
    rho_used: float | None
    h_norm: float


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
    as the loop starts; mountain_pass's is the sampled level, a running
    minimum of path samples, not a bound on the saddle; ball_min's is
    the energy of each Newton iterate), why each loop stopped by solver
    name ("newton_handoff", "tolerance", "stall", "budget" or
    "endpoint_maximum" for mountain_pass; "tolerance" or "newton_failed"
    for ball_min), and (iteration, arc positions, energies) snapshots of
    the path every 50 iterations and at the end."""

    verdicts: list[HypothesisVerdict] = field(default_factory=list)
    traces: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    stops: dict[str, str] = field(default_factory=dict)
    profile: list[tuple[int, np.ndarray, np.ndarray]] = field(default_factory=list)


def ps_diagnostic(traces, solutions) -> bool:
    """The SolveReport flag: every iteration trace is nonempty with
    finite levels and gradient norms, and every solution reached the
    Newton tolerance."""
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


def _arc_positions(path: np.ndarray) -> np.ndarray:
    """Euclidean arc length from the start to each path point, as a
    fraction of the whole path's length."""
    seg = np.sqrt(np.sum(np.diff(path, axis=0) ** 2, axis=1))
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    return cum / cum[-1]


def _resample_path(path: np.ndarray, i: int, deltas: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The path with the points on each side of point i redistributed
    uniformly by Euclidean arc length, both sides in one pass; deltas
    and seg hold the segment vectors and their lengths.  Point i (the
    climbing image) and both endpoints stay exactly; a whole-path
    resample would interpolate the image away."""
    npts = len(path)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    k = np.arange(npts, dtype=float)
    right = (cum[-1] - cum[i]) / (npts - 1 - i)
    targets = np.where(k < i, k * (cum[i] / i), cum[i] + (k - i) * right)
    idx = np.minimum(np.searchsorted(cum, targets, side="right") - 1, npts - 2)
    length = seg[idx]
    local = np.divide(targets - cum[idx], length, out=np.zeros(npts), where=length > 0.0)
    out = deltas.take(idx, axis=0)
    out *= local[:, None]
    out += path.take(idx, axis=0)
    for j in (0, i, npts - 1):
        out[j] = path[j]
    return out


def _sobolev_direction(problem: Problem):
    """Factor P = L + diag(mu |h|) on the interior unknowns once and
    return its solve g -> P^(-1) g on interior vectors.

    L is symmetric positive definite for every admissible problem (a
    nonempty boundary and a connected closure), and the |h| keeps P so
    where h is negative.  P is assembled as its lower band, and only
    its factor is kept.
    """
    pband = _interior_matrix(problem._form)
    pband[0] += np.abs(problem._mu_h)
    return _band_solver(pband)


def _climbing_move(problem: Problem, precondition, gvec, tau, u) -> np.ndarray:
    """Climbing-image move at u along the path tangent tau: the
    Sobolev gradient P^(-1) g with its part along tau, in the P inner
    product, replaced, so that a step against the move descends across
    the path and climbs along it.

    Across the path the move keeps P^(-1) g - (g . tau)/(tau^T P tau) tau.
    Along tau it is the 1-D Newton step (g . tau)/c tau when the exact
    curvature c = tau^T H tau is negative, H = L + diag(mu (h - f_u)) the
    energy's Hessian at u; otherwise the tangential part is reflected,
    -(g . tau)/(tau^T P tau) tau.  tau^T P tau and c add their diagonals
    to tau^T L tau, the interior Laplacian's edge sum.  A zero tau
    (coincident neighbours) gives no tangent: the move is P^(-1) g."""
    move = precondition(gvec)
    sq = tau * tau
    grad = problem._form.quadratic(tau)
    tpt = grad + float(sq @ np.abs(problem._mu_h))
    if tpt > 0.0:
        fu = reaction_derivative(problem.nl, u)
        curv = grad + float(sq @ (problem._mu_h - problem._form.mu * fu))
        slope = float(gvec @ tau)
        if curv < 0.0:
            move += (slope / curv - slope / tpt) * tau
        else:
            move -= (2.0 * slope / tpt) * tau
    return move


@np.errstate(over="ignore", invalid="ignore")  # a diverging step fails as not finite
def _newton_polish(problem: Problem, u0: np.ndarray, attempt: bool = False, trace=None):
    """Refine a candidate, given by its interior values, to vertexwise
    residual <= NEWTON_TOL.

    The linearization at u restricted to interior unknowns is the
    interior Laplacian matrix plus diag(mu (h - f_u)), written into the
    diagonal, row 0 of one lower band, in place and factored by
    _band_solver once per step.  A singular Jacobian or a non-finite step
    raises a SolverError that names it; no step is retried.  Returns
    (u, residual_max, index).  An attempt takes at most NEWTON_TRY
    iterations and gives up with a SolverError when one after the first
    cuts the residual by less than NEWTON_CUT; converged, it factors the
    Hessian at u, and index is its Morse index, the number of negative
    eigenvalues.  Otherwise index is None.  A trace list receives the
    (energy, Euclidean gradient norm) row of each iterate, also of one
    that fails.
    """
    mu, h = problem._form.mu, problem.h[problem._form.omega]
    jac = _interior_matrix(problem._form)
    u = np.array(u0, dtype=float, copy=True)
    budget = NEWTON_TRY if attempt else NEWTON_MAX
    prev = math.inf
    rises = 0

    def factor(step):
        jac[0] = problem._form.diag + mu * (h - reaction_derivative(problem.nl, u))
        try:
            return _band_solver(jac)
        except np.linalg.LinAlgError:
            raise SolverError(f"Newton's Jacobian is singular at step {step}") from None

    for step in range(budget + 1):
        _, value, r = _kernel(problem, u, value=trace is not None, residual=True)
        if trace is not None:
            trace.append((float(value), float(np.linalg.norm(mu * r))))
        res_max = float(np.max(np.abs(r)))
        if res_max <= NEWTON_TOL:
            return u, res_max, factor(step).negatives if attempt else None
        if step == budget:
            break
        if attempt and step >= 2 and not res_max <= NEWTON_CUT * prev:
            raise SolverError(f"Newton attempt cut the residual only from {prev:g} to {res_max:g}")
        rises = rises + 1 if res_max > prev else 0
        if rises >= 5:
            raise SolverError(
                "Newton refinement diverged: the residual rose five "
                f"consecutive iterations (latest {res_max:g})"
            )
        prev = res_max
        delta = factor(step)(-(mu * r))
        if not np.all(np.isfinite(delta)):
            raise SolverError(f"Newton step {step} is not finite")
        u += delta
    raise SolverError(
        f"Newton refinement did not reach residual {NEWTON_TOL:g} in "
        f"{budget} iterations (residual {res_max:g})"
    )


def _newton_handoff(problem: Problem, u0: np.ndarray, level: float):
    """Newton from u0 as an attempt (_newton_polish), accepted as
    (u, residual_max) only when it converges to a nonzero point of Morse
    index 1 whose energy is at most level; None otherwise, also when
    Newton fails (a SolverError, a singular Jacobian among them)."""
    try:
        u, res_max, index = _newton_polish(problem, u0, attempt=True)
    except SolverError:
        return None
    ok = index == 1 and np.max(np.abs(u)) >= TRIVIAL_SUP and _kernel(problem, u)[1] <= level
    return (u, res_max) if ok else None


def _is_trivial_collapse(problem: Problem, u) -> bool:
    return reaction(problem.nl, 0.0) == 0.0 and float(np.max(np.abs(u))) < TRIVIAL_SUP


def _finish_solution(problem, kind, config, u, res_max) -> Solution:
    """The Solution at interior values u, expanded to every vertex."""
    hn = _h_norm(problem, u)
    _, value, r = _kernel(problem, u, residual=True)
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
    )


def mountain_pass(
    problem: Problem,
    config: SolverConfig | None = None,
    *,
    log: RunLog | None = None,
) -> Solution:
    """Pass-level critical point via path deformation plus Newton.

    The segment from 0 to the spike endpoint is discretized into
    PATH_POINTS points.  Each iteration evaluates the energy along the
    path, records the sampled level (the running minimum over
    iterations of the pre-move maximum of the path's samples,
    nonincreasing by construction, and below the saddle's energy by up
    to the sampling gap) and moves the maximizing point as a climbing image
    (_climbing_move): down the Sobolev gradient across the path and, along
    the path tangent, by the 1-D Newton step where the energy's curvature
    along it is negative (otherwise up the reflected Sobolev gradient),
    by a unit step capped at the path spacing.  Both sides of the image
    are then redistributed by arc length in one pass, keeping the image
    where it moved.  The loop leaves for Newton refinement when the
    image's Euclidean gradient norm reaches deform_tol, or when the
    sampled level stalls, or when deform_steps iterations are spent;
    refinement failure after a stall or a spent budget names that stop.

    Before the first move, Newton runs from the initial path's maximizer
    as an attempt (_newton_handoff).  When it reaches NEWTON_TOL at a
    nonzero point of Morse index 1, read off the Hessian's factor there,
    with energy at most the iteration-0 level, that is the solution and
    neither the deformation nor P's factor runs.

    log receives the gate's verdicts, the "mountain_pass" trace, its
    stop reason and the path profile.
    """
    config = config or SolverConfig()
    log = RunLog() if log is None else log
    if config.verify_hypotheses:
        log.verdicts += _gate(problem, "one")
    mu = problem._form.mu
    endpoint = build_spike_endpoint(problem)[problem._form.omega]
    precondition = None
    npts = PATH_POINTS
    # npts even steps from 0, ending exactly at 1
    path = np.append(np.arange(npts - 1) * (1.0 / (npts - 1)), 1.0)[:, None] * endpoint[None, :]
    trace = log.traces["mountain_pass"] = []
    level = math.inf
    stop = "budget"
    for k in range(config.deform_steps):
        values = _kernel(problem, path)[1]
        i = int(np.argmax(values))
        level = min(level, float(values[i]))
        if k % 50 == 0:
            log.profile.append((k, _arc_positions(path), values))
        gvec = mu * _kernel(problem, path[i], value=False, residual=True)[2]
        gn = math.sqrt(gvec @ gvec)
        trace.append((level, gn))
        if i == 0 or i == npts - 1:
            log.stops["mountain_pass"] = "endpoint_maximum"
            raise SolverError(
                "the path maximum sits at an endpoint; no interior energy "
                "barrier separates 0 from the spike endpoint"
            )
        if gn <= config.deform_tol:
            stop = "tolerance"
            break
        if k >= STALL_WINDOW and trace[k - STALL_WINDOW][0] - level < STALL_DROP:
            stop = "stall"
            break
        if k == 0:
            handed = _newton_handoff(problem, path[i], level)
            if handed is not None:
                log.stops["mountain_pass"] = "newton_handoff"
                return _finish_solution(problem, "mountain_pass", config, *handed)
            precondition = _sobolev_direction(problem)
        move = _climbing_move(problem, precondition, gvec, path[i + 1] - path[i - 1], path[i])
        deltas = path[1:] - path[:-1]
        seg = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
        spacing = float(np.sum(seg)) / (npts - 1)
        alpha = 1.0
        mn = math.sqrt(move @ move)
        if mn > spacing:
            alpha = spacing / mn
        path[i] -= alpha * move
        for j in (i - 1, i):
            deltas[j] = path[j + 1] - path[j]
            seg[j] = math.sqrt(deltas[j] @ deltas[j])
        path = _resample_path(path, i, deltas, seg)
    del precondition
    log.stops["mountain_pass"] = stop
    if stop == "budget":
        values = _kernel(problem, path)[1]
        i = int(np.argmax(values))
    # values holds the energies of the final path on every way out of the loop
    log.profile.append((len(trace), _arc_positions(path), values))
    try:
        u, res_max, _ = _newton_polish(problem, path[i])
    except SolverError as exc:
        if stop != "tolerance":
            how = "stalled" if stop == "stall" else "spent its iteration budget"
            raise SolverError(
                f"path deformation {how} at sampled level {level:.17g} and "
                f"Newton refinement from the maximizer failed: {exc}"
            ) from exc
        raise
    if _is_trivial_collapse(problem, u):
        raise SolverError(
            "deformation collapsed to the zero function; no pass-level "
            "critical point was isolated"
        )
    return _finish_solution(problem, "mountain_pass", config, u, res_max)


def ball_minimize(
    problem: Problem,
    config: SolverConfig | None = None,
    *,
    log: RunLog | None = None,
) -> Solution:
    """Local minimizer of the energy strictly inside the ball h-norm <
    sqrt(rho).

    Newton runs from the zero function as an attempt (_newton_polish).
    Its point is accepted when the Hessian there has Morse index 0 and
    its h-norm lies inside the sphere by SPHERE_MARGIN; otherwise, and
    when Newton fails, the error says "no interior minimizer found" and
    why.  When f(x,0) = 0 the zero function is a genuine solution, where
    Newton starts at residual 0; it is returned with kind="trivial"
    rather than treated as an error.  log receives the gate's verdicts,
    the "ball_min" trace (one row per Newton iterate) and its stop,
    "tolerance" or "newton_failed".
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
        u, res_max, index = _newton_polish(
            problem, np.zeros(len(problem._form.mu)), attempt=True, trace=trace
        )
    except SolverError as exc:
        log.stops["ball_min"] = "newton_failed"
        raise SolverError(f"{refused} failed: {exc}") from exc
    log.stops["ball_min"] = "tolerance"
    if _is_trivial_collapse(problem, u):
        return _finish_solution(problem, "trivial", config, u, res_max)
    if index != 0:
        raise SolverError(
            f"{refused} converged to a critical point of Morse index {index}, not a minimizer"
        )
    hn, radius = _h_norm(problem, u), math.sqrt(config.rho)
    if hn >= radius - SPHERE_MARGIN:
        raise SolverError(
            f"{refused} converged on or past the constraint sphere (h-norm "
            f"{hn:.6g} against radius {radius:.6g})"
        )
    return _finish_solution(problem, "ball_min", config, u, res_max)


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
    both solvers write.
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
    ball_sol = ball_minimize(problem, sub, log=log)
    pass_sol = mountain_pass(problem, sub, log=log)

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

    eigen = first_eigenvalue(problem.graph, problem.partition)
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
