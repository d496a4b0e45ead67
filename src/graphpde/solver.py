"""Critical-point solvers for the graph reaction-diffusion energy.

Three entry points:

    mountain_pass   deforms a polygonal path from 0 to a spike endpoint
                    with nonpositive energy, climbing its maximizing
                    point up to the saddle, which Newton iteration then
                    refines into a positive-level critical point
    ball_minimize   projected gradient descent inside the energy ball
                    of radius sqrt(rho), refined unconstrained when the
                    minimizer is interior
    two_solutions   verifies the two-solution hypotheses, then runs
                    both and checks the results are distinct

Each writes what it sees into an optional RunLog as it runs, so the
record of a run survives a SolverError.

Both loops step along the Sobolev gradient: the Riesz representative
P^(-1) g of the Euclidean gradient g in the inner product of
P = L + diag(mu |h|) on interior unknowns, with L the interior
Laplacian.  Where h > 0, P is the Gram matrix of the h-norm, the metric
the energy is posed in, so one unit step undoes the quadratic part of
the energy whatever the weights and measures.  P is factored once per
loop (Cholesky) and only back-substituted per step.  Along the path
tangent the climbing image does not take the Sobolev step: where the
energy's exact curvature there is negative it takes the 1-D Newton step
to the maximum along the tangent, and otherwise reflects the tangential
part of the Sobolev gradient.

All loops are deterministic: no randomness, fixed tie-breaking (lowest
input order), and a certified nonincreasing record of the path level.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import _interior_matrix
from .nonlinearity import (
    GridSpec,
    HypothesisVerdict,
    check_f,
    check_h,
    evaluate,
    f1_verdict,
    reaction_derivative,
)
from .spectral import ConstantsReport, _cholesky_solver, embedding_constants, first_eigenvalue
from .variational import (
    BallConstants,
    Problem,
    ball_constants,
    energy,
    gradient,
    h_norm,
    pointwise_residual,
)

TRIVIAL_SUP = 1e-10    # sup-norm below which an iterate counts as the zero function
DISTINCT_SUP = 1e-6    # sup-norm gap two reported solutions must exceed
SPHERE_MARGIN = 1e-8   # how far inside the constraint sphere "interior" starts
STALL_WINDOW = 100     # iterations over which path-level progress is measured
STALL_DROP = 1e-15     # minimum certified-level progress per window
PATH_POINTS = 41       # points of the deformation path, both endpoints included
NEWTON_TOL = 1e-12     # vertexwise residual Newton refinement must reach
NEWTON_MAX = 50        # Newton iterations before refinement gives up
SPIKE_DOUBLINGS = 60   # doublings of the spike height before the endpoint search gives up
SHRINK = 0.5           # backtracking factor of the ball minimizer's step
ARMIJO = 1e-4          # slope fraction of its sufficient-decrease test

# The alternative hypothesis sets on f under which the existence
# theorems hold, tried in this order: (theorem, the verdicts the route
# requires, the verdicts it attaches only when their constants exist).
# Theorem "one" gives a pass-level solution, "two" a ball minimizer and
# a pass-level solution.  A route that requires a verdict whose
# constants are absent does not apply; an attached verdict, once
# checked, must hold too.
ROUTES = (
    ("one", ("F2", "F4"), ("F3",)),
    ("one", ("F5", "F6"), ("F3",)),
    ("two", ("F7",), ("F3", "F4")),
)
# the constants of the nonlinearity each check needs, by verdict name
_CONSTANTS = {"F3": ("growth_C", "growth_p"), "F4": ("ar_theta", "ar_M")}


class SolverError(RuntimeError):
    """A solve failed in a way the caller should see, with diagnosis."""


@dataclass(frozen=True)
class SolverConfig:
    """Budgets of the deformation and descent loops and the ball setup.

    Both loops stop when the Euclidean gradient norm reaches deform_tol
    or after deform_steps iterations.  rho is the squared radius of the
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
    newton_shifted: bool = False


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
    (certified level, gradient norm) rows of each loop by solver name
    (set afresh as the loop starts), and (iteration, arc positions,
    energies) snapshots of the path every 50 iterations and at the end."""

    verdicts: list[HypothesisVerdict] = field(default_factory=list)
    traces: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
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


def coefficient_verdicts(source, h0, names=("H1", "H2", "H3")):
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


def _f_verdicts(nl, names, grid):
    """check_f verdicts of names, in order, leaving out the names whose
    constants nl lacks."""
    return [
        check_f(nl, name, grid) for name in names
        if all(getattr(nl, attr) is not None for attr in _CONSTANTS.get(name, ()))
    ]


def _routes(nl, theorem: str, grid):
    """Lazily, for each route of theorem whose required checks nl has
    the constants for: the verdicts it requires and those it attaches."""
    for thm, requires, attaches in ROUTES:
        required = _f_verdicts(nl, requires, grid) if thm == theorem else ()
        if len(required) == len(requires):
            yield required, _f_verdicts(nl, attaches, grid)


def route_verdicts(nl, grid):
    """Every f-verdict the table names, for reporting them all (first
    the checks that need no constants, then the others, each in table
    order), and whether some route holds."""
    names = dict.fromkeys(name for _, req, att in ROUTES for name in req + att)
    names = sorted(names, key=_CONSTANTS.__contains__)
    checked = {v.name: v for v in _f_verdicts(nl, names, grid)}
    holds = any(
        all(name in checked and checked[name].holds for name in req)
        and all(checked[name].holds for name in att if name in checked)
        for _, req, att in ROUTES
    )
    return list(checked.values()), holds


def _gate_error(failures) -> SolverError:
    detail = "; ".join(f"{v.name}: {v.witness}" for v in failures)
    return SolverError(f"hypothesis verification failed before solving: {detail}")


def _mountain_pass_gate(problem: Problem, config: SolverConfig):
    """One-solution hypotheses: H1 (when h0 is given) and H2 on h, F1,
    and the one-solution routes of ROUTES, each tried only when the
    ones before it fail.  When none holds the error lists the failures
    of the first."""
    nl = problem.nl
    verdicts = coefficient_verdicts(problem, problem.h0, ("H1", "H2"))
    h_failures = [v for v in verdicts if not v.holds]
    verdicts.append(f1_verdict(nl))
    first = None
    for requires, attaches in _routes(nl, "one", GridSpec.default(M=nl.ar_M, M0=config.m0)):
        verdicts += [v for v in requires + attaches if v not in verdicts]
        failures = h_failures + [v for v in requires + attaches if not v.holds]
        if not failures:
            return verdicts
        first = first or failures
        if h_failures:
            break
    raise _gate_error(first)


def build_spike_endpoint(problem: Problem) -> np.ndarray:
    """Single-vertex spike t at the interior vertex of largest measure
    (ties to the earliest input vertex), with t doubled from 1 until the
    energy is nonpositive.

    A nonpositive energy already places the endpoint outside every ball
    on which the energy stays positive, so no separate radius check is
    made.  Failure to terminate within the doubling budget signals a
    reaction term without superquadratic growth.
    """
    omega = problem.partition.omega
    x0 = int(omega[int(np.argmax(problem.graph.measure[omega]))])
    t = 1.0
    samples = []
    for _ in range(SPIKE_DOUBLINGS + 1):
        e = np.zeros(problem.graph.n)
        e[x0] = t
        val = energy(problem, e)
        samples.append((t, val))
        if val <= 0.0:
            return e
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
    return g -> P^(-1) g on the interior, zero elsewhere.

    L is symmetric positive definite for every admissible problem (a
    nonempty boundary and a connected closure), and the |h| keeps P so
    where h is negative.  Only the factor is kept, not P itself.
    """
    omega = problem.partition.omega
    pmat = _interior_matrix(problem.graph, problem.partition)
    pmat[np.diag_indices_from(pmat)] += np.abs(problem._form.mu_h)
    solve = _cholesky_solver(pmat)
    del pmat

    def direction(gvec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(gvec)
        out[omega] = solve(gvec[omega])
        return out

    return direction


def _climbing_move(problem: Problem, precondition, gvec, tau, u) -> np.ndarray:
    """Climbing-image move at u along the path tangent tau: the
    Sobolev gradient P^(-1) g with its part along tau, in the P inner
    product, replaced, so that a step against the move descends across
    the path and climbs along it.

    Across the path the move keeps P^(-1) g - (g . tau)/(tau^T P tau) tau.
    Along tau it is the 1-D Newton step (g . tau)/c tau when the exact
    curvature c = tau^T H tau is negative, H = L + diag(mu (h - f_u)) the
    energy's Hessian at u; otherwise the tangential part is reflected,
    -(g . tau)/(tau^T P tau) tau.  tau^T P tau and c come from one edge
    pass.  A zero tau (coincident neighbours) gives no tangent: the move
    is P^(-1) g."""
    move = precondition(gvec)
    form = problem._form
    d = tau[form.i] - tau[form.j]
    sq = tau[form.omega] ** 2
    grad = float((d * d) @ form.w)
    tpt = grad + float(sq @ np.abs(form.mu_h))
    if tpt > 0.0:
        fu = reaction_derivative(problem.nl, u[form.omega])
        curv = grad + float(sq @ (form.mu_h - form.mu * fu))
        slope = float(gvec @ tau)
        if curv < 0.0:
            move += (slope / curv - slope / tpt) * tau
        else:
            move -= (2.0 * slope / tpt) * tau
    return move


def _descent_step(problem: Problem, u, gvec, direction, value, project):
    """One descent move from u along -direction, a descent direction
    for the Euclidean gradient gvec.  Returns (new point, new energy),
    or None when backtracking exhausts the step length.

    Backtracking starts from the unit step, the natural scale of a
    Sobolev-gradient step, and shrinks it by SHRINK until the trial
    passes the sufficient-decrease test with slope fraction ARMIJO
    (slope gvec . direction) and lowers the energy strictly.  project
    maps each trial point back into the feasible set before it is
    evaluated.
    """
    slope = float(gvec @ direction)
    alpha = 1.0
    while alpha >= 1e-18:
        cand = project(u - alpha * direction)
        val = energy(problem, cand)
        if val <= value - ARMIJO * alpha * slope and val < value:
            return cand, val
        alpha *= SHRINK
    return None


def _newton_polish(problem: Problem, u0: np.ndarray):
    """Refine a candidate to vertexwise residual <= NEWTON_TOL.

    The linearization at u restricted to interior unknowns is the
    interior Laplacian matrix plus diag(mu (h - f_u)), written into the
    diagonal of one matrix in place; a singular or non-finite solve
    falls back once per iteration to a 1e-10 diagonal shift and flags
    it.  Returns (u, residual_max, shifted).
    """
    omega = problem.partition.omega
    mu = problem.graph.measure[omega]
    jac = _interior_matrix(problem.graph, problem.partition)
    diag = np.diag_indices_from(jac)
    base = jac[diag]
    u = np.array(u0, dtype=float, copy=True)
    shifted = False
    prev = math.inf
    rises = 0
    for _ in range(NEWTON_MAX):
        r = pointwise_residual(problem, u)[omega]
        res_max = float(np.max(np.abs(r)))
        if res_max <= NEWTON_TOL:
            return u, res_max, shifted
        if res_max > prev:
            rises += 1
            if rises >= 5:
                raise SolverError(
                    "Newton refinement diverged: the residual rose five "
                    f"consecutive iterations (latest {res_max:g})"
                )
        else:
            rises = 0
        prev = res_max
        _, _, fu = evaluate(problem.nl, None, u[omega])
        jac[diag] = base + mu * (problem.h[omega] - fu)
        rhs = -(mu * r)
        try:
            delta = np.linalg.solve(jac, rhs)
            if not np.all(np.isfinite(delta)):
                raise np.linalg.LinAlgError("non-finite Newton update")
        except np.linalg.LinAlgError:
            shifted = True
            jac[diag] += 1e-10
            delta = np.linalg.solve(jac, rhs)
        u[omega] += delta
    r = pointwise_residual(problem, u)[omega]
    res_max = float(np.max(np.abs(r)))
    if res_max <= NEWTON_TOL:
        return u, res_max, shifted
    raise SolverError(
        f"Newton refinement did not reach residual {NEWTON_TOL:g} in "
        f"{NEWTON_MAX} iterations (residual {res_max:g})"
    )


def _is_trivial_collapse(problem: Problem, u) -> bool:
    f0, _, _ = evaluate(problem.nl, None, 0.0)
    return f0 == 0.0 and float(np.max(np.abs(u))) < TRIVIAL_SUP


def _finish_solution(problem, u, res_max, kind, config, shifted) -> Solution:
    hn = h_norm(problem, u)
    rho = config.rho
    return Solution(
        u=u,
        energy_value=energy(problem, u),
        grad_norm=float(np.linalg.norm(gradient(problem, u))),
        residual_max=res_max,
        kind=kind,
        in_ball=(rho is not None and hn < math.sqrt(rho)),
        rho_used=rho,
        h_norm=hn,
        newton_shifted=shifted,
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
    path, records the certified level (the running minimum over
    iterations of the pre-move path maximum, nonincreasing by
    construction) and moves the maximizing point as a climbing image
    (_climbing_move): down the Sobolev gradient across the path and, along
    the path tangent, by the 1-D Newton step where the energy's curvature
    along it is negative (otherwise up the reflected Sobolev gradient),
    by a unit step capped at the path spacing.  Both sides of the image
    are then redistributed by arc length in one pass, keeping the image
    where it moved.  The loop leaves for Newton refinement when the
    image's Euclidean gradient norm reaches deform_tol, or when the
    certified level stalls; refinement failure after a stall is
    reported as a stall.

    log receives the gate's verdicts, the "mountain_pass" trace and the
    path profile.
    """
    config = config or SolverConfig()
    log = RunLog() if log is None else log
    if config.verify_hypotheses:
        log.verdicts += _mountain_pass_gate(problem, config)
    endpoint = build_spike_endpoint(problem)
    precondition = _sobolev_direction(problem)
    npts = PATH_POINTS
    path = np.linspace(0.0, 1.0, npts)[:, None] * endpoint[None, :]
    trace = log.traces["mountain_pass"] = []
    level = math.inf
    stalled = False
    u_best = None
    for k in range(config.deform_steps):
        values = energy(problem, path)
        i = int(np.argmax(values))
        level = min(level, float(values[i]))
        if k % 50 == 0:
            log.profile.append((k, _arc_positions(path), values))
        gvec = gradient(problem, path[i])
        gn = math.sqrt(gvec @ gvec)
        trace.append((level, gn))
        if i == 0 or i == npts - 1:
            raise SolverError(
                "the path maximum sits at an endpoint; no interior energy "
                "barrier separates 0 from the spike endpoint"
            )
        if gn <= config.deform_tol:
            u_best = path[i].copy()
            break
        if k >= STALL_WINDOW and trace[k - STALL_WINDOW][0] - level < STALL_DROP:
            stalled = True
            u_best = path[i].copy()
            break
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
    if u_best is None:
        values = energy(problem, path)
        i = int(np.argmax(values))
        u_best = path[i].copy()
        stalled = True
    # values holds the energies of the final path on every way out of the loop
    log.profile.append((len(trace), _arc_positions(path), values))
    try:
        u, res_max, shifted = _newton_polish(problem, u_best)
    except SolverError as exc:
        if stalled:
            raise SolverError(
                f"path deformation stalled at certified level {level:.17g} and "
                f"Newton refinement from the maximizer failed: {exc}"
            ) from exc
        raise
    if _is_trivial_collapse(problem, u):
        raise SolverError(
            "deformation collapsed to the zero function; no pass-level "
            "critical point was isolated"
        )
    return _finish_solution(problem, u, res_max, "mountain_pass", config, shifted)


def ball_minimize(
    problem: Problem,
    config: SolverConfig | None = None,
    *,
    log: RunLog | None = None,
) -> Solution:
    """Minimize the energy over the closed ball h-norm <= sqrt(rho).

    Projected Sobolev-gradient descent from the zero function, one
    _descent_step per iteration: a trial point leaving the ball is
    pulled back radially before it is evaluated.  A minimizer strictly
    inside the sphere (by 1e-8) is refined unconstrained; a minimizer
    pinned to the sphere raises "no interior minimizer found".  When f(x,0) = 0
    the zero function is a genuine solution and descent never leaves
    it; that outcome is returned with kind="trivial" rather than
    treated as an error.  log receives the gate's verdicts and the
    "ball_min" trace.
    """
    config = config or SolverConfig()
    log = RunLog() if log is None else log
    if config.rho is None:
        raise SolverError("ball minimization needs rho, the squared ball radius")
    if config.verify_hypotheses:
        # no reaction-term gate here: with f(x,0) = 0 the ball minimizer
        # is legitimately the zero function and is reported as "trivial"
        verdicts = coefficient_verdicts(problem, problem.h0, ("H1", "H2"))
        failures = [v for v in verdicts if not v.holds]
        if failures:
            raise _gate_error(failures)
        log.verdicts += verdicts
    radius = math.sqrt(config.rho)
    precondition = _sobolev_direction(problem)

    def into_ball(cand):
        hn = h_norm(problem, cand)
        return cand * (radius / hn) if hn > radius else cand

    u = np.zeros(problem.graph.n)
    trace = log.traces["ball_min"] = []
    value = energy(problem, u)
    for _ in range(config.deform_steps):
        gvec = gradient(problem, u)
        gn = float(np.linalg.norm(gvec))
        trace.append((value, gn))
        if gn <= config.deform_tol:
            break
        moved = _descent_step(problem, u, gvec, precondition(gvec), value, into_ball)
        if moved is None:
            break
        u, value = moved
    del precondition
    hn = h_norm(problem, u)
    if hn >= radius - SPHERE_MARGIN:
        raise SolverError(
            "no interior minimizer found: descent terminated on the constraint "
            f"sphere (h-norm {hn:.6g} against radius {radius:.6g}); the minimum "
            "over this ball sits on its boundary"
        )
    if _is_trivial_collapse(problem, u):
        zero = np.zeros(problem.graph.n)
        return _finish_solution(problem, zero, 0.0, "trivial", config, False)
    u, res_max, shifted = _newton_polish(problem, u)
    hn = h_norm(problem, u)
    if hn >= radius - SPHERE_MARGIN:
        raise SolverError(
            "no interior minimizer found: Newton refinement moved the "
            f"candidate onto or past the constraint sphere (h-norm {hn:.6g} "
            f"against radius {radius:.6g})"
        )
    return _finish_solution(problem, u, res_max, "ball_min", config, shifted)


def _two_solution_gate(problem: Problem, config: SolverConfig):
    """Hypotheses for the two-solution pipeline: h0 present, H2, at
    least one of H1/H3, the verdicts the two-solution route of ROUTES
    requires (so the zero function is not a solution), F1, and the ones
    it attaches."""
    nl = problem.nl
    if problem.h0 is None:
        raise SolverError(
            "the two-solution pipeline needs h0, the asserted lower bound of h"
        )
    verdicts = coefficient_verdicts(problem, problem.h0)
    h1, h2, h3 = verdicts
    if not h2.holds:
        raise SolverError(f"hypothesis H2 fails: {h2.witness}")
    if not (h1.holds or h3.holds):
        raise SolverError(
            "neither the uniform lower bound H1 nor the integral bound H3 "
            f"holds for h ({h1.witness}; {h3.witness})"
        )
    grid = GridSpec.default(M=nl.ar_M, M0=config.m0)
    requires, attaches = next(_routes(nl, "two", grid))
    verdicts += requires
    for v in requires:
        if not v.holds:
            raise SolverError(
                f"precondition {v.name} fails: the two-solution setup requires "
                "f(x, 0) != 0 so that every solution is nontrivial, but "
                f"{v.witness}"
            )
    verdicts.append(f1_verdict(nl))
    verdicts += attaches
    failures = [v for v in attaches if not v.holds]
    if failures:
        raise _gate_error(failures)
    return verdicts, embedding_hypothesis(verdicts), grid


def two_solutions(
    problem: Problem,
    config: SolverConfig | None = None,
    *,
    log: RunLog | None = None,
) -> SolveReport:
    """Run the full two-solution pipeline and report both solutions.

    Ball specification is either rho directly, or m0 (pointwise range
    bound), in which case the squared ball radius is m0^2/(mu_min h0),
    the antiderivative is scanned on [-m0, m0] and the smallness check
    F8 must pass.  beta defaults to the largest admissible value from
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
    verdicts, hypothesis, grid = _two_solution_gate(problem, config)
    m0 = config.m0
    if m0 is not None:
        rho = m0 * m0 / (problem.graph.mu_min * problem.h0)
    elif config.rho is None:
        raise SolverError(
            "the two-solution pipeline needs rho (squared ball radius) or m0"
        )
    else:
        rho = config.rho
    ball = ball_constants(
        problem, rho, kappa_choice=hypothesis, grid_points=grid.points, u_bound=m0
    )
    beta = ball.beta_max if config.beta is None else config.beta
    no_beta = SolverError(
        "no valid beta: the smallness condition needs 0 < beta <= "
        f"rho/(2 max|F|) - 1 = {ball.beta_max:g}, got beta = {beta:g}"
    )
    if not beta > 0.0:
        raise no_beta
    if m0 is not None:
        f8 = check_f(
            problem.nl, "F8", grid, M0=m0, beta=beta,
            mu_min=problem.graph.mu_min, h0=problem.h0,
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
