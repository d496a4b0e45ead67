"""Energy functional for -laplacian(u) + h u = f(x, u) with zero boundary data.

The energy of a Dirichlet function u is

    energy(u) = 1/2 (int_closure |grad u|^2 dmu + int_omega h u^2 dmu)
                - int_omega F(x, u) dmu

with F the antiderivative of the reaction term.  Critical points are
weak solutions; on a finite graph they are also vertexwise solutions of
the equation, which is what the residual functions measure.

One kernel (_kernel) computes all of it from the interior values v of
u alone, read off Problem._form, the interior Laplacian.  For Dirichlet
u the closure integral of |grad u|^2 is the sum of w_xy (v(x) - v(y))^2
over the edges inside omega plus w_off v^2, with w_off(x) the weight of
the edges from x out of omega, so

    energy(u) = 1/2 (sum_e w_e d_e^2 + sum_omega (w_off + mu h) v^2) - sum_omega mu F(v)

and the residual is (L v + mu h v)/mu - f(v), with L the interior
Laplacian; mu times it is the Euclidean gradient.  The kernel takes a
vector (k,) of interior values and checks nothing; the solvers iterate
on such vectors and call it directly.  energy, gradient, h_norm and
pointwise_residual check that u vanishes off the interior, then call
it.  The per-vertex route (calculus.dirichlet_energy) is the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .calculus import _interior_laplacian, _InteriorLaplacian, gradient_form, integrate
from .graphs import DomainPartition, WeightedGraph
from .nonlinearity import Nonlinearity, antiderivative, antiderivative_peak, reaction
from .spectral import embedding_kappa


@dataclass(frozen=True, eq=False)
class Problem:
    """A Dirichlet reaction-diffusion problem on a weighted graph.

    h is the zero-order coefficient (values outside the interior are
    ignored); h0 is the user-asserted uniform lower bound consumed by
    the hypothesis checks and the embedding constants, optional here.
    """

    graph: WeightedGraph
    partition: DomainPartition
    h: np.ndarray
    nl: Nonlinearity
    h0: float | None = None

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.shape != (self.graph.n,):
            raise ValueError(
                f"h must assign one value per vertex, expected shape ({self.graph.n},), "
                f"got {h.shape}"
            )
        if not np.all(np.isfinite(h[self.partition.omega])):
            raise ValueError("h must be finite on the interior")
        object.__setattr__(self, "h", h)
        if len(self.partition.omega) == 0:
            raise ValueError("interior region is empty")
        if len(self.partition.boundary) == 0:
            raise ValueError("boundary is empty; zero boundary data needs a boundary")
        if not self.partition.connected:
            raise ValueError("interior plus boundary must be connected")
        if self.h0 is not None and not self.h0 > 0.0:
            raise ValueError(f"h0 must be positive when given, got {self.h0}")

    def interior_h(self) -> np.ndarray:
        """h with off-interior entries zeroed.

        Every integral reads h on the interior only; the masked copy
        keeps stray values elsewhere (even inf) out of the arithmetic.
        """
        return np.where(self.partition.omega_mask, self.h, 0.0)

    @cached_property
    def _form(self) -> _InteriorLaplacian:
        return _interior_laplacian(self.graph, self.partition)

    @cached_property
    def _mu_h(self) -> np.ndarray:
        return self._form.mu * self.h[self._form.omega]


def _require_dirichlet(problem: Problem, u, name: str = "u"):
    """The interior values of u, one float per vertex, checked to vanish
    off the interior."""
    u = np.asarray(u, dtype=float)
    if u.shape != (problem.graph.n,):
        raise ValueError(
            f"{name} must hold one value per vertex ({problem.graph.n}), got shape {u.shape}"
        )
    if not np.all(u[problem._form.off] == 0.0):
        raise ValueError(f"{name} must vanish outside the interior")
    return u[problem._form.omega]


def _kernel(problem: Problem, v, value: bool = True, residual: bool = False):
    """The energy kernel, on interior values v of shape (k,): (squared
    h-norm, energy, pointwise residual), None for an energy or residual
    not asked for.  mu times the residual is the Euclidean gradient."""
    form = problem._form
    ends = v[form.ends]  # both ends of every edge inside omega, in one gather
    d = ends[0] - ends[1]
    diag = form.w_off + problem._mu_h
    quad = (d * d) @ form.w + (v * v) @ diag
    val = _value(problem, v, quad) if value else None
    if not residual:
        return quad, val, None
    wd, k = form.w * d, len(v)
    lv = np.bincount(form.ends[0], wd, k) - np.bincount(form.ends[1], wd, k) + diag * v
    return quad, val, lv / form.mu - reaction(problem.nl, v)


def _value(problem: Problem, v, quad):
    """The energy at interior values v from their squared h-norm quad,
    as _kernel computes it."""
    return 0.5 * quad - antiderivative(problem.nl, v) @ problem._form.mu


def _h_norm(quad) -> float:  # from its square, _kernel's first value
    radicand = float(quad)
    if radicand < 0.0:
        raise ValueError(f"h-norm radicand is negative ({radicand}); h is not admissible")
    return math.sqrt(radicand)


def energy(problem: Problem, u) -> float:
    """Value of the energy functional at a Dirichlet function u of shape
    (n,).  Raises ValueError when u is nonzero off the interior."""
    return float(_kernel(problem, _require_dirichlet(problem, u))[1])


def h_norm(problem: Problem, u) -> float:
    """Weighted Sobolev norm sqrt(int_closure |grad u|^2 + int_omega h u^2)
    of a Dirichlet function, assembled like the energy."""
    return _h_norm(_kernel(problem, _require_dirichlet(problem, u), value=False)[0])


def pointwise_residual(problem: Problem, u) -> np.ndarray:
    """Vertexwise equation residual -laplacian(u) + h u - f(x, u) on the
    interior, zero elsewhere.  Vanishes exactly at a solution."""
    v = _require_dirichlet(problem, u)
    return problem._form.expand(_kernel(problem, v, value=False, residual=True)[2])


def gradient(problem: Problem, u) -> np.ndarray:
    """Exact partial derivatives of the energy with respect to the
    interior values of u, zero elsewhere.

    The entry at x is measure(x) times the pointwise residual at x.
    The measure factor is what separates this Euclidean gradient from
    the residual itself; descent steps need the former, convergence
    reporting the latter, and mixing them up is the classic mistake.
    """
    return problem.graph.measure * pointwise_residual(problem, u)


def directional_derivative(problem: Problem, u, test) -> float:
    """Derivative of the energy at u in the direction of a Dirichlet
    test function, evaluated through the bilinear-form route.

    Equals sum(gradient(problem, u) * test); both routes are kept so
    they can be checked against each other.
    """
    u = problem._form.expand(_require_dirichlet(problem, u))
    test = problem._form.expand(_require_dirichlet(problem, test, name="test"))
    g = problem.graph
    part = problem.partition
    omega = part.omega
    form = integrate(g, gradient_form(g, u, test), part.closure)
    f = reaction(problem.nl, u)
    zero_order = integrate(g, (problem.interior_h() * u - f) * test, omega)
    return form + zero_order


@dataclass(frozen=True)
class BallConstants:
    """Constants for the small-ball branch of the two-solution setup.

    kappa converts the energy-ball radius sqrt(rho) into the pointwise
    range |u| <= u_bound = kappa sqrt(rho) on which max |F| is taken;
    beta_max = rho / (2 max|F|) - 1 is the largest admissible beta, +inf
    when F vanishes identically on the range and not a valid choice when
    <= 0.  u_at_max, the smallest u where |F| peaks, feeds the F8
    witness and is left out of reports (repr=False).
    """

    kappa: float
    beta_max: float
    max_abs_F: float
    u_bound: float
    rho: float
    kappa_choice: str
    u_at_max: float = field(repr=False)


def ball_constants(
    problem: Problem,
    rho: float,
    kappa_choice: str = "H1",
    u_bound: float | None = None,
) -> BallConstants:
    """Largest admissible beta for the energy ball of radius sqrt(rho).

    Takes max |F| over [-u_bound, u_bound] (antiderivative_peak) and inverts
    the smallness condition beta + 1 <= rho / (2 max |F|).  u_bound is
    the ball's pointwise range kappa sqrt(rho), kappa the embedding_kappa
    of kappa_choice (H1 or H3), unless the caller gives it.  The proof's
    constant 1/sqrt(mu_min h0) is ConstantsReport.sup_embedding.
    """
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    if problem.h0 is None:
        raise ValueError("ball constants need the lower bound h0 on the problem")
    kappa = embedding_kappa(
        problem.graph, problem.partition, problem.h, problem.h0, kappa_choice
    )
    if u_bound is None:
        u_bound = kappa * math.sqrt(rho)
    max_abs, u_at = antiderivative_peak(problem.nl, u_bound)
    if not math.isfinite(max_abs):
        raise ValueError(f"max |F| on [-{u_bound:g}, {u_bound:g}] is not finite "
                         f"(at u = {u_at:g}): the smallness condition is undefined")
    if max_abs == 0.0:
        beta_max = math.inf
    else:
        beta_max = rho / (2.0 * max_abs) - 1.0
    return BallConstants(
        kappa=kappa, beta_max=beta_max, max_abs_F=max_abs,
        u_bound=u_bound, rho=float(rho), kappa_choice=kappa_choice, u_at_max=u_at,
    )
