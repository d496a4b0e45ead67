"""Energy functional for -laplacian(u) + h u = f(x, u) with zero boundary data.

The energy of a Dirichlet function u is

    energy(u) = 1/2 (int_closure |grad u|^2 dmu + int_omega h u^2 dmu)
                - int_omega F(x, u) dmu

with F the antiderivative of the reaction term.  Critical points are
weak solutions; on a finite graph they are also vertexwise solutions of
the equation, which is what the residual functions measure.

energy assembles the gradient term per edge: for Dirichlet u the
closure integral of |grad u|^2 is the sum of w_xy (u(x) - u(y))^2 over
the edges with an interior endpoint (every other edge joins two zeros),
so

    energy(u) = 1/2 (sum_e w_e d_e^2 + sum_omega mu h u^2) - sum_omega mu F(u)

with d_e the difference across edge e.  The same code takes one function
of shape (n,) or a stack of P functions of shape (P, n), one per row,
and returns a float or a (P,) array; the path deformation evaluates its
whole path in one call.  The per-vertex route (calculus.dirichlet_energy)
computes the same number and is kept as the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import gradient_form, integrate, laplacian
from .graphs import DomainPartition, WeightedGraph
from .nonlinearity import Nonlinearity, antiderivative, evaluate, reaction
from .spectral import embedding_kappa


@dataclass(frozen=True, eq=False)
class _EnergyForm:
    """Index and weight arrays of the per-edge energy assembly: the
    endpoints i, j and weights w of the edges with an interior
    endpoint, the interior indices with mu and mu h there, and the
    off-interior indices where a Dirichlet function vanishes."""

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    omega: np.ndarray
    mu: np.ndarray
    mu_h: np.ndarray
    off: np.ndarray


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
    def _form(self) -> _EnergyForm:
        g = self.graph
        mask = self.partition.omega_mask
        i, j = g.edge_index[:, 0], g.edge_index[:, 1]
        touch = mask[i] | mask[j]
        omega = self.partition.omega
        mu = g.measure[omega]
        return _EnergyForm(
            i=i[touch], j=j[touch], w=g.edge_weight[touch],
            omega=omega, mu=mu, mu_h=mu * self.h[omega],
            off=np.flatnonzero(~mask),
        )


def _require_dirichlet(problem: Problem, u, name: str = "u", stack: bool = False):
    """u as a float array of one value per vertex, or with stack=True
    also a (P, n) stack of such rows, each vanishing off the interior."""
    u = np.asarray(u, dtype=float)
    if u.ndim not in ((1, 2) if stack else (1,)) or u.shape[-1] != problem.graph.n:
        raise ValueError(
            f"{name} must hold one value per vertex ({problem.graph.n}), got shape {u.shape}"
        )
    if not np.all(u[..., problem._form.off] == 0.0):
        raise ValueError(f"{name} must vanish outside the interior")
    return u


def _h_square(problem: Problem, u, stack: bool = False):
    """Squared h-norm int_closure |grad u|^2 + int_omega h u^2, summed
    per edge, of one Dirichlet function or (stack=True) of each row of
    a stack; returned with the interior values of u."""
    u = _require_dirichlet(problem, u, stack=stack)
    form = problem._form
    d = u[..., form.i] - u[..., form.j]
    inner = u[..., form.omega]
    return (d * d) @ form.w + (inner * inner) @ form.mu_h, inner


def energy(problem: Problem, u):
    """Value of the energy functional at a Dirichlet function u of shape
    (n,), as a float, or at each row of a stack of shape (P, n), as a
    (P,) array.  Raises ValueError when any row is nonzero off the
    interior."""
    quad, inner = _h_square(problem, u, stack=True)
    value = 0.5 * quad - antiderivative(problem.nl, inner) @ problem._form.mu
    return float(value) if np.ndim(value) == 0 else value


def h_norm(problem: Problem, u) -> float:
    """Weighted Sobolev norm sqrt(int_closure |grad u|^2 + int_omega h u^2)
    of a Dirichlet function, assembled like the energy."""
    radicand = float(_h_square(problem, u)[0])
    if radicand < 0.0:
        raise ValueError(f"h-norm radicand is negative ({radicand}); h is not admissible")
    return math.sqrt(radicand)


def pointwise_residual(problem: Problem, u) -> np.ndarray:
    """Vertexwise equation residual -laplacian(u) + h u - f(x, u) on the
    interior, zero elsewhere.  Vanishes exactly at a solution."""
    u = _require_dirichlet(problem, u)
    g = problem.graph
    mask = problem.partition.omega_mask
    r = -laplacian(g, u) + problem.interior_h() * u - reaction(problem.nl, u)
    return np.where(mask, r, 0.0)


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
    u = _require_dirichlet(problem, u)
    test = _require_dirichlet(problem, test, name="test")
    g = problem.graph
    part = problem.partition
    omega = part.omega
    form = integrate(g, gradient_form(g, u, test), part.closure)
    f, _, _ = evaluate(problem.nl, None, u)
    zero_order = integrate(g, (problem.interior_h() * u - f) * test, omega)
    return form + zero_order


@dataclass(frozen=True)
class BallConstants:
    """Constants for the small-ball branch of the two-solution setup.

    kappa converts the energy-ball radius sqrt(rho) into the pointwise
    range |u| <= u_bound = kappa sqrt(rho) scanned for the antiderivative
    maximum; beta_max = rho / (2 max|F|) - 1 is the largest admissible
    beta, +inf when F vanishes identically on the range and not a valid
    choice when <= 0.
    """

    kappa: float
    beta_max: float
    max_abs_F: float
    u_bound: float
    rho: float
    kappa_choice: str


def ball_kappa(problem: Problem, kappa_choice: str) -> float:
    """Pointwise-range conversion constant for the ball argument.

    Three conventions are exposed because the source formulas are
    inconsistent with each other unless mu_min * h0 = 1:

      "H1"     the stated constant sqrt(mu_min h0)
      "H3"     the stated constant divided by
               sqrt(1 - mu_min h0 int_omega h dmu), for coefficients
               satisfying the integral-bound hypothesis
      "proof"  the reciprocal convention 1/sqrt(mu_min h0), which is
               the factor the sup-norm embedding bound actually yields

    No guess is made about which was intended; callers pick one and the
    reports label which was used.
    """
    if problem.h0 is None:
        raise ValueError("ball constants need the lower bound h0 on the problem")
    if kappa_choice == "proof":
        return 1.0 / math.sqrt(problem.graph.mu_min * problem.h0)
    if kappa_choice in ("H1", "H3"):
        return embedding_kappa(
            problem.graph, problem.partition, problem.h, problem.h0, kappa_choice
        )
    raise ValueError(f"kappa_choice must be H1, H3 or proof, got {kappa_choice!r}")


def ball_constants(
    problem: Problem,
    rho: float,
    kappa_choice: str = "H1",
    grid_points: int = 10001,
    u_bound: float | None = None,
) -> BallConstants:
    """Largest admissible beta for the energy ball of radius sqrt(rho).

    Scans |F| on a uniform grid over [-u_bound, u_bound] and inverts the
    smallness condition beta + 1 <= rho / (2 max |F|).  u_bound is the
    pointwise range of the ball, kappa sqrt(rho), unless the caller
    gives the pointwise bound itself.
    """
    if not rho > 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    kappa = ball_kappa(problem, kappa_choice)
    if u_bound is None:
        u_bound = kappa * math.sqrt(rho)
    us = np.linspace(-u_bound, u_bound, grid_points)
    _, big_f, _ = evaluate(problem.nl, None, us)
    max_abs = float(np.max(np.abs(big_f)))
    if max_abs == 0.0:
        beta_max = math.inf
    else:
        beta_max = rho / (2.0 * max_abs) - 1.0
    return BallConstants(
        kappa=kappa, beta_max=beta_max, max_abs_F=max_abs,
        u_bound=u_bound, rho=float(rho), kappa_choice=kappa_choice,
    )
