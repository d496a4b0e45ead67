"""Run the two-solution pipeline on the one-interior-vertex path.

The interior equation collapses to the scalar root problem
2t - t^3 - eps = 0, so both computed solutions can be checked against
bisection roots printed alongside.
"""

import argparse

import numpy as np

from graphpde import (
    SolverConfig,
    compute_boundary,
    energy,
    power_plus_const,
    two_solutions,
)
from graphpde.graphs import build_graph
from graphpde.variational import Problem


def scalar_root(eps, lo, hi, tol=1e-15):
    f = lambda t: 2.0 * t - t**3 - eps
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            break
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=0.1,
                    help="constant shift of the reaction term")
    ap.add_argument("--rho", type=float, default=1.0,
                    help="squared radius of the constraint ball")
    args = ap.parse_args()

    graph = build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)])
    partition = compute_boundary(graph, ["b"])
    problem = Problem(
        graph=graph, partition=partition, h=np.ones(3),
        nl=power_plus_const(4, args.eps), h0=1.0,
    )

    report = two_solutions(problem, SolverConfig(rho=args.rho))

    print(f"problem: 3-path, interior {{b}}, f(u) = u^3 + {args.eps:g}")
    for verdict in report.hypothesis_verdicts:
        state = "holds" if verdict.holds else "fails"
        print(f"hypothesis {verdict.name} {state}: {verdict.witness}")
    print(f"lambda1 {report.constants.lambda1:.12g}")
    ball = report.ball
    print(f"ball: rho {ball.rho:.12g}  beta_max {ball.beta_max:.12g}  "
          f"max|F| {ball.max_abs_F:.12g}")

    small = scalar_root(args.eps, 0.0, 1.0)
    large = scalar_root(args.eps, 1.0, 1.4)
    for sol, reference in zip(report.solutions, (small, large)):
        print(f"solution kind {sol.kind}")
        print(f"  u(b)          {sol.u[1]:.17g}")
        print(f"  bisection ref {reference:.17g}  (|diff| {abs(sol.u[1] - reference):.3g})")
        print(f"  energy        {energy(problem, sol.u):.12g}")
        print(f"  h-norm        {sol.h_norm:.12g}  in_ball {sol.in_ball}")
        print(f"  max residual  {sol.residual_max:.3g}")
    gap = float(np.max(np.abs(report.solutions[0].u - report.solutions[1].u)))
    print(f"solution gap (sup) {gap:.12g}")
    print(f"ps_diagnostic {report.ps_diagnostic}")


if __name__ == "__main__":
    main()
