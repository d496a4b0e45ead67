"""Check the Morse index of every mountain-pass solution on fixed corpora.

Runs graphpde.solver.mountain_pass, hypotheses off, with power:p=<p>
and h = 1 on

    the 103-problem corpus at p = 2.5, 3 and 4: path3, grid12, grid30
        and the 100 random graphs s<seed>rand<i> that
        perfbench.corpus.random_graph draws, four per rng seed 0-24;
    the test generator at p = 4: 400 graphs gen<seed>_<i> of 5-25
        vertices, 200 per rng seed 11 and 12, the draws of the tests'
        random_connected_graph with random_partition.

Each solution's Morse index is counted here, from numpy's dense
eigvalsh of the Hessian L + diag(mu (1 - f_u(u))) on the interior
unknowns, assembled from the corpus's own edge lists, not by the
package.  For each set the script prints the failures, the stop
reasons, the escapes (calls of solver._escape_direction), the most
descent steps (trace rows) of a run, the Newton runs (calls of
solver._newton_polish) and the band factors (calls of
solver._band_solver: Newton's Jacobians and Hessians, P and the
escapes' shifted Hessians).  Then Newton's Jacobian work by kind: the
factors of P = L + diag(mu |h|) that the descent and Newton share (at
most one per problem; with h = 1, P is the Jacobian at the zero
function), the Jacobians J(u) factored for a step, and the low-rank
updates of P (solver._updated_solve) with their largest and total rank
(the columns of their solve with P).  Then the Newton runs that converged,
by how they took the Morse index of their point: read off the
Hessian's diagonal and the point's own curvature, at 0 or at 1, or
from a factor of the Hessian (a factor of J(u) made last in the run
and never solved with).  Then Newton's chord steps (solves with a
step's factor of J(u) or low-rank update after its first), the
attempts that gave up, by the SolverError that ended them (an exact
step's cut short of NEWTON_CUT, the budget, a singular Jacobian, a
non-finite step), and the band windows whose Cholesky failed, by their
route (calls of spectral._pivoted_window): factored with 1x1 pivots,
or refused and sent to eigh.  It exits 1 on any failure, on an index
other than 1, or on a set whose band factors exceed its ceiling in
FACTOR_CEILINGS, the counts that Newton's chord steps, its index
bracket, its low-rank updates and the one factor of P it shares with
the descent brought them down to, so that a change cannot give that
saving back unseen.  --only NAME restricts
every set to the named graphs.

    PYTHONPATH=src python scripts/pass_index_sweep.py
    PYTHONPATH=src python scripts/pass_index_sweep.py --only s10rand3 --only path3
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import corpus  # noqa: E402

import graphpde.solver  # noqa: E402
import graphpde.spectral  # noqa: E402
from graphpde import (  # noqa: E402
    Problem, RunLog, SolverConfig, SolverError, build_graph, compute_boundary, power,
)


# band factors per full set, the most a change may take
FACTOR_CEILINGS = {"corpus p=2.5": 238, "corpus p=3": 262, "corpus p=4": 283,
                   "test generator p=4": 1158}
# the SolverError messages of an attempt that gives up, by reason
GIVE_UPS = {"cut": "Newton attempt cut", "budget": "Newton refinement did not reach",
            "singular": "Newton's Jacobian is singular", "non-finite": "Newton step"}


def corpus_inputs():
    out = [corpus.path3(), corpus.lattice(12), corpus.lattice(30)]
    for seed in range(25):
        rng = np.random.default_rng(seed)
        out += [corpus.random_graph(rng, f"s{seed}rand{i}") for i in range(4)]
    return out


def generator_inputs():
    out = []
    for seed in (11, 12):
        rng = np.random.default_rng(seed)
        out += [corpus.random_graph(rng, f"gen{seed}_{i}", 5, 25) for i in range(200)]
    return out


def dense_index(inp, u, p):
    """Negative eigenvalues of the Hessian at u (one value per vertex)."""
    n = len(inp.ids)
    hess = np.zeros((n, n))
    for a, b, w in inp.edges:
        hess[a, a] += w
        hess[b, b] += w
        hess[a, b] -= w
        hess[b, a] -= w
    mu = np.diag(hess).copy()  # the derived measure, the incident weights
    hess += np.diag(mu * (1.0 - (p - 1.0) * np.abs(u) ** (p - 2.0)))
    omega = list(inp.omega)
    return int(np.sum(np.linalg.eigvalsh(hess[np.ix_(omega, omega)]) < 0.0))


def sweep(label, inputs, p, escapes, calls):
    failures, wrong, stops, per_run, steps = [], [], Counter(), [], 0
    calls.clear()
    for inp in inputs:
        graph = build_graph(inp.ids, [(inp.ids[a], inp.ids[b], w) for a, b, w in inp.edges])
        part = compute_boundary(graph, [inp.ids[i] for i in inp.omega])
        problem = Problem(graph, part, np.ones(graph.n), power(p))
        log = RunLog()
        escapes.clear()
        try:
            sol = graphpde.solver.mountain_pass(
                problem, SolverConfig(verify_hypotheses=False), log=log)
        except SolverError as exc:
            failures.append(f"{inp.name}: {exc}")
            continue
        finally:
            stops[log.stops.get("mountain_pass")] += 1
            per_run.append(len(escapes))
            steps = max(steps, len(log.traces.get("mountain_pass", ())))
        index = dense_index(inp, sol.u, p)
        if index != 1:
            wrong.append(f"{inp.name} index {index}")
    print(f"{label}: {len(inputs)} problems, {len(failures)} failures, "
          f"{len(inputs) - len(failures) - len(wrong)} at index 1")
    print(f"  stops {dict(sorted(stops.items()))}")
    print(f"  escapes {sum(per_run)} (at most {max(per_run, default=0)} in a run), "
          f"most steps {steps}")
    print(f"  newton runs {calls['newton']}, band factors {calls['factor']}")
    print(f"  newton's jacobians: shared P factored {calls['gram']}, J(u) factored for a step "
          f"{calls['exact'] - calls['index factored']}, low-rank updates of P "
          f"{calls['update']} (largest rank {calls['largest rank']}, total rank {calls['rank']})")
    print(f"  index off the diagonal at 0 {calls['index 0 diagonal']}, "
          f"at 1 {calls['index 1 diagonal']}; factored {calls['index factored']}")
    print(f"  chord steps {calls['chord']}, attempts gave up: "
          + ", ".join(f"{why} {calls[why]}" for why in GIVE_UPS))
    print(f"  pivot windows {calls['pivoted']} factored, {calls['refused']} refused")
    within = calls["factor"] <= FACTOR_CEILINGS[label]
    if not within:
        print(f"  band factors above the ceiling {FACTOR_CEILINGS[label]}")
    for line in failures + wrong:
        print(f"  {line}")
    return not failures and not wrong, within


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="restrict the sweep to this graph (repeatable)")
    args = parser.parse_args(argv)

    def chosen(inputs):
        return [inp for inp in inputs if args.only is None or inp.name in args.only]

    escapes, calls = [], Counter()
    escape = graphpde.solver._escape_direction
    newton = graphpde.solver._newton_polish
    band_solver = graphpde.solver._band_solver
    gram_solve = graphpde.solver._Gram.solve
    updated_solve = graphpde.solver._updated_solve
    pivoted = graphpde.spectral._pivoted_window

    def counted_escape(problem, w, index):
        escapes.append(index)
        return escape(problem, w, index)

    in_newton = []  # per Newton run in progress, the solves made with each of its factors
    in_gram = []    # while P is factored

    def counted_newton(*args, **kwargs):
        calls["newton"] += 1
        solves = []
        in_newton.append(solves)
        try:
            found = newton(*args, **kwargs)
        except SolverError as exc:
            if kwargs.get("attempt"):
                calls[next(why for why, start in GIVE_UPS.items()
                           if str(exc).startswith(start))] += 1
            raise
        finally:
            in_newton.pop()
        # every factor of J(u) but the index's is solved with at once
        factored = solves and not solves[-1]
        calls["index factored" if factored else f"index {found[2]} diagonal"] += 1
        return found

    def chords(solve, counts, i):
        """solve, counting a chord step at each call after its first in counts[i]."""
        def counted_solve(y):
            calls["chord"] += counts[i] > 0
            counts[i] += 1
            return solve(y)

        return counted_solve

    def counted_factor(band):
        calls["factor"] += 1
        solve = band_solver(band)
        if in_gram or not in_newton:
            return solve
        calls["exact"] += 1
        solves = in_newton[-1]
        solves.append(0)
        counted_solve = chords(solve, solves, len(solves) - 1)
        counted_solve.negatives = solve.negatives
        return counted_solve

    def counted_gram(gram):
        calls["gram"] += not gram._made
        in_gram.append(gram)
        try:
            solve = gram_solve(gram)
        finally:
            in_gram.pop()
        if solve is None:
            return None

        def ranked(y):  # a solve with |K| columns makes a low-rank update
            if y.ndim == 2:
                calls["rank"] += y.shape[1]
                calls["largest rank"] = max(calls["largest rank"], y.shape[1])
            return solve(y)

        return ranked

    def counted_update(gram, fu):
        found = updated_solve(gram, fu)
        if found is None:
            return None
        calls["update"] += 1
        return chords(found[0], [0], 0), found[1]

    def counted_pivots(*args):
        c = pivoted(*args)
        calls["refused" if c is None else "pivoted"] += 1
        return c

    graphpde.solver._escape_direction = counted_escape
    graphpde.spectral._pivoted_window = counted_pivots
    graphpde.solver._newton_polish = counted_newton
    graphpde.solver._band_solver = counted_factor
    graphpde.solver._Gram.solve = counted_gram
    graphpde.solver._updated_solve = counted_update
    sets = [(f"corpus p={p:g}", corpus_inputs(), p) for p in (2.5, 3.0, 4.0)]
    sets.append(("test generator p=4", generator_inputs(), 4.0))
    results = [sweep(label, chosen(inputs), p, escapes, calls) for label, inputs, p in sets]
    solved, within = (all(col) for col in zip(*results))
    print(f"every solution at index 1: {solved}")
    print(f"band factors within the ceilings: {within}")
    return 0 if solved and within else 1


if __name__ == "__main__":
    sys.exit(main())
