"""Check the first Dirichlet eigenvalue against dense and 40-digit references.

Runs graphpde.first_eigenvalue, with its default tolerance and step
budget, on three sets of graphs:

    corpus      the 500 graphs s<seed>rand<i> that perfbench.corpus.random_graph
                draws, four per rng seed 0-124: weights in [0.1, 10], derived
                measures
    generator   400 graphs gen<seed>_<i> of 5-25 vertices, 200 per rng seed
                11 and 12, the draws of the tests' random_connected_graph with
                random_partition
    loguniform  80 graphs logu<i> of 5-25 vertices, rng seed 7: the same
                draws with their derived measures kept as given measures and
                every weight redrawn log-uniform over [1e-6, 1e6]

Each reference is the smallest eigenvalue of M^(-1/2) L M^(-1/2), with
L assembled here from the set's own edge lists, not by the package: by
numpy's dense eigh for the first two sets, and by mpmath's eigsy at 40
digits for the log-uniform set, where eigh's absolute error, a few
rounding errors of the largest eigenvalue, can exceed lambda1 itself.
For each set the script prints the graphs, the failures to converge,
the worst relative error of lambda1 and the most Lanczos steps, and it
exits 1 on any failure or on an error above DENSE_BOUND (eigh) or
MP_BOUND (mpmath).  It needs mpmath (pip install mpmath) and takes
about 3 s on one core.  scripts/pass_index_sweep.py draws its
log-uniform set with loguniform_inputs, which needs no mpmath.

    PYTHONPATH=src python scripts/eigen_sweep.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import corpus  # noqa: E402

from graphpde import build_graph, compute_boundary, first_eigenvalue  # noqa: E402

DENSE_BOUND = 1e-11
MP_BOUND = 1e-7


def corpus_inputs():
    out = []
    for seed in range(125):
        rng = np.random.default_rng(seed)
        out += [corpus.random_graph(rng, f"s{seed}rand{i}") for i in range(4)]
    return out


def generator_inputs():
    out = []
    for seed in (11, 12):
        rng = np.random.default_rng(seed)
        out += [corpus.random_graph(rng, f"gen{seed}_{i}", 5, 25) for i in range(200)]
    return out


def derived_measures(inp):
    mu = [0.0] * inp.n
    for a, b, w in inp.edges:
        mu[a] += w
        mu[b] += w
    return mu


def loguniform_inputs():
    """(input, measures): the derived measures of the drawn weights, then
    the weights redrawn."""
    rng = np.random.default_rng(7)
    out = []
    for i in range(80):
        inp = corpus.random_graph(rng, f"logu{i}", 5, 25)
        mu = derived_measures(inp)
        edges = tuple((a, b, float(10.0 ** rng.uniform(-6.0, 6.0))) for a, b, _ in inp.edges)
        out.append((replace(inp, edges=edges), mu))
    return out


def scaled_laplacian(inp, mu, real=float, sqrt=np.sqrt):
    """M^(-1/2) L M^(-1/2) on the interior, as nested lists of real."""
    pos = {v: k for k, v in enumerate(inp.omega)}
    n = len(pos)
    a = [[real(0)] * n for _ in range(n)]
    for x, y, w in inp.edges:
        for i, j in ((x, y), (y, x)):
            if i in pos:
                a[pos[i]][pos[i]] += real(w)
                if j in pos:
                    a[pos[i]][pos[j]] -= real(w)
    d = [1 / sqrt(real(mu[v])) for v in inp.omega]
    return [[a[i][j] * d[i] * d[j] for j in range(n)] for i in range(n)]


def package_lambda1(inp, mu):
    ids = inp.ids
    graph = build_graph(
        ids, [(ids[a], ids[b], w) for a, b, w in inp.edges],
        measure_mode="given", measures=dict(zip(ids, mu)),
    )
    return first_eigenvalue(graph, compute_boundary(graph, [ids[i] for i in inp.omega]))


def sweep(label, cases, reference, bound):
    failures, worst, steps = [], (0.0, ""), 0
    for inp, mu in cases:
        try:
            res = package_lambda1(inp, mu)
        except ValueError as exc:
            failures.append(f"{inp.name}: {exc}")
            continue
        ref = reference(inp, mu)
        err = abs(res.lambda1 - ref) / ref
        worst = max(worst, (err, inp.name))
        steps = max(steps, res.iterations)
    ok = not failures and worst[0] <= bound
    print(f"{label}: {len(cases)} graphs, {len(failures)} failures, worst relative error "
          f"{worst[0]:.3g} ({worst[1]}) against {bound:g}, most steps {steps}: "
          f"{'ok' if ok else 'FAIL'}")
    for line in failures:
        print(f"  {line}")
    return ok


def dense_reference(inp, mu):
    return float(np.linalg.eigvalsh(np.array(scaled_laplacian(inp, mu)))[0])


def mp_reference(inp, mu):
    import mpmath  # here, so that drawing the graphs needs no mpmath

    with mpmath.workdps(40):
        a = mpmath.matrix(scaled_laplacian(inp, mu, real=mpmath.mpf, sqrt=mpmath.sqrt))
        return float(min(mpmath.eigsy(a, eigvals_only=True)))


def main() -> int:
    ok = sweep("corpus", [(inp, derived_measures(inp)) for inp in corpus_inputs()],
               dense_reference, DENSE_BOUND)
    ok &= sweep("generator", [(inp, derived_measures(inp)) for inp in generator_inputs()],
                dense_reference, DENSE_BOUND)
    ok &= sweep("loguniform", loguniform_inputs(), mp_reference, MP_BOUND)
    print(f"every lambda1 within its bound: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
