"""Measure the band factor's inertia and backward error on random bands.

spectral._band_solver factors a symmetric band a = C S C^T block by
block, each block by one of two routes: a Cholesky factor (of the
block's window while the bandwidth is at most 64, of its top block
above that or where the window's fails), or np.linalg.eigh of the
block where its Cholesky fails.  This script sweeps three families of
bands:

    definite   L L^T + delta I with L a random lower band
    shifted    a random symmetric band minus a shift that falls below,
               above or between two of its eigenvalues
    bump       a weighted graph Laplacian within the band plus a
               positive diagonal, with one to four diagonal entries
               pushed negative, as Newton's Jacobian at a spike

and files each band under eigh if any of its blocks took eigh, else
under cholesky.  For each family and route it prints the number of
bands and of blocks, the bands whose count of -1s in S differs from
the number of negative eigenvalues of np.linalg.eigvalsh, and the worst
normwise backward error |a x - y| / (|a| |x| + |y|) (2-norms) of a
solve, for bandwidths up to 64 and above.  It exits 1 on any inertia
mismatch, when a band at bandwidth <= 64 filed under cholesky has a
backward error above BOUND, when a bump band (Newton's Jacobian at a
spike) of any route and bandwidth has one above BOUND, or when a band
of any bandwidth filed under eigh has one above EIGH_BOUND.  The eigh
route has the looser bound because its blocks have no growth guard: a
block with an eigenvalue near zero amplifies the rounding of the rows
below it (4.3e-12 on one shifted band at seed 0).
"""

import argparse
import math
from contextlib import contextmanager

import numpy as np

from graphpde.spectral import _BLOCK, _band_solver

BOUND = 1e-13  # cholesky at bandwidth <= 64, and bump bands on every route
EIGH_BOUND = 1e-11  # eigh, any bandwidth


def random_lower(rng, n, bandwidth):
    i, j = np.indices((n, n))
    return np.where((i >= j) & (i - j <= bandwidth), rng.standard_normal((n, n)), 0.0)


def definite(rng, n, bandwidth):
    low = random_lower(rng, n, bandwidth)
    return low @ low.T + 10.0 ** rng.uniform(-3.0, 1.0) * np.eye(n)


def shifted(rng, n, bandwidth):
    low = random_lower(rng, n, bandwidth)
    sym = low + low.T
    lam = np.linalg.eigvalsh(sym)
    k = int(rng.integers(-1, n))  # -1: below every eigenvalue, n - 1: above
    sigma = lam[0] - 1.0 if k < 0 else lam[-1] + 1.0 if k == n - 1 else 0.5 * (lam[k] + lam[k + 1])
    return sym - sigma * np.eye(n)


def bump(rng, n, bandwidth):
    i, j = np.indices((n, n))
    edges = (i > j) & (i - j <= bandwidth) & (rng.random((n, n)) < 0.3)
    w = np.where(edges, rng.uniform(0.1, 10.0, (n, n)), 0.0)
    w += w.T
    mu = rng.uniform(0.5, 2.0, n)
    a = np.diag(w.sum(1) + mu) - w
    rows = rng.choice(n, size=min(n, int(rng.integers(1, 5))), replace=False)
    a[rows, rows] -= rng.uniform(1.5, 4.0, len(rows)) * a[rows, rows]
    return a


FAMILIES = {"definite": definite, "shifted": shifted, "bump": bump}


def lower_band(a, bandwidth):
    band = np.zeros((bandwidth + 1, len(a)))
    for d in range(bandwidth + 1):
        band[d, : len(a) - d] = np.diagonal(a, -d)
    return band


@contextmanager
def routes_taken():
    """Count the blocks of the _band_solver calls made inside: those
    factored by eigh; the rest are Cholesky."""
    counts = {"eigh": 0}
    eigh = np.linalg.eigh

    def counted_eigh(a):
        counts["eigh"] += 1
        return eigh(a)

    np.linalg.eigh = counted_eigh
    try:
        yield counts
    finally:
        np.linalg.eigh = eigh


def measure(rng, a, bandwidth):
    """(blocks by route, inertia matches, backward error) of one band."""
    with routes_taken() as counts:
        solve = _band_solver(lower_band(a, bandwidth))
    lam = np.linalg.eigvalsh(a)
    y = rng.standard_normal(len(a))
    x = solve(y)
    norm_a = float(np.max(np.abs(lam)))
    backward = np.linalg.norm(a @ x - y) / (norm_a * np.linalg.norm(x) + np.linalg.norm(y))
    blocks = math.ceil(len(a) / _BLOCK)
    counts["cholesky"] = blocks - counts["eigh"]
    return counts, solve.negatives == int(np.sum(lam < 0.0)), float(backward)


def error(value):
    """A worst backward error, or - where no band was measured."""
    return f"{value:.2e}" if value >= 0.0 else "-"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--trials", type=int, default=400, help="bands per family")
    ap.add_argument("--n-max", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = {}
    for name, family in FAMILIES.items():
        for trial in range(args.trials):
            n = int(rng.integers(1, args.n_max + 1))
            # one band in four wider than a block, where the size allows
            wide = trial % 4 == 3 and n - 1 > _BLOCK
            low, high = (_BLOCK + 1, n) if wide else (0, min(n - 1, _BLOCK) + 1)
            bandwidth = int(rng.integers(low, high))
            counts, match, backward = measure(rng, family(rng, n, bandwidth), bandwidth)
            route = "eigh" if counts["eigh"] else "cholesky"
            row = rows.setdefault((name, route), [0, 0, 0, -math.inf, -math.inf])
            row[0] += 1
            row[1] += sum(counts.values())
            row[2] += not match
            k = 3 if bandwidth <= _BLOCK else 4
            row[k] = max(row[k], backward)

    print(f"bands per family {args.trials}  n [1, {args.n_max}]  seed {args.seed}")
    print(f"{'family':10s} {'route':9s} {'bands':>6s} {'blocks':>7s} {'mismatches':>10s}"
          f" {'backward bw<=64':>16s} {'backward bw>64':>15s}")
    for (name, route), (bands, blocks, mismatches, narrow, wide) in sorted(rows.items()):
        print(f"{name:10s} {route:9s} {bands:6d} {blocks:7d} {mismatches:10d}"
              f" {error(narrow):>16s} {error(wide):>15s}")
    mismatches = sum(row[2] for row in rows.values())
    narrow = max((row[3] for (_, r), row in rows.items() if r == "cholesky"), default=-math.inf)
    bump = max((max(row[3:]) for (f, _), row in rows.items() if f == "bump"), default=-math.inf)
    eigh = max((max(row[3:]) for (_, r), row in rows.items() if r == "eigh"), default=-math.inf)
    print(f"inertia mismatches: {mismatches}")
    print(f"worst backward error: cholesky at bandwidth <= {_BLOCK} {error(narrow)},"
          f" bump {error(bump)}, eigh {error(eigh)}")
    ok = mismatches == 0 and narrow <= BOUND and bump <= BOUND and eigh <= EIGH_BOUND
    print(f"no mismatch, cholesky and bump within {BOUND:g}, eigh within {EIGH_BOUND:g}: {ok}")
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
