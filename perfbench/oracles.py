"""Independent checks of every report the benchmark receives.

Nothing here calls graphpde: residuals, Rayleigh quotients and the
reference roots are recomputed from the corpus generator's own vertex
and edge lists.

    every exit-0 report   parses as json-lines, holds only finite
                          numbers, the expected records, solutions with
                          residual_max <= 1e-12, and an independently
                          recomputed residual below RESIDUAL_TOL
    path3 solve2          both solutions match the bisection roots of
                          2t - t^3 - eps = 0 to 1e-8
    lattice eigen/check   lambda1 = 1 - cos(pi/(k-1)) to 1e-10; the
                          eigenfunction has unit mass and its Rayleigh
                          quotient equals lambda1
"""

from __future__ import annotations

import json
import math

import numpy as np

REPORT_RESIDUAL_TOL = 1e-12   # bound on the report's own residual_max
RESIDUAL_TOL = 1e-9           # recomputed residual, summed in another order
ROOT_TOL = 1e-8
LAMBDA_TOL = 1e-10
EIGENFUNCTION_TOL = 1e-8
_NON_FINITE = {"inf", "-inf", "nan"}


class Verdict:
    """Outcome of one command: verified, failed (exit 1 with an
    explanatory error record) or wrong (an output is incorrect)."""

    def __init__(self):
        self.misses: list[str] = []
        self.solver_failure: str | None = None
        self.records: list[dict] | None = None

    @property
    def verified(self) -> bool:
        return not self.misses and self.solver_failure is None

    @property
    def wrong(self) -> bool:
        return bool(self.misses)


def bisect_root(eps: float, lo: float, hi: float) -> float:
    fn = lambda t: 2.0 * t - t ** 3 - eps
    flo = fn(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0 or hi - lo <= 1e-15:
            return mid
        if (flo < 0.0) == (fm < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, str):
        return value in _NON_FINITE
    if isinstance(value, dict):
        return any(_non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(_non_finite(v) for v in value)
    return False


def _reaction(spec: str):
    family, _, rest = spec.partition(":")
    params = dict(item.split("=") for item in rest.split(","))
    p = float(params["p"])
    eps = float(params.get("eps", 0.0)) if family == "power_plus_const" else 0.0
    return lambda u: np.abs(u) ** (p - 2.0) * u + eps


class _Geometry:
    """Measure, interior mask and edge arrays of one corpus input."""

    def __init__(self, inp):
        self.inp = inp
        e = np.array([(a, b) for a, b, _ in inp.edges], dtype=np.int64).reshape(-1, 2)
        self.a, self.b = e[:, 0], e[:, 1]
        self.w = np.array([w for _, _, w in inp.edges], dtype=float)
        self.mu = np.bincount(self.a, self.w, inp.n) + np.bincount(self.b, self.w, inp.n)
        self.interior = np.zeros(inp.n, dtype=bool)
        self.interior[list(inp.omega)] = True

    def vector(self, u_map: dict) -> np.ndarray:
        return np.array([u_map[vid] for vid in self.inp.ids], dtype=float)

    def residual(self, u: np.ndarray, f) -> float:
        d = self.w * (u[self.b] - u[self.a])
        lap = (np.bincount(self.a, d, len(u)) - np.bincount(self.b, d, len(u))) / self.mu
        r = -lap + u - f(u)
        return float(np.max(np.abs(r[self.interior])))

    def rayleigh(self, u: np.ndarray) -> tuple[float, float]:
        mass = float(np.sum(self.mu[self.interior] * u[self.interior] ** 2))
        quad = float(np.sum(self.w * (u[self.a] - u[self.b]) ** 2))
        return quad / mass, mass


class Oracle:
    def __init__(self, inputs):
        self.geometry = {inp.name: _Geometry(inp) for inp in inputs}

    def check(self, args, input_name: str, code, text: str) -> Verdict:
        """code is the exit code, or a message when the call raised."""
        verdict = Verdict()
        miss = verdict.misses.append
        if not isinstance(code, int):
            miss(code)
            return verdict
        try:
            records = [json.loads(line) for line in text.splitlines()]
        except ValueError as exc:
            miss(f"report is not json-lines: {exc}")
            return verdict
        verdict.records = records
        if code == 1:
            errors = [r["message"] for r in records if r.get("record") == "error"]
            if errors:
                verdict.solver_failure = errors[0]
            else:
                miss("exit code 1 without an error record")
            return verdict
        if code != 0:
            miss(f"exit code {code}")
            return verdict
        if any(_non_finite(r) for r in records):
            miss("non-finite number in an exit-0 report")
            return verdict
        by_kind: dict[str, list[dict]] = {}
        for r in records:
            by_kind.setdefault(r.get("record"), []).append(r)
        geo = self.geometry[input_name]
        command = args[0]
        try:
            if command in ("solve", "solve2"):
                self._solutions(args, command, geo, by_kind, miss)
            if command in ("eigen", "check") and geo.inp.lattice_k is not None:
                self._eigen(command, geo, by_kind, miss)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            miss(f"malformed record: {type(exc).__name__}: {exc}")
        return verdict

    def _solutions(self, args, command, geo, by_kind, miss):
        sols = by_kind.get("solution", [])
        want = ["mountain_pass"] if command == "solve" else ["ball_min", "mountain_pass"]
        kinds = [s["kind"] for s in sols]
        if kinds != want:
            miss(f"solution kinds {kinds}, expected {want}")
            return
        spec = args[args.index("--nl") + 1]
        f = _reaction(spec)
        for s in sols:
            if not s["residual_max"] <= REPORT_RESIDUAL_TOL:
                miss(f"{s['kind']} residual_max {s['residual_max']}")
            u = geo.vector(s["u"])
            if np.any(u[~geo.interior] != 0.0):
                miss(f"{s['kind']} is nonzero off the interior")
            res = geo.residual(u, f)
            if not res <= RESIDUAL_TOL:
                miss(f"{s['kind']} recomputed residual {res:.3g}")
        if geo.inp.name == "path3" and command == "solve2":
            eps = float(spec.split("eps=")[1])
            b = geo.inp.ids.index("b")
            roots = (bisect_root(eps, 0.0, 1.0), bisect_root(eps, 1.0, 1.4))
            for s, root in zip(sols, roots):
                err = abs(s["u"][geo.inp.ids[b]] - root)
                if not err <= ROOT_TOL:
                    miss(f"{s['kind']} misses the bisection root by {err:.3g}")

    def _eigen(self, command, geo, by_kind, miss):
        k = geo.inp.lattice_k
        exact = 1.0 - math.cos(math.pi / (k - 1))
        ev = by_kind.get("eigenvalue", [])
        if len(ev) != 1:
            miss(f"{len(ev)} eigenvalue records")
            return
        lam = ev[0]["lambda1"]
        if not abs(lam - exact) <= LAMBDA_TOL:
            miss(f"lambda1 {lam!r} differs from {exact!r}")
        if command == "eigen":
            ef = by_kind.get("eigenfunction", [])
            if len(ef) != 1:
                miss(f"{len(ef)} eigenfunction records")
                return
            quotient, mass = geo.rayleigh(geo.vector(ef[0]["u"]))
            if not (abs(mass - 1.0) <= EIGENFUNCTION_TOL
                    and abs(quotient - exact) <= EIGENFUNCTION_TOL):
                miss(f"eigenfunction mass {mass!r}, Rayleigh quotient {quotient!r}")
