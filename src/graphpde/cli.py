"""Command line driver.

Subcommands:

    check      hypothesis verdicts, first eigenvalue, embedding constants
    eigen      first eigenvalue and eigenfunction
    gradcheck  finite-difference audit of the energy gradient
    solve      one pass-level solution
    solve2     the two-solution pipeline

Reports go to stdout (and to --out when given) as readable text or as
json-lines: one JSON object per line with sorted keys and no
timestamps, so identical runs produce identical bytes.  Solution and
eigenfunction values print as `u <vertex> <value>` lines with 17
significant digits; other report numbers use 12.

Exit codes: 0 success, 1 a verification or solve failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields, replace

import numpy as np

from .graphs import GraphError, GraphFile, parse_graph_file
from .nonlinearity import HypothesisVerdict, ar_lower_bound, parse_nonlinearity
from .solver import (
    RunLog,
    SolverConfig,
    SolverError,
    coefficient_verdicts,
    embedding_hypothesis,
    mountain_pass,
    ps_diagnostic,
    two_solutions,
    verify,
)
from .spectral import embedding_constants, first_eigenvalue
from .variational import (
    Problem,
    directional_derivative,
    energy,
    gradient,
    pointwise_residual,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphpde",
        allow_abbrev=False,
        description="Dirichlet reaction-diffusion problems on weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # per command: its help, what --tol means, what --max-iter means
    eigen = ("eigen tolerance (default 1e-12)", "eigen iteration budget (default 500)")
    loops = ("gradient-norm stop of the path deformation (default 1e-8); the eigen "
             "step and the ball minimizer's Newton iteration keep their defaults",
             "iteration budget of the path deformation (default 5000)")
    commands = {
        "check": ("verify coefficient and reaction-term hypotheses", *eigen),
        "eigen": ("first eigenvalue and eigenfunction of the interior Laplacian", *eigen),
        "gradcheck": ("audit the energy gradient against finite differences",
                      "relative-error threshold of the audit (default 1e-6)", "not used"),
        "solve": ("find one pass-level solution", *loops),
        "solve2": ("find a ball minimizer and a pass-level solution", *loops),
    }
    for name, (text, tol_help, iter_help) in commands.items():
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        p.add_argument("graph", help="graph file")
        p.add_argument("--nl", metavar="SPEC",
                       help="reaction term, e.g. power:p=4 or power_plus_const:p=4,eps=0.1")
        p.add_argument("--h0", type=float, help="asserted lower bound of h on the interior")
        p.add_argument("--theta", type=float,
                       help="superquadratic exponent for the F4 check")
        p.add_argument("--M", type=float, dest="ar_scale",
                       help="threshold |u| >= M for the F4 check")
        p.add_argument("--rho", type=float, help="squared radius of the constraint ball")
        p.add_argument("--beta", type=float, help="smallness parameter for the ball setup")
        p.add_argument("--M0", type=float, dest="m0",
                       help="pointwise range bound; switches solve2 to the derived-ball mode")
        p.add_argument("--tol", type=float, help=tol_help)
        p.add_argument("--max-iter", type=int, dest="max_iter", help=iter_help)
        p.add_argument("--seed", type=int, default=0, help="seed for randomized audits")
        p.add_argument("--out", help="also write the report to this file")
        p.add_argument("--format", choices=("text", "jsonl"), default="text")
        p.add_argument("--emit-path-profile", dest="emit_path_profile", metavar="PATH",
                       help="write (snapshot, position, energy) CSV of the path deformation")
    return parser


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _fin(x: float):
    """JSON-safe float: non-finite values become strings."""
    x = float(x)
    if math.isfinite(x):
        return x
    return repr(x)


class _Report:
    """Accumulates records; renders them as text lines or json-lines."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.records: list[dict] = []

    def add(self, record: dict):
        self.records.append(record)

    def render(self) -> str:
        if self.fmt == "jsonl":
            return "".join(
                json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                for r in self.records
            )
        lines: list[str] = []
        for r in self.records:
            lines.extend(_text_lines(r))
        return "".join(line + "\n" for line in lines)


# meta record key -> the flag's argparse destination, in text-report order
_META_KEYS = {"nonlinearity": "nl", "h0": "h0", "theta": "theta", "M": "ar_scale",
              "rho": "rho", "beta": "beta", "M0": "m0", "tol": "tol",
              "max_iter": "max_iter", "seed": "seed"}


def _text_lines(r: dict) -> list[str]:
    kind = r["record"]
    if kind == "meta":
        return [f"command {r['command']}", f"graph {r['graph']}"] + [
            f"{key} {_fmt(r[key])}" for key in _META_KEYS if r.get(key) is not None
        ]
    if kind == "hypothesis":
        word = "holds" if r["holds"] else "fails"
        line = f"hypothesis {r['name']} {word}: {r['witness']}"
        if r.get("sampled_range"):
            line += f" [sampled on {r['sampled_range']}]"
        return [line]
    if kind == "eigenvalue":
        return [
            f"lambda1 {_fmt(r['lambda1'])}",
            f"eigen_iterations {r['iterations']}",
            f"eigen_residual {_fmt(r['residual'])}",
        ]
    if kind == "eigenfunction":
        return ["eigenfunction"] + [f"u {vid} {val:.17g}" for vid, val in r["u"].items()]
    if kind == "constants":
        return [
            f"constants_hypothesis {r['hypothesis']}",
            f"mu_min {_fmt(r['mu_min'])}",
            f"sup_embedding {_fmt(r['sup_embedding'])}",
            f"kappa {_fmt(r['kappa'])}",
            f"norm_equivalence_upper {_fmt(r['equiv_upper'])}",
            f"omega_measure {_fmt(r['omega_measure'])}",
        ]
    if kind == "ball":
        return [
            f"ball_kappa {_fmt(r['kappa'])}",
            f"ball_u_bound {_fmt(r['u_bound'])}",
            f"ball_max_abs_F {_fmt(r['max_abs_F'])}",
            f"beta_max {_fmt(r['beta_max'])}",
            f"ball_rho {_fmt(r['rho'])}",
        ]
    if kind == "solution":
        i = r["index"]
        lines = [
            f"solution {i} kind {r['kind']}",
            f"solution {i} energy {_fmt(r['energy'])}",
            f"solution {i} grad_norm {_fmt(r['grad_norm'])}",
            f"solution {i} residual_max {_fmt(r['residual_max'])}",
            f"solution {i} h_norm {_fmt(r['h_norm'])}",
            f"solution {i} in_ball {_fmt(r['in_ball'])}",
        ]
        lines += [f"u {vid} {val:.17g}" for vid, val in r["u"].items()]
        return lines
    if kind == "trace":
        lines = [f"trace {r['solver']} iterations {len(r['levels'])}"]
        if r["levels"]:
            lines.append(
                f"trace {r['solver']} final_level {_fmt(r['levels'][-1])} "
                f"final_grad_norm {_fmt(r['grad_norms'][-1])}"
            )
        if r["stop"] is not None:
            lines.append(f"trace {r['solver']} stop {r['stop']}")
        return lines
    if kind == "gradcheck":
        return [
            f"gradcheck trial {r['trial']} max_rel_error {_fmt(r['max_rel_error'])} "
            f"max_delta_error {_fmt(r['max_delta_error'])} pass {_fmt(r['pass'])}"
        ]
    if kind == "error":
        return [f"error {r['message']}"]
    if kind == "summary":
        keys = ("solutions", "distinct_gap", "ps_diagnostic", "tolerance", "pass", "exit_code")
        return [f"{key} {_fmt(r[key])}" for key in keys if key in r]
    return [f"{kind} {json.dumps(r, sort_keys=True)}"]


# flags whose value, when given, must be positive and finite for every
# command -> their argparse destination
_POSITIVE_FLAGS = {"--h0": "h0", "--M": "ar_scale", "--rho": "rho", "--beta": "beta",
                   "--M0": "m0", "--tol": "tol", "--max-iter": "max_iter"}


def _meta(ns: argparse.Namespace) -> dict:
    flags = {key: getattr(ns, dest) for key, dest in _META_KEYS.items()}
    return {"record": "meta", "command": ns.command, "graph": ns.graph, **flags}


def _verdict_record(v) -> dict:
    return {
        "record": "hypothesis",
        "name": v.name,
        "holds": bool(v.holds),
        "witness": v.witness,
        "sampled_range": v.sampled_range,
        "data": {k: _fin(val) for k, val in dict(v.data).items()},
    }


def _fields_record(kind: str, obj) -> dict:
    """A record of every field of a constants dataclass, floats JSON-safe."""
    values = ((f.name, getattr(obj, f.name)) for f in fields(obj) if f.repr)
    return {"record": kind, **{k: _fin(v) if isinstance(v, float) else v for k, v in values}}


def _u_map(graph, u) -> dict:
    return {vid: float(u[i]) for i, vid in enumerate(graph.vertex_ids)}


def _solution_record(graph, sol, index: int) -> dict:
    return {
        "record": "solution",
        "index": index,
        "kind": sol.kind,
        "energy": _fin(sol.energy_value),
        "grad_norm": _fin(sol.grad_norm),
        "residual_max": _fin(sol.residual_max),
        "h_norm": _fin(sol.h_norm),
        "in_ball": bool(sol.in_ball),
        "rho_used": None if sol.rho_used is None else _fin(sol.rho_used),
        "u": _u_map(graph, sol.u),
    }


def _trace_record(log: RunLog, name: str) -> dict:
    return {
        "record": "trace",
        "solver": name,
        "levels": [_fin(a) for a, _ in log.traces[name]],
        "grad_norms": [_fin(b) for _, b in log.traces[name]],
        "stop": log.stops.get(name),
    }


def _input_error(message: str) -> int:
    print(f"input error: {message}", file=sys.stderr)
    return 2


def _given(**flags) -> dict:
    """The flags that were given, so that the callee keeps its defaults."""
    return {key: value for key, value in flags.items() if value is not None}


def _solver_config(ns: argparse.Namespace) -> SolverConfig:
    budget = _given(deform_tol=ns.tol, deform_steps=ns.max_iter)
    return SolverConfig(rho=ns.rho, beta=ns.beta, m0=ns.m0, **budget)


def _write_profile(ns: argparse.Namespace, snapshots) -> None:
    if ns.emit_path_profile is None:
        return
    lines = ["snapshot,s,energy"]
    for snap, positions, values in snapshots:
        for s, val in zip(positions, values):
            lines.append(f"{snap},{s:.17g},{val:.17g}")
    with open(ns.emit_path_profile, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _eigen_records(
    emit: _Report, gf: GraphFile, h0, hypothesis, tol=None, max_iter=None,
    eigenfunction=False,
) -> bool:
    """Emit the eigenvalue record (and the eigenfunction when asked),
    then the constants record when a hypothesis on h supports them.
    Returns False when the constants cannot be formed; an error record
    stands in their place."""
    budget = _given(tolerance=tol, max_iterations=max_iter)
    eigen = first_eigenvalue(gf.graph, gf.partition, **budget)
    emit.add({
        "record": "eigenvalue", "lambda1": _fin(eigen.lambda1),
        "iterations": eigen.iterations, "residual": _fin(eigen.residual),
    })
    if eigenfunction:
        emit.add({"record": "eigenfunction", "u": _u_map(gf.graph, eigen.eigenfunction)})
    if hypothesis is None:
        return True
    try:
        constants = embedding_constants(
            gf.graph, gf.partition, gf.h, h0, hypothesis=hypothesis, eigen=eigen
        )
    except ValueError as exc:
        emit.add({"record": "error", "message": str(exc)})
        return False
    emit.add(_fields_record("constants", constants))
    return True


def _solve_failure(ns: argparse.Namespace, log: RunLog, exc, emit: _Report) -> int:
    """Report a failed solve: the run log's verdicts, its traces by
    solver name and the error; write its path profile."""
    for v in log.verdicts:
        emit.add(_verdict_record(v))
    for name in sorted(log.traces):
        emit.add(_trace_record(log, name))
    emit.add({"record": "error", "message": str(exc)})
    _write_profile(ns, log.profile)
    return 1


# ----- commands ----- #

def _cmd_check(ns: argparse.Namespace, gf: GraphFile, nl, emit: _Report) -> int:
    """Every verdict the one- and two-solution routes name, h first;
    exit 0 exactly when one of those routes holds (on h alone without
    --nl) and the eigen step succeeds.  F1 holds by construction and is
    not reported."""
    emit.add(_meta(ns))
    verdicts, failures = verify(gf, nl, ns.h0, ("one", "two"), every=True)
    code = 0 if failures is None else 1
    for v in verdicts:
        if v.name[0] == "H":
            emit.add(_verdict_record(v))
    hyp = embedding_hypothesis(verdicts)
    if not _eigen_records(emit, gf, ns.h0, hyp, ns.tol, ns.max_iter):
        code = 1
    for v in verdicts:
        if v.name[0] == "F" and v.name != "F1":
            emit.add(_verdict_record(v))
    if nl is not None and nl.ar_theta is not None and nl.ar_M is not None:
        try:
            bound = ar_lower_bound(nl, nl.ar_theta, nl.ar_M)
        except ValueError as exc:  # the bound is undefined; it is on no route
            bound = HypothesisVerdict("AR-bound", False, str(exc))
        emit.add(_verdict_record(bound))
    emit.add({"record": "summary", "exit_code": code})
    return code


def _cmd_eigen(ns: argparse.Namespace, gf: GraphFile, nl, emit: _Report) -> int:
    emit.add(_meta(ns))
    hyp = embedding_hypothesis(coefficient_verdicts(gf, ns.h0, ("H1", "H3")))
    ok = _eigen_records(emit, gf, ns.h0, hyp, ns.tol, ns.max_iter, eigenfunction=True)
    return 0 if ok else 1


def _cmd_gradcheck(ns: argparse.Namespace, gf: GraphFile, nl, emit: _Report) -> int:
    if nl is None:
        return _input_error("gradcheck needs --nl")
    try:
        problem = Problem(gf.graph, gf.partition, gf.h, nl, h0=ns.h0)
    except ValueError as exc:
        return _input_error(str(exc))
    emit.add(_meta(ns))
    tol = ns.tol if ns.tol is not None else 1e-6
    rng = np.random.default_rng(ns.seed)
    omega = problem.partition.omega
    n = problem.graph.n
    overall = True
    for trial in range(1, 6):
        u = np.zeros(n)
        u[omega] = rng.uniform(-2.0, 2.0, size=len(omega))
        # a non-finite number fails the trial; np.max keeps a nan error (max() drops it)
        rels, deltas, finite = [0.0], [0.0], True
        with np.errstate(all="ignore"):
            grad = gradient(problem, u)
            resid = pointwise_residual(problem, u)
            for x in omega:
                step = 1e-6 * (1.0 + abs(u[x]))
                up = u.copy(); up[x] += step
                dn = u.copy(); dn[x] -= step
                e_up, e_dn = energy(problem, up), energy(problem, dn)
                fd = (e_up - e_dn) / (2.0 * step)
                rels.append(abs(grad[x] - fd) / max(1.0, abs(grad[x]), abs(fd)))
                test = np.zeros(n)
                test[x] = 1.0
                dd = directional_derivative(problem, u, test)
                expect = problem.graph.measure[x] * resid[x]
                deltas.append(abs(dd - expect) / max(1.0, abs(expect)))
                finite = finite and bool(np.all(np.isfinite([e_up, e_dn, grad[x], fd, dd, expect])))
        max_rel, max_delta = float(np.max(rels)), float(np.max(deltas))
        ok = finite and max_rel <= tol and max_delta <= 1e-12
        overall = overall and ok
        emit.add({
            "record": "gradcheck", "trial": trial,
            "max_rel_error": _fin(max_rel), "max_delta_error": _fin(max_delta),
            "pass": ok,
        })
    emit.add({"record": "summary", "tolerance": _fin(tol), "pass": overall})
    return 0 if overall else 1


def _cmd_solve(ns: argparse.Namespace, gf: GraphFile, nl, emit: _Report) -> int:
    if nl is None:
        return _input_error("solve needs --nl")
    try:
        problem = Problem(gf.graph, gf.partition, gf.h, nl, h0=ns.h0)
        config = _solver_config(ns)
    except ValueError as exc:
        return _input_error(str(exc))
    emit.add(_meta(ns))
    log = RunLog()
    try:
        sol = mountain_pass(problem, config, log=log)
    except SolverError as exc:
        return _solve_failure(ns, log, exc, emit)
    for v in log.verdicts:
        emit.add(_verdict_record(v))
    hyp = embedding_hypothesis(coefficient_verdicts(gf, ns.h0, ("H1", "H3")))
    if not _eigen_records(emit, gf, ns.h0, hyp):
        return 1
    emit.add(_solution_record(gf.graph, sol, 1))
    emit.add(_trace_record(log, "mountain_pass"))
    ps = ps_diagnostic(log.traces.values(), (sol,))
    emit.add({"record": "summary", "solutions": 1, "ps_diagnostic": ps})
    _write_profile(ns, log.profile)
    return 0


def _cmd_solve2(ns: argparse.Namespace, gf: GraphFile, nl, emit: _Report) -> int:
    if nl is None:
        return _input_error("solve2 needs --nl")
    if ns.h0 is None:
        return _input_error("solve2 needs --h0")
    if (ns.rho is None) == (ns.m0 is None):
        return _input_error("solve2 needs exactly one of --rho or --M0")
    try:
        problem = Problem(gf.graph, gf.partition, gf.h, nl, h0=ns.h0)
        config = _solver_config(ns)
    except ValueError as exc:
        return _input_error(str(exc))
    emit.add(_meta(ns))
    log = RunLog()
    try:
        report = two_solutions(problem, config, log=log)
    except SolverError as exc:
        return _solve_failure(ns, log, exc, emit)
    for v in report.hypothesis_verdicts:
        emit.add(_verdict_record(v))
    emit.add(_fields_record("constants", report.constants))
    emit.add(_fields_record("ball", report.ball))
    for i, sol in enumerate(report.solutions, 1):
        emit.add(_solution_record(gf.graph, sol, i))
    for name in sorted(log.traces):
        emit.add(_trace_record(log, name))
    gap = float(np.max(np.abs(report.solutions[0].u - report.solutions[1].u)))
    emit.add({
        "record": "summary", "solutions": len(report.solutions),
        "distinct_gap": _fin(gap), "ps_diagnostic": report.ps_diagnostic,
    })
    _write_profile(ns, log.profile)
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "eigen": _cmd_eigen,
    "gradcheck": _cmd_gradcheck,
    "solve": _cmd_solve,
    "solve2": _cmd_solve2,
}


def run(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    for flag, dest in _POSITIVE_FLAGS.items():
        value = getattr(ns, dest)
        if value is not None and not 0 < value < math.inf:
            return _input_error(f"{flag} must be positive and finite, got {value:g}")
    if ns.theta is not None and not 2.0 < ns.theta < math.inf:
        return _input_error(f"--theta must be finite and exceed 2, got {ns.theta:g}")
    if ns.seed < 0:
        return _input_error(f"--seed must be non-negative, got {ns.seed}")
    try:
        gf = parse_graph_file(ns.graph)
    except OSError as exc:
        return _input_error(str(exc))
    except (GraphError, UnicodeDecodeError) as exc:
        return _input_error(f"{ns.graph}: {exc}")
    nl = None
    if ns.nl is not None:
        try:
            nl = replace(parse_nonlinearity(ns.nl), ar_theta=ns.theta, ar_M=ns.ar_scale)
        except ValueError as exc:
            return _input_error(str(exc))
    if len(gf.partition.boundary) == 0:
        return _input_error("the interior has no boundary vertices")
    if not gf.partition.connected:
        return _input_error("interior plus boundary is not connected")
    emit = _Report(ns.format)
    try:
        code = _COMMANDS[ns.command](ns, gf, nl, emit)
    except (SolverError, ValueError) as exc:
        emit.add({"record": "error", "message": str(exc)})
        code = 1
    except OSError as exc:  # the --emit-path-profile file cannot be written
        return _input_error(str(exc))
    text = emit.render()
    if ns.out is not None:
        try:
            with open(ns.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _input_error(str(exc))
    sys.stdout.write(text)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
