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
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .graphs import GraphError, GraphFile, parse_graph_file
from .nonlinearity import (
    GridSpec,
    ar_lower_bound,
    check_f,
    check_h,
    parse_nonlinearity,
)
from .solver import (
    SolverConfig,
    SolverError,
    mountain_pass,
    ps_diagnostic,
    two_solutions,
)
from .spectral import embedding_constants, first_eigenvalue
from .variational import (
    Problem,
    directional_derivative,
    energy,
    gradient,
    pointwise_residual,
)


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: the command, its input files and every flag."""

    command: str
    graph_path: str
    nl_spec: str | None = None
    h0: float | None = None
    theta: float | None = None
    ar_scale: float | None = None    # the --M flag
    rho: float | None = None
    beta: float | None = None
    m0: float | None = None          # the --M0 flag
    tol: float | None = None
    max_iter: int | None = None
    seed: int = 0
    out: str | None = None
    format: str = "text"
    emit_path_profile: str | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphpde",
        allow_abbrev=False,
        description="Dirichlet reaction-diffusion problems on weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "check": "verify coefficient and reaction-term hypotheses",
        "eigen": "first eigenvalue and eigenfunction of the interior Laplacian",
        "gradcheck": "audit the energy gradient against finite differences",
        "solve": "find one pass-level solution",
        "solve2": "find a ball minimizer and a pass-level solution",
    }
    for name in ("check", "eigen", "gradcheck", "solve", "solve2"):
        p = sub.add_parser(name, help=helps[name], allow_abbrev=False)
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
        p.add_argument("--tol", type=float,
                       help="eigen tolerance / gradient-audit threshold / descent stop")
        p.add_argument("--max-iter", type=int, dest="max_iter",
                       help="iteration budget of the main loop")
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


_META_TEXT_KEYS = ("nonlinearity", "h0", "theta", "M", "rho", "beta", "M0",
                   "tol", "max_iter", "seed")


def _text_lines(r: dict) -> list[str]:
    kind = r["record"]
    if kind == "meta":
        lines = [f"command {r['command']}", f"graph {r['graph']}"]
        for key in _META_TEXT_KEYS:
            if r.get(key) is not None:
                lines.append(f"{key} {_fmt(r[key])}")
        return lines
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
            f"solution {i} newton_shifted {_fmt(r['newton_shifted'])}",
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
        return lines
    if kind == "gradcheck":
        return [
            f"gradcheck trial {r['trial']} max_rel_error {_fmt(r['max_rel_error'])} "
            f"max_delta_error {_fmt(r['max_delta_error'])} pass {_fmt(r['pass'])}"
        ]
    if kind == "error":
        return [f"error {r['message']}"]
    if kind == "summary":
        lines = []
        for key in ("solutions", "distinct_gap", "ps_diagnostic", "tolerance",
                    "pass", "exit_code"):
            if key in r:
                lines.append(f"{key} {_fmt(r[key])}")
        return lines
    return [f"{kind} {json.dumps(r, sort_keys=True)}"]


def _meta(cfg: RunConfig) -> dict:
    return {
        "record": "meta",
        "command": cfg.command,
        "graph": cfg.graph_path,
        "nonlinearity": cfg.nl_spec,
        "h0": cfg.h0,
        "theta": cfg.theta,
        "M": cfg.ar_scale,
        "rho": cfg.rho,
        "beta": cfg.beta,
        "M0": cfg.m0,
        "tol": cfg.tol,
        "max_iter": cfg.max_iter,
        "seed": cfg.seed,
    }


def _verdict_record(v) -> dict:
    return {
        "record": "hypothesis",
        "name": v.name,
        "holds": bool(v.holds),
        "witness": v.witness,
        "sampled_range": v.sampled_range,
        "data": {k: _fin(val) for k, val in dict(v.data).items()},
    }


def _constants_record(c) -> dict:
    return {
        "record": "constants",
        "hypothesis": c.hypothesis,
        "lambda1": _fin(c.lambda1),
        "equiv_upper": _fin(c.equiv_upper),
        "mu_min": _fin(c.mu_min),
        "h0": _fin(c.h0),
        "sup_embedding": _fin(c.sup_embedding),
        "kappa": _fin(c.kappa),
        "omega_measure": _fin(c.omega_measure),
    }


def _ball_record(b) -> dict:
    return {
        "record": "ball",
        "kappa": _fin(b.kappa),
        "beta_max": _fin(b.beta_max),
        "max_abs_F": _fin(b.max_abs_F),
        "u_bound": _fin(b.u_bound),
        "rho": _fin(b.rho),
        "kappa_choice": b.kappa_choice,
    }


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
        "newton_shifted": bool(sol.newton_shifted),
        "u": _u_map(graph, sol.u),
    }


def _trace_record(name: str, rows) -> dict:
    return {
        "record": "trace",
        "solver": name,
        "levels": [_fin(a) for a, _ in rows],
        "grad_norms": [_fin(b) for _, b in rows],
    }


def _input_error(message: str) -> int:
    print(f"input error: {message}", file=sys.stderr)
    return 2


def _structural_check(gf: GraphFile) -> str | None:
    if len(gf.partition.omega) == 0:
        return "the graph file declares no interior vertices"
    if len(gf.partition.boundary) == 0:
        return "the interior has no boundary vertices"
    if not gf.partition.connected:
        return "interior plus boundary is not connected"
    return None


def _attach_constants(nl, cfg: RunConfig):
    if cfg.theta is not None:
        if not cfg.theta > 2.0:
            raise ValueError(f"--theta must exceed 2, got {cfg.theta:g}")
        nl = replace(nl, ar_theta=cfg.theta)
    if cfg.ar_scale is not None:
        if not cfg.ar_scale > 0.0:
            raise ValueError(f"--M must be positive, got {cfg.ar_scale:g}")
        nl = replace(nl, ar_M=cfg.ar_scale)
    return nl


def _pick_hypothesis(gf: GraphFile, h0: float):
    h1 = check_h(gf.graph, gf.partition, gf.h, "H1", h0=h0)
    h3 = check_h(gf.graph, gf.partition, gf.h, "H3", h0=h0)
    if h1.holds:
        return "H1", h1, h3
    if h3.holds:
        return "H3", h1, h3
    return None, h1, h3


def _solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(
        deform_tol=cfg.tol if cfg.tol is not None else 1e-8,
        deform_steps=cfg.max_iter if cfg.max_iter is not None else 5000,
        rho=cfg.rho,
        beta=cfg.beta,
        m0=cfg.m0,
    )


def _write_profile(cfg: RunConfig, snapshots) -> None:
    if cfg.emit_path_profile is None or snapshots is None:
        return
    lines = ["snapshot,s,energy"]
    for snap, positions, values in snapshots:
        for s, val in zip(positions, values):
            lines.append(f"{snap},{s:.17g},{val:.17g}")
    with open(cfg.emit_path_profile, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ----- commands ----- #

def _cmd_check(cfg: RunConfig, gf: GraphFile, nl, emit: _Report) -> int:
    structural = _structural_check(gf)
    if structural is not None:
        return _input_error(structural)
    emit.add(_meta(cfg))
    code = 0
    hyp = None
    h1 = h3 = None
    if cfg.h0 is not None:
        hyp, h1, h3 = _pick_hypothesis(gf, cfg.h0)
    h2 = check_h(gf.graph, gf.partition, gf.h, "H2")
    for v in (h1, h2, h3):
        if v is not None:
            emit.add(_verdict_record(v))
    if not h2.holds:
        code = 1
    if cfg.h0 is not None and hyp is None:
        code = 1
    eigen = first_eigenvalue(
        gf.graph, gf.partition,
        tolerance=cfg.tol if cfg.tol is not None else 1e-12,
        max_iterations=cfg.max_iter if cfg.max_iter is not None else 500,
    )
    emit.add({
        "record": "eigenvalue", "lambda1": _fin(eigen.lambda1),
        "iterations": eigen.iterations, "residual": _fin(eigen.residual),
    })
    if cfg.h0 is not None and hyp is not None:
        try:
            constants = embedding_constants(
                gf.graph, gf.partition, gf.h, cfg.h0, hypothesis=hyp, eigen=eigen
            )
            emit.add(_constants_record(constants))
        except ValueError as exc:
            emit.add({"record": "error", "message": str(exc)})
            code = 1
    if nl is not None:
        grid = GridSpec.default(M=nl.ar_M, M0=cfg.m0)
        has_ar = nl.ar_theta is not None and nl.ar_M is not None
        names = ["F2", "F5", "F6", "F7"] + (["F4"] if has_ar else [])
        holds: dict[str, bool] = {}
        for name in names:
            v = check_f(nl, name, grid)
            emit.add(_verdict_record(v))
            holds[name] = v.holds
        if has_ar:
            try:
                v = ar_lower_bound(nl, nl.ar_theta, nl.ar_M, grid)
                emit.add(_verdict_record(v))
            except ValueError as exc:
                emit.add({"record": "error", "message": str(exc)})
        route_one_ar = holds["F2"] and holds.get("F4", False)
        route_one_monotone = holds["F5"] and holds["F6"]
        route_two = holds["F7"] and holds.get("F4", True)
        if not (route_one_ar or route_one_monotone or route_two):
            code = 1
    emit.add({"record": "summary", "exit_code": code})
    return code


def _cmd_eigen(cfg: RunConfig, gf: GraphFile, nl, emit: _Report) -> int:
    structural = _structural_check(gf)
    if structural is not None:
        return _input_error(structural)
    emit.add(_meta(cfg))
    try:
        eigen = first_eigenvalue(
            gf.graph, gf.partition,
            tolerance=cfg.tol if cfg.tol is not None else 1e-12,
            max_iterations=cfg.max_iter if cfg.max_iter is not None else 500,
        )
    except ValueError as exc:
        emit.add({"record": "error", "message": str(exc)})
        return 1
    emit.add({
        "record": "eigenvalue", "lambda1": _fin(eigen.lambda1),
        "iterations": eigen.iterations, "residual": _fin(eigen.residual),
    })
    emit.add({"record": "eigenfunction", "u": _u_map(gf.graph, eigen.eigenfunction)})
    if cfg.h0 is not None:
        hyp, _, _ = _pick_hypothesis(gf, cfg.h0)
        if hyp is not None:
            constants = embedding_constants(
                gf.graph, gf.partition, gf.h, cfg.h0, hypothesis=hyp, eigen=eigen
            )
            emit.add(_constants_record(constants))
    return 0


def _cmd_gradcheck(cfg: RunConfig, gf: GraphFile, nl, emit: _Report) -> int:
    if nl is None:
        return _input_error("gradcheck needs --nl")
    structural = _structural_check(gf)
    if structural is not None:
        return _input_error(structural)
    try:
        problem = Problem(gf.graph, gf.partition, gf.h, nl, h0=cfg.h0)
    except ValueError as exc:
        return _input_error(str(exc))
    emit.add(_meta(cfg))
    tol = cfg.tol if cfg.tol is not None else 1e-6
    rng = np.random.default_rng(cfg.seed)
    omega = problem.partition.omega
    n = problem.graph.n
    overall = True
    for trial in range(1, 6):
        u = np.zeros(n)
        u[omega] = rng.uniform(-2.0, 2.0, size=len(omega))
        grad = gradient(problem, u)
        resid = pointwise_residual(problem, u)
        max_rel = 0.0
        max_delta = 0.0
        for x in omega:
            step = 1e-6 * (1.0 + abs(u[x]))
            up = u.copy(); up[x] += step
            dn = u.copy(); dn[x] -= step
            fd = (energy(problem, up) - energy(problem, dn)) / (2.0 * step)
            rel = abs(grad[x] - fd) / max(1.0, abs(grad[x]), abs(fd))
            max_rel = max(max_rel, rel)
            test = np.zeros(n)
            test[x] = 1.0
            dd = directional_derivative(problem, u, test)
            expect = problem.graph.measure[x] * resid[x]
            max_delta = max(max_delta, abs(dd - expect) / max(1.0, abs(expect)))
        ok = max_rel <= tol and max_delta <= 1e-12
        overall = overall and ok
        emit.add({
            "record": "gradcheck", "trial": trial,
            "max_rel_error": _fin(max_rel), "max_delta_error": _fin(max_delta),
            "pass": ok,
        })
    emit.add({"record": "summary", "tolerance": _fin(tol), "pass": overall})
    return 0 if overall else 1


def _cmd_solve(cfg: RunConfig, gf: GraphFile, nl, emit: _Report) -> int:
    if nl is None:
        return _input_error("solve needs --nl")
    structural = _structural_check(gf)
    if structural is not None:
        return _input_error(structural)
    try:
        problem = Problem(gf.graph, gf.partition, gf.h, nl, h0=cfg.h0)
        config = _solver_config(cfg)
    except ValueError as exc:
        return _input_error(str(exc))
    emit.add(_meta(cfg))
    verdicts: list = []
    trace: list = []
    profile = [] if cfg.emit_path_profile is not None else None
    try:
        sol = mountain_pass(
            problem, config,
            trace_out=trace, verdicts_out=verdicts, profile_out=profile,
        )
    except SolverError as exc:
        for v in verdicts:
            emit.add(_verdict_record(v))
        emit.add({"record": "error", "message": str(exc)})
        _write_profile(cfg, profile)
        return 1
    for v in verdicts:
        emit.add(_verdict_record(v))
    eigen = first_eigenvalue(gf.graph, gf.partition)
    emit.add({
        "record": "eigenvalue", "lambda1": _fin(eigen.lambda1),
        "iterations": eigen.iterations, "residual": _fin(eigen.residual),
    })
    if cfg.h0 is not None:
        hyp, _, _ = _pick_hypothesis(gf, cfg.h0)
        if hyp is not None:
            constants = embedding_constants(
                gf.graph, gf.partition, gf.h, cfg.h0, hypothesis=hyp, eigen=eigen
            )
            emit.add(_constants_record(constants))
    emit.add(_solution_record(gf.graph, sol, 1))
    emit.add(_trace_record("mountain_pass", trace))
    ps = ps_diagnostic((trace,), (sol,), config.newton_tol)
    emit.add({"record": "summary", "solutions": 1, "ps_diagnostic": ps})
    _write_profile(cfg, profile)
    return 0


def _cmd_solve2(cfg: RunConfig, gf: GraphFile, nl, emit: _Report) -> int:
    if nl is None:
        return _input_error("solve2 needs --nl")
    if cfg.h0 is None:
        return _input_error("solve2 needs --h0")
    if (cfg.rho is None) == (cfg.m0 is None):
        return _input_error("solve2 needs exactly one of --rho or --M0")
    structural = _structural_check(gf)
    if structural is not None:
        return _input_error(structural)
    try:
        problem = Problem(gf.graph, gf.partition, gf.h, nl, h0=cfg.h0)
        config = _solver_config(cfg)
    except ValueError as exc:
        return _input_error(str(exc))
    emit.add(_meta(cfg))
    profile = [] if cfg.emit_path_profile is not None else None
    try:
        report = two_solutions(problem, config, profile_out=profile)
    except SolverError as exc:
        attached = getattr(exc, "iteration_trace", None)
        if attached:
            for name in sorted(attached):
                emit.add(_trace_record(name, attached[name]))
        emit.add({"record": "error", "message": str(exc)})
        _write_profile(cfg, profile)
        return 1
    for v in report.hypothesis_verdicts:
        emit.add(_verdict_record(v))
    emit.add(_constants_record(report.constants))
    emit.add(_ball_record(report.ball))
    for i, sol in enumerate(report.solutions, 1):
        emit.add(_solution_record(gf.graph, sol, i))
    for name in sorted(report.iteration_trace):
        emit.add(_trace_record(name, report.iteration_trace[name]))
    gap = float(np.max(np.abs(report.solutions[0].u - report.solutions[1].u)))
    emit.add({
        "record": "summary", "solutions": len(report.solutions),
        "distinct_gap": _fin(gap), "ps_diagnostic": report.ps_diagnostic,
    })
    _write_profile(cfg, profile)
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
    cfg = RunConfig(
        command=ns.command, graph_path=ns.graph, nl_spec=ns.nl, h0=ns.h0,
        theta=ns.theta, ar_scale=ns.ar_scale, rho=ns.rho, beta=ns.beta,
        m0=ns.m0, tol=ns.tol, max_iter=ns.max_iter, seed=ns.seed, out=ns.out,
        format=ns.format, emit_path_profile=ns.emit_path_profile,
    )
    if cfg.h0 is not None and not cfg.h0 > 0.0:
        return _input_error(f"--h0 must be positive, got {cfg.h0:g}")
    try:
        gf = parse_graph_file(cfg.graph_path)
    except OSError as exc:
        return _input_error(str(exc))
    except GraphError as exc:
        return _input_error(f"{cfg.graph_path}: {exc}")
    nl = None
    if cfg.nl_spec is not None:
        try:
            nl = _attach_constants(parse_nonlinearity(cfg.nl_spec), cfg)
        except ValueError as exc:
            return _input_error(str(exc))
    emit = _Report(cfg.format)
    try:
        code = _COMMANDS[cfg.command](cfg, gf, nl, emit)
    except (SolverError, ValueError) as exc:
        emit.add({"record": "error", "message": str(exc)})
        code = 1
    text = emit.render()
    sys.stdout.write(text)
    if cfg.out is not None:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
