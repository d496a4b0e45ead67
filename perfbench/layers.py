"""Per-layer metrics from the span table and the traced reports.

Every metric is per command: the value of each traced command, averaged
over the runs of that command, then averaged over the workload's mix
with the mix weights (robustness-corpus commands weigh 1).  Counts are
deterministic per command, so they do not depend on how many rounds a
run managed.  Iteration counts and stall exits are read from the
reports' trace records; everything else comes from spans.
"""

from __future__ import annotations

import numpy as np

from graphpde.solver import SolverConfig

_DEFAULTS = SolverConfig()   # the CLI runs with these deform_tol and deform_steps

# name -> unit, in the order the metrics are reported
UNITS = {
    "variational.energy_calls": "count",
    "variational.energy_s": "s",
    "variational.energy_us_per_call": "us",
    "variational.gradient_calls": "count",
    "variational.gradient_s": "s",
    "variational.residual_calls": "count",
    "variational.ball_constants_s": "s",
    "calculus.self_s": "s",
    "calculus.interior_matrix_s": "s",
    "solver.deform_iterations": "count",
    "solver.deform_stall_exits": "count",
    "solver.deform_self_s": "s",
    "solver.path_energy_calls_per_iteration": "count",
    "solver.step_accept_ratio": "1",
    "solver.ball_iterations": "count",
    "solver.ball_accept_ratio": "1",
    "solver.ball_self_s": "s",
    "solver.spike_s": "s",
    "solver.resample_s": "s",
    "solver.newton_s": "s",
    "solver.newton_iterations": "count",
    "solver.gate_s": "s",
    "spectral.eigen_s": "s",
    "spectral.eigen_iterations": "count",
    "spectral.constants_s": "s",
    "nonlinearity.check_s": "s",
    "nonlinearity.check_calls": "count",
    "nonlinearity.evaluate_calls": "count",
    "graphs.parse_s": "s",
    "graphs.vertices": "count",
    "graphs.edges": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans_per_command": "count",
    "trace.missing_spans": "count",
}


def _trace_counts(records) -> dict[str, float]:
    out = {"deform": 0, "stalls": 0, "ball": 0, "ball_accepted": 0}
    for r in records or ():
        if r.get("record") != "trace" or not r["levels"]:
            continue
        n = len(r["levels"])
        if r["solver"] == "mountain_pass":
            out["deform"] += n
            # a non-finite final norm is written as a string and is a stall too
            out["stalls"] += not float(r["grad_norms"][-1]) <= _DEFAULTS.deform_tol
        elif r["solver"] == "ball_min":
            out["ball"] += n
            # every iteration but a stopping one moved the iterate
            out["ball_accepted"] += n if n == _DEFAULTS.deform_steps else n - 1
    return out


def layer_metrics(tracer, records: dict, weights: dict, overhead_s: float) -> dict:
    cols = tracer.arrays()
    keys = tracer.command_keys
    ncmd = len(keys)
    ids = {n: i for i, n in enumerate(tracer.names)}
    layer = np.array([n.split(".")[0] for n in tracer.names] + [""])
    name, parent, cmd = cols["name"], cols["parent"], cols["command"]
    parent_name = np.where(parent >= 0, name[parent], len(tracer.names))

    def is_(span):
        return name == ids.get(span, -1)

    def under(span, parent_span):
        return is_(span) & (parent_name == ids.get(parent_span, -1))

    def count(mask):
        return np.bincount(cmd[mask], minlength=ncmd).astype(float)

    def total(mask, col="dur"):
        return np.bincount(cmd[mask], cols[col][mask], minlength=ncmd)

    def facts(span, value):
        out = np.zeros(ncmd)
        for idx in np.flatnonzero(is_(span)):
            if idx in tracer.facts:
                out[cmd[idx]] += value(tracer.facts[idx])
        return out

    def mix(values) -> float:
        by_key: dict[str, list[float]] = {}
        for key, v in zip(keys, values):
            by_key.setdefault(key, []).append(float(v))
        if not by_key:
            return 0.0
        w = {k: weights[k] for k in by_key}
        return sum(w[k] * np.mean(vs) for k, vs in by_key.items()) / sum(w.values())

    def ratio(num, den) -> float:
        den = mix(den)
        return mix(num) / den if den else 0.0

    traces = [_trace_counts(records.get(j)) for j in range(ncmd)]
    deform = [t["deform"] for t in traces]
    check = is_("nonlinearity.check")
    energy = is_("variational.energy")
    calculus_spans = layer[name] == "calculus"
    parse_sizes = facts("graphs.parse", lambda nm: nm[0]), facts("graphs.parse", lambda nm: nm[1])

    m = {
        "variational.energy_calls": mix(count(energy)),
        "variational.energy_s": mix(total(energy)),
        "variational.energy_us_per_call": 1e6 * ratio(total(energy), count(energy)),
        "variational.gradient_calls": mix(count(is_("variational.gradient"))),
        "variational.gradient_s": mix(total(is_("variational.gradient"))),
        "variational.residual_calls": mix(count(is_("variational.pointwise_residual"))),
        "variational.ball_constants_s": mix(total(is_("variational.ball_constants"))),
        "calculus.self_s": mix(total(calculus_spans, "self")),
        "calculus.interior_matrix_s": mix(total(is_("calculus.interior_matrix"))),
        "solver.deform_iterations": mix(deform),
        "solver.deform_stall_exits": mix([t["stalls"] for t in traces]),
        "solver.deform_self_s": mix(total(is_("solver.mountain_pass"), "self")),
        "solver.path_energy_calls_per_iteration": ratio(
            count(under("variational.energy", "solver.mountain_pass")), deform),
        "solver.step_accept_ratio": ratio(
            facts("solver.descent_step", bool),
            count(under("variational.energy", "solver.descent_step"))),
        "solver.ball_iterations": mix([t["ball"] for t in traces]),
        # energy calls made by ball_minimize itself, less the initial value
        # and the one _finish_solution makes when it returns
        "solver.ball_accept_ratio": ratio(
            [t["ball_accepted"] for t in traces],
            count(under("variational.energy", "solver.ball_minimize"))
            - count(is_("solver.ball_minimize")) - facts("solver.ball_minimize", bool)),
        "solver.ball_self_s": mix(total(is_("solver.ball_minimize"), "self")),
        "solver.spike_s": mix(total(is_("solver.spike"))),
        "solver.resample_s": mix(total(is_("solver.resample_path"))),
        "solver.newton_s": mix(total(is_("solver.newton_polish"))),
        "solver.newton_iterations": mix(
            count(under("nonlinearity.evaluate", "solver.newton_polish"))),
        "solver.gate_s": mix(total(check & (layer[parent_name] == "solver"))),
        "spectral.eigen_s": mix(total(is_("spectral.first_eigenvalue"))),
        "spectral.eigen_iterations": mix(facts("spectral.first_eigenvalue", int)),
        "spectral.constants_s": mix(total(is_("spectral.embedding_constants"))),
        "nonlinearity.check_s": mix(total(check)),
        "nonlinearity.check_calls": mix(count(check)),
        "nonlinearity.evaluate_calls": mix(count(is_("nonlinearity.evaluate"))),
        "graphs.parse_s": mix(total(is_("graphs.parse"))),
        "graphs.vertices": mix(parse_sizes[0]),
        "graphs.edges": mix(parse_sizes[1]),
        "cli.self_s": mix(total(is_("cli.run"), "self")),
        "trace.overhead_s": overhead_s,
        "trace.spans_per_command": mix(count(np.ones(len(name), dtype=bool))),
        "trace.missing_spans": float(len(tracer.missing)),
    }
    return {k: {"value": float(m[k]), "unit": unit} for k, unit in UNITS.items()}
