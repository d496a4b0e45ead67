"""Span tracing by rebinding names from outside the package.

graphpde modules import each other's functions by name (solver.py does
`from .variational import energy`), so a call is caught only by
replacing the name in the namespace that makes the call:
graphpde.solver.energy, not graphpde.variational.energy.  install()
does that for every entry of WRAPS and uninstall() puts the original
objects back, so untraced rounds run the program exactly as shipped.

A span has a name, a start, an end, a parent span and the id of the
command it belongs to.  Spans are kept in memory as typed columns (a
traced 30 s run holds about a million of them) and written out once,
at the end of the run, as a compressed numpy archive.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (calling module, attribute, span name); the layer is the span name's prefix
WRAPS = [
    ("cli", "parse_graph_file", "graphs.parse"),
    ("cli", "parse_nonlinearity", "nonlinearity.parse"),
    ("cli", "check_h", "nonlinearity.check"),
    ("cli", "check_f", "nonlinearity.check"),
    ("cli", "ar_lower_bound", "nonlinearity.check"),
    ("cli", "first_eigenvalue", "spectral.first_eigenvalue"),
    ("cli", "embedding_constants", "spectral.embedding_constants"),
    ("cli", "mountain_pass", "solver.mountain_pass"),
    ("cli", "two_solutions", "solver.two_solutions"),
    ("cli", "energy", "variational.energy"),
    ("cli", "gradient", "variational.gradient"),
    ("cli", "pointwise_residual", "variational.pointwise_residual"),
    ("solver", "mountain_pass", "solver.mountain_pass"),
    ("solver", "ball_minimize", "solver.ball_minimize"),
    ("solver", "build_spike_endpoint", "solver.spike"),
    ("solver", "_descent_step", "solver.descent_step"),
    ("solver", "_resample_path", "solver.resample_path"),
    ("solver", "_newton_polish", "solver.newton_polish"),
    ("solver", "_interior_matrix", "calculus.interior_matrix"),
    ("solver", "norm", "calculus.norm"),
    ("solver", "check_h", "nonlinearity.check"),
    ("solver", "check_f", "nonlinearity.check"),
    ("solver", "f1_verdict", "nonlinearity.check"),
    ("solver", "evaluate", "nonlinearity.evaluate"),
    ("solver", "first_eigenvalue", "spectral.first_eigenvalue"),
    ("solver", "embedding_constants", "spectral.embedding_constants"),
    ("solver", "ball_constants", "variational.ball_constants"),
    ("solver", "energy", "variational.energy"),
    ("solver", "gradient", "variational.gradient"),
    ("solver", "pointwise_residual", "variational.pointwise_residual"),
    ("spectral", "_interior_matrix", "calculus.interior_matrix"),
    ("spectral", "dirichlet_energy", "calculus.dirichlet_energy"),
    ("spectral", "integrate", "calculus.integrate"),
    ("spectral", "first_eigenvalue", "spectral.first_eigenvalue"),
    ("variational", "dirichlet_energy", "calculus.dirichlet_energy"),
    ("variational", "gradient_form", "calculus.gradient_form"),
    ("variational", "integrate", "calculus.integrate"),
    ("variational", "laplacian", "calculus.laplacian"),
    ("variational", "norm", "calculus.norm"),
    ("variational", "evaluate", "nonlinearity.evaluate"),
    ("variational", "pointwise_residual", "variational.pointwise_residual"),
]

# small facts read off a call's result, keyed by span name
_FACTS = {
    "graphs.parse": lambda gf: (gf.graph.n, gf.graph.m),
    "spectral.first_eigenvalue": lambda res: res.iterations,
    "solver.descent_step": lambda res: res is not None,
    "solver.ball_minimize": lambda res: True,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("q")
        self.end = array("q")
        self.facts: dict[int, object] = {}
        self.command_keys: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str):
        """fn wrapped so that each call records one span."""
        nid = self._name_id(name)
        fact = _FACTS.get(name)
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.command.append(len(self.command_keys) - 1)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if fact is not None:
                self.facts[idx] = fact(result)
            return result

        return traced

    def begin_command(self, key: str):
        self.command_keys.append(key)

    def install(self):
        """Rebind every WRAPS name in its calling namespace.  A name a
        later version of the package no longer has is reported in
        self.missing and skipped."""
        self.missing = []
        for mod_name, attr, span_name in WRAPS:
            module = importlib.import_module(f"graphpde.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"graphpde.{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(original, span_name))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Columns of the span table plus duration and self time (the
        duration minus the time covered by direct child spans)."""
        name = np.frombuffer(self.name, dtype=np.int16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], dur[has_parent], minlength=len(dur))
        return {"name": name, "parent": parent,
                "command": np.frombuffer(self.command, dtype=np.int32),
                "dur": dur, "self": dur - child}

    def write(self, path: str):
        """Span table as columns; names and command keys index into the
        string arrays of the same archive."""
        np.savez_compressed(
            path, names=np.array(self.names), commands=np.array(self.command_keys),
            name=np.frombuffer(self.name, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            command=np.frombuffer(self.command, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
