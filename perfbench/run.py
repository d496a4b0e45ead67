"""graphpde benchmark: time to a verified solution, end to end and per layer.

    python3 perfbench/run.py --workload pass_corpus --seed 1 --seconds 30 --trace 0

Run from the repository root.  A single process runs a closed loop with
one caller: graphpde.cli.run(argv) is called in-process on graph files
generated from --seed, and each command starts only after the previous
one returned and its report was checked by the oracles in oracles.py.
The loop runs whole rounds (workloads.py) until --seconds have passed
and at least 40 commands were timed.  Set-up runs SETUP_REPEATS times
before the loop and setup_s is their median.  Every time is reported in
reference seconds (speed.py): wall time corrected by a fixed probe run
between commands, so that the shared machine's changing speed does not
show as a change of graphpde's.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and prints the per-layer metrics, which come from
spans recorded around the calls into each graphpde module (trace.py);
its trace.overhead_s is traced minus untraced command_s_p50.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details
(environment, corpus, failures by input, report digest).  Both, and the
span table of a traced run, are also written under perfbench/.work/.
"""

import os

# BLAS threads are pinned before numpy loads: with the default two
# threads on a two-core machine one solve2 ranged 0.38-1.0 s, with one
# thread 0.36-0.49 s.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# The process is pinned to one CPU, the highest-numbered it may use, so
# every run lands on the same one: on a two-core machine the same eigen
# command ran 8-15% slower on cpu0 than on cpu1, which made runs that the
# scheduler happened to place differently fall into two groups.
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")

SETUP_REPEATS = 5
ROBUSTNESS_REPEATS = 2   # a second run of each command checks byte-identical reports
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# p75 has ten samples beyond it from 40 samples on.  A run that stopped
# at the deadline with fewer would report p50 as its tail, so the loop
# goes on until it has 40: on a slow stretch of a shared machine a 30 s
# pass_corpus run timed only 39 commands.
MIN_TIMED_COMMANDS = 40


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "pinned_cpu": CPU,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def _fresh_cli():
    """Import graphpde from scratch, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "graphpde" or m.startswith("graphpde.")]:
        del sys.modules[name]
    return importlib.import_module("graphpde.cli")


class Bench:
    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.work_dir = os.path.relpath(
            os.path.join(WORK, f"{workload.name}-seed{seed}"), os.getcwd())
        self.round = [c for c in workload.mix for _ in range(c.weight)]
        self.weights = {c.key: c.weight for c in workload.mix}
        self.hashes: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[dict] = []
        self.by_command: dict[str, dict] = {}
        self.records: dict[int, list] = {}    # traced command index -> its trace records
        self.by_key: dict[str, list[float]] = {}  # untraced timed samples per command
        self.tracer = None
        self.cli = None
        self.inputs = {}
        self.oracle = None
        self.robustness: list = []
        self.setup_times: list[float] = []
        self.walls: list[float] = []          # untraced timed samples in wall seconds
        self.last_verified = False
        from perfbench.speed import Clock
        self.clock = Clock()

    # ----- set-up ----- #

    def setup(self):
        """Import graphpde afresh, write the corpus and run the first
        command of the mix; the time taken, in reference seconds, goes to
        setup_times.  Building the oracle's own tables is not timed."""
        from perfbench import corpus
        from perfbench.oracles import Oracle

        self.clock.fresh()
        t0 = time.perf_counter()
        self.cli = _fresh_cli()
        inputs = corpus.write(self.workload.inputs(self.seed), self.work_dir)
        t1 = time.perf_counter()
        self.inputs = {i.name: i for i in inputs}
        self.oracle = Oracle(inputs)
        warm = self.execute(self.workload.mix[0], counted=False)
        self.setup_times.append(self.clock.scale(t1 - t0 + warm))
        self.robustness = self.workload.robustness(inputs)
        for c in self.robustness:
            self.weights[c.key] = 1

    # ----- one command ----- #

    def execute(self, cmd, counted=True, traced=False) -> float:
        """Run one command, check its report and return its wall time."""
        inp = self.inputs[cmd.input]
        argv = [cmd.args[0], inp.path, *cmd.args[1:]]
        run = self.cli.run
        if traced:
            self.tracer.begin_command(cmd.key)
            run = self.tracer.span(run, "cli.run")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = run(argv)
            except Exception as exc:   # a traceback is a wrong output, not a crash
                code = f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        text = out.getvalue()
        verdict = self.oracle.check(cmd.args, cmd.input, code, text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.hashes.setdefault(cmd.key, digest) != digest:
            verdict.misses.append("report bytes differ from the first run of this command")
        if traced:
            self.records[len(self.tracer.command_keys) - 1] = [
                r for r in verdict.records or () if r.get("record") == "trace"]
        if verdict.wrong:
            self.wrong.append({"command": cmd.key, "misses": verdict.misses})
        if counted:
            self.attempted += 1
            row = self.by_command.setdefault(cmd.key, {"attempted": 0, "failed": 0})
            row["attempted"] += 1
            if not verdict.verified:
                self.failed += 1
                row["failed"] += 1
                row["reason"] = verdict.solver_failure or "; ".join(verdict.misses)
        self.last_verified = verdict.verified
        return dt

    # ----- loops ----- #

    def rounds(self, seconds: float, traced_too: bool):
        """Whole rounds until the deadline.  With traced_too each untraced
        round is followed by a traced one; without it the rounds go on
        until MIN_TIMED_COMMANDS were timed.  Returns (untraced samples,
        traced samples, verified untraced commands), samples in
        reference seconds."""
        rng = random.Random(self.seed)
        plain, traced, verified = [], [], 0
        t0 = time.perf_counter()
        while True:
            order = self.round[:]
            rng.shuffle(order)
            for cmd in order:
                wall = self.execute(cmd)
                self.walls.append(wall)
                plain.append(self.clock.scale(wall))
                self.by_key.setdefault(cmd.key, []).append(plain[-1])
                verified += self.last_verified
            if traced_too:
                rng.shuffle(order)
                self.tracer.install()
                try:
                    for cmd in order:
                        traced.append(self.clock.scale(self.execute(cmd, traced=True)))
                finally:
                    self.tracer.uninstall()
            if (time.perf_counter() - t0 >= seconds
                    and (traced_too or len(plain) >= MIN_TIMED_COMMANDS)):
                return plain, traced, verified

    def run_robustness(self, traced: bool):
        if traced and self.robustness:
            self.tracer.install()
        try:
            for _ in range(ROBUSTNESS_REPEATS):
                for cmd in self.robustness:
                    self.execute(cmd, traced=traced)
        finally:
            if traced:
                self.tracer.uninstall()


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest of TAIL_PERCENTILES with at least ten samples beyond it
    (nearest rank), falling back to the median for short runs."""
    ordered = sorted(samples)
    n = len(ordered)
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= 10:
            best = p
    return best, ordered[_rank(best, n) - 1]


def _rank(p: float, n: int) -> int:
    return max(1, min(n, -int(-p * n // 100)))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    plain, _, verified = bench.rounds(seconds, traced_too=False)
    bench.run_robustness(traced=False)
    percentile, tail_s = tail(plain)
    metrics = {
        "setup_s": _metric(statistics.median(bench.setup_times), "s"),
        "command_s_p50": _metric(statistics.median(plain), "s"),
        "command_s_tail": _metric(tail_s, "s"),
        "verified_per_s": _metric(verified / sum(plain), "1/s"),
        "verified_ratio": _metric(1.0 - bench.failed / bench.attempted, "1"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"timed_commands": len(plain), "timed_reference_s": sum(plain),
                     "tail_percentile": percentile,
                     "command_wall_s_p50": statistics.median(bench.walls),
                     "command_wall_s_tail": tail(bench.walls)[1]}


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    from perfbench.layers import layer_metrics
    from perfbench.trace import Tracer

    bench.tracer = Tracer()
    plain, traced, _ = bench.rounds(seconds, traced_too=True)
    bench.run_robustness(traced=True)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = layer_metrics(bench.tracer, bench.records, bench.weights, overhead)
    os.makedirs(WORK, exist_ok=True)
    spans_path = os.path.join(WORK, f"spans-{bench.workload.name}-seed{bench.seed}.npz")
    bench.tracer.write(spans_path)
    return metrics, {"untraced_commands": len(plain), "traced_commands": len(traced),
                     "missing_spans": bench.tracer.missing,
                     "spans": len(bench.tracer.start),
                     "span_file": os.path.relpath(spans_path, ROOT)}


def main(argv=None) -> int:
    from perfbench.speed import REFERENCE_S
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="graphpde benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    bench = Bench(workload, args.seed)
    for _ in range(SETUP_REPEATS):
        bench.setup()
    if args.trace:
        metrics, run_info = per_layer(bench, args.seconds)
    else:
        metrics, run_info = end_to_end(bench, args.seconds)

    details = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(),
        "setup_s_repeats": bench.setup_times,
        "probe_s": {"reference": REFERENCE_S, "median": statistics.median(bench.clock.probes),
                    "min": min(bench.clock.probes), "max": max(bench.clock.probes)},
        "corpus": {name: {**inp.describe(),
                          "role": "robustness" if name.startswith("rand") else "timed"}
                   for name, inp in bench.inputs.items()},
        "mix": bench.weights,
        **run_info,
        "fail_ratio": bench.failed / bench.attempted,
        "command_s_by_key": {k: {"median": statistics.median(v), "min": min(v), "max": max(v)}
                             for k, v in sorted(bench.by_key.items())},
        "by_command": bench.by_command,
        "wrong": bench.wrong[:20],
        "report_digest": hashlib.sha256(
            json.dumps(sorted(bench.hashes.items())).encode()).hexdigest(),
    }
    result = {"correct": not bench.wrong, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "graphpde", "cli.py")):
        print(f"error: no graphpde sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]
    sys.exit(main())
