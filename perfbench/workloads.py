"""The three workloads: which commands one round runs, how often, and why.

A round runs every (input, command) pair of the workload's mix, each
as many times as its weight.  Weights are chosen so that the median
and p75 (the tail of a 30 s run) fall inside one class of commands
each, away from the border between them, so neither jumps between
classes from run to run.  Where the slow class is the smaller one it
gets two fifths of a round: then p75 is its 37.5th percentile.  At one
third it was its 25th percentile, which moved with the number of
samples that happened to run in a fast stretch of a shared machine,
and command_s_tail spread by up to 0.25 over ten seeds.  A 30 s run
times 39-100 commands; run.py times at least 40, so the tail is p75
in every run.

pass_corpus also carries a robustness sub-corpus: four random graphs
drawn from the seed.  Their solve times vary fourfold between seeds
(0.26 s to 1.8 s per graph), so they run outside the timed rounds,
twice each per run; they count in attempted, failed and verified_ratio
and in the traced per-layer numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from perfbench import corpus

SOLVE = ("solve", "--nl", "power:p=4", "--theta", "4", "--M", "1", "--format", "jsonl")
EIGEN = ("eigen", "--h0", "1", "--format", "jsonl")
CHECK = ("check", "--h0", "1", "--nl", "power:p=4", "--theta", "4", "--M", "1",
         "--format", "jsonl")


def solve2(eps: str) -> tuple[str, ...]:
    return ("solve2", "--nl", f"power_plus_const:p=4,eps={eps}", "--rho", "1", "--h0", "1",
            "--format", "jsonl")


@dataclass(frozen=True)
class Command:
    input: str
    args: tuple[str, ...]      # subcommand and flags; the graph path goes second
    weight: int = 1

    @property
    def key(self) -> str:
        return f"{self.args[0]}:{self.input}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: tuple[Command, ...]           # one round, weights included
    random_graphs: int = 0             # robustness sub-corpus size

    def inputs(self, seed: int) -> list[corpus.GraphInput]:
        names = sorted({c.input for c in self.mix})
        out = [corpus.path3() if n == "path3" else corpus.lattice(int(n.removeprefix("grid")))
               for n in names]
        rng = np.random.default_rng(seed)
        out += [corpus.random_graph(rng, f"rand{i}") for i in range(self.random_graphs)]
        return out

    def robustness(self, inputs) -> list[Command]:
        return [Command(inp.name, SOLVE) for inp in inputs if inp.name.startswith("rand")]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "pass_corpus",
            "path deformation dominates: 41 energy calls per iteration, so energy "
            "assembly and iteration counts set the time, at 100 and 784 unknowns; "
            "plus four seeded random graphs",
            (Command("grid12", SOLVE, 3), Command("grid30", SOLVE, 2)),
            random_graphs=4,
        ),
        Workload(
            "two_solution",
            "the only workload that runs ball_minimize, the two-solution gate and the "
            "ball_constants scan; path3 has one unknown, so per-call overhead dominates",
            (Command("grid12", solve2("0.01"), 3), Command("path3", solve2("0.1"), 2)),
        ),
        Workload(
            "spectral_large",
            "no energy calls: parsing 1.6k-3k-line files, the Python-loop interior "
            "matrix, inverse-power eigen above 200 unknowns, a 1444-value report",
            (Command("grid30", EIGEN, 1), Command("grid30", CHECK, 1),
             Command("grid40", EIGEN, 2), Command("grid40", CHECK, 2)),
        ),
    )
}
