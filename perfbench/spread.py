"""Steadiness checks of the benchmark itself.

    python3 perfbench/spread.py spread --seeds 1-10 [--out FILE] [--against FILE]
    python3 perfbench/spread.py repeat --seed 7 [--seconds 4]

spread runs run.py once per seed and workload of BENCHMARK.json, for
its run_seconds, one process at a time, and prints for every end-to-end metric the median, the quartiles
(statistics.quantiles, n=4) and their distance as a share of the median,
against the metric's bound in BENCHMARK.json.  It fails when a spread
exceeds its bound.  With --against it also
fails when a median is worse than the one in an earlier --out file by
more than the bound.  With --out it also records one traced run per
workload and writes everything as a baseline file.

repeat runs the traced benchmark twice with the same seed and checks
that every count and ratio metric and the report digest are identical.

Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def _config() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(details, result) of one benchmark process."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    expected = {m["name"] for m in _config()["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        raise SystemExit(f"{workload}: metrics {sorted(result['metrics'])} "
                         f"do not match BENCHMARK.json {sorted(expected)}")
    return json.loads(lines[-2]), result


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args) -> int:
    config = _config()
    names = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    better = {m["name"]: m["better"] for m in config["end_to_end"]}
    before = {}
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            before = json.load(fh)["workloads"]
    seconds = config["run_seconds"]
    baseline = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for name in names:
        values: dict[str, list[float]] = {}
        flags = []
        for seed in _seeds(args.seeds):
            details, result = run_once(name, seed, seconds, 0)
            baseline["environment"] = details["environment"]
            flags.append((seed, result["correct"], result["attempted"], result["failed"]))
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        rows = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("inf")
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": share, "values": vals}
            bound = bounds[metric]
            verdict = ("below a third of the bound" if share <= bound / 3
                       else "within the bound" if share <= bound
                       else "ABOVE THE BOUND")
            line = (f"  {metric:16s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                    f"spread {share:.4f}  bound {bound}  {verdict}")
            steady &= not verdict.startswith("ABOVE")
            old = before.get(name, {}).get("end_to_end", {}).get(metric)
            if old:
                worse = (med - old["median"]) / old["median"]
                if better[metric] == "higher":
                    worse = -worse
                line += f"  worse than before by {worse:+.4f}"
                if worse > bound:
                    line += " ABOVE THE BOUND"
                    steady = False
            print(line, flush=True)
        entry = {"end_to_end": rows, "runs": flags}
        if args.out:
            details, result = run_once(name, _seeds(args.seeds)[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["corpus"] = details["corpus"]
            entry["why"] = details["why"]
        baseline["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


def repeat(args) -> int:
    names = [w["name"] for w in _config()["workloads"]]
    same = True
    for name in names:
        runs = [run_once(name, args.seed, args.seconds, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "1")}
                  for _, r in runs]
        digests = [d["report_digest"] for d, _ in runs]
        differ = [k for k in counts[0] if counts[0][k] != counts[1][k]]
        ok = not differ and digests[0] == digests[1]
        same &= ok
        print(f"{name}: {len(counts[0])} count metrics, digest {digests[0][:16]}: "
              + ("identical" if ok else f"DIFFER {differ} {digests}"), flush=True)
    return 0 if same else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--seeds", default="1-10")
    sp.add_argument("--out")
    sp.add_argument("--against")
    rp = sub.add_parser("repeat")
    rp.add_argument("--seed", type=int, default=7)
    rp.add_argument("--seconds", type=float, default=4.0)
    args = ap.parse_args()
    return spread(args) if args.mode == "spread" else repeat(args)


if __name__ == "__main__":
    sys.exit(main())
