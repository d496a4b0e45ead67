"""Run the report sweep and compare it with an earlier run.

The sweep runs five jsonl commands, in process, on 104 graphs: path3,
grid12, grid30, grid40 and the 100 random graphs s<seed>rand<i> that
perfbench.corpus.random_graph draws, four per rng seed 0-24.  The
commands are

    eigen --h0 1
    check --h0 1 --nl power:p=4 --theta 4 --M 1
    solve --nl power:p=4 --theta 4 --M 1
    solve2 --nl power_plus_const:p=4,eps=0.1 --rho 1 --h0 1
    solve2 --nl power_plus_const:p=4,eps=0.01 --M0 0.5 --h0 1

For each report it keeps the exit code and, per record line, the
record's label and the sha256 of the line.  The label is the record
kind; a hypothesis record's adds its name and + if it holds, - if it
fails, so a verdict that flips shows as two labels.  --out FILE writes
them as JSON.  --against FILE compares this run with a file written
before, prints the changed reports grouped by command and record label,
and exits 1 if any changed.  --only NAME restricts the sweep, and the
comparison, to the named graphs.

    PYTHONPATH=src python scripts/report_sweep.py --out before.json
    PYTHONPATH=src python scripts/report_sweep.py --against before.json
"""

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import corpus  # noqa: E402

from graphpde.cli import run  # noqa: E402

COMMANDS = (
    ("eigen", "--h0", "1"),
    ("check", "--h0", "1", "--nl", "power:p=4", "--theta", "4", "--M", "1"),
    ("solve", "--nl", "power:p=4", "--theta", "4", "--M", "1"),
    ("solve2", "--nl", "power_plus_const:p=4,eps=0.1", "--rho", "1", "--h0", "1"),
    ("solve2", "--nl", "power_plus_const:p=4,eps=0.01", "--M0", "0.5", "--h0", "1"),
)


def graphs():
    out = [corpus.path3(), corpus.lattice(12), corpus.lattice(30), corpus.lattice(40)]
    for seed in range(25):
        rng = np.random.default_rng(seed)
        out += [corpus.random_graph(rng, f"s{seed}rand{i}") for i in range(4)]
    return out


def label(line: str) -> str:
    record = json.loads(line)
    kind = record.get("record", "?")
    if kind != "hypothesis":
        return kind
    return f"{kind} {record['name']}{'+' if record['holds'] else '-'}"


def sweep(only=()):
    """{"<graph> <command line>": {"exit": code, "records": [[label, sha256], ...]}}"""
    inputs = [g for g in graphs() if not only or g.name in only]
    reports = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative graph paths keep the meta records the same from run to run
        try:
            for g in corpus.write(inputs, "."):
                for command in COMMANDS:
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        code = run([command[0], g.path, *command[1:], "--format", "jsonl"])
                    lines = out.getvalue().splitlines()
                    records = [[label(line), hashlib.sha256(line.encode()).hexdigest()]
                               for line in lines]
                    if err.getvalue():
                        records.append(["stderr", hashlib.sha256(err.getvalue().encode()).hexdigest()])
                    reports[f"{g.name} {' '.join(command)}"] = {"exit": code, "records": records}
        finally:
            os.chdir(cwd)
    return reports


def changes(before, after):
    """{(command, label): [graph, ...]} for every report that differs,
    the label "exit code" or "missing" where the report as a whole does."""
    groups = defaultdict(list)
    for key in sorted(set(before) | set(after)):
        graph, command = key.split(" ", 1)
        old, new = before.get(key), after.get(key)
        if old is None or new is None:
            groups[(command, "missing")].append(graph)
            continue
        if old["exit"] != new["exit"]:
            groups[(command, "exit code")].append(graph)
        by_label = defaultdict(lambda: ([], []))
        for side, report in enumerate((old, new)):
            for name, digest in report["records"]:
                by_label[name][side].append(digest)
        for name, (a, b) in by_label.items():
            if a != b:
                groups[(command, name)].append(graph)
    return groups


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the sweep to this JSON file")
    ap.add_argument("--against", help="compare with a sweep written before by --out")
    ap.add_argument("--only", action="append", default=[], metavar="NAME",
                    help="run only this graph (repeatable)")
    args = ap.parse_args(argv)
    reports = sweep(set(args.only))
    codes = Counter(r["exit"] for r in reports.values())
    print(f"{len(reports)} reports: " + ", ".join(f"{n} exit {c}" for c, n in sorted(codes.items())))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(reports, fh, indent=0, sort_keys=True)
    if not args.against:
        return 0
    with open(args.against, encoding="utf-8") as fh:
        before = json.load(fh)
    if args.only:
        before = {key: r for key, r in before.items() if key.split(" ", 1)[0] in args.only}
    groups = changes(before, reports)
    changed = {(graph, command) for (command, _), names in groups.items() for graph in names}
    for (command, name), names in sorted(groups.items()):
        shown = " ".join(names[:6]) + (f" (+{len(names) - 6} more)" if len(names) > 6 else "")
        print(f"{command} | {name}: {len(names)} reports: {shown}")
    print(f"{len(changed)} of {len(reports)} reports changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
