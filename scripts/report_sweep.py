"""Run the report sweep and compare it with an earlier run.

The sweep runs five commands, in process, on 104 graphs: path3,
grid12, grid30, grid40 and the 100 random graphs s<seed>rand<i> that
perfbench.corpus.random_graph draws, four per rng seed 0-24.  It also
runs them on 43 fixed variants of the path3 and grid12 files, named
path3-<variant> and grid12-<variant> (see malformed): 41 that the graph
reader rejects, each an exit 2 with one stderr line, and 2 valid ones
in another layout.  The commands are

    eigen --h0 1
    check --h0 1 --nl power:p=4 --theta 4 --M 1
    solve --nl power:p=4 --theta 4 --M 1
    solve2 --nl power_plus_const:p=4,eps=0.1 --rho 1 --h0 1
    solve2 --nl power_plus_const:p=4,eps=0.01 --M0 0.5 --h0 1

Each command runs twice, with --format jsonl and with --format text,
and both outputs go into one report.  For each report it keeps the
exit code of the jsonl run and, per output line, a label and the
sha256 of the line, plus that of stderr when anything reached it.  A
jsonl line's label is the record kind; a hypothesis record's adds its
name and + if it holds, - if it fails, so a verdict that flips shows as
two labels.  A text line's label is "text" and its first word; the text
run's stderr is labelled "text stderr".  --out FILE writes
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


def _field(line: str, k: int, token: str) -> str:
    tokens = line.split()
    tokens[k] = token
    return " ".join(tokens)


def malformed(name: str, text: str) -> list[tuple[str, str]]:
    """(name-variant, text) for fixed edits of a graph file: one break of
    each rule the graph reader checks, two pairs of bad lines where the
    earlier one must be reported, and the valid file with comment and
    blank lines, tabs and CRLF endings.  On path3 every weight is also
    set to 1e308, so its middle vertex's derived measure overflows."""
    lines = text.splitlines()
    v = [line for line in lines if line.startswith("v ")]
    e = [line for line in lines if line.startswith("e ")]
    _, a, b, w = e[0].split()
    variants = {
        "short_e": v + e[:-1] + [e[-1].rsplit(" ", 1)[0]],
        "long_v": [v[0] + " # interior"] + v[1:] + e,
        "unknown_record": v + ["x 1 2"] + e,
        "late_v": v + e + ["v late auto 1 omega"],
        "duplicate_vertex": v + [v[0]] + e,
        "non_real_h": [_field(v[0], 3, "1.0.0")] + v[1:] + e,
        "non_finite_h": v[:-1] + [_field(v[-1], 3, "nan")] + e,
        "non_positive_measure": v[:-1] + [_field(v[-1], 2, "-1")] + e,
        "bad_role": v[:-1] + [_field(v[-1], 4, "interior")] + e,
        "mixed_measure": [_field(v[0], 2, "1.5")] + v[1:] + e,
        "unknown_id": v + [f"e {a} nowhere {w}"] + e[1:],
        "self_loop": v + [f"e {a} {a} {w}"] + e[1:],
        "non_real_weight": v + [_field(e[0], 3, "x")] + e[1:],
        "non_finite_weight": v + e[:-1] + [_field(e[-1], 3, "inf")],
        "non_positive_weight": v + [_field(e[0], 3, "0")] + e[1:],
        "duplicate_edge": v + e + [f"e {b} {a} {w}"],
        "duplicate_edge_then_bad_weight":
            v + e[:1] + [f"e {b} {a} 2"] + e[1:-1] + [_field(e[-1], 3, "nan")],
        "bad_weight_then_late_v": v + [_field(e[0], 3, "-1")] + e[1:] + ["v late auto 1 omega"],
        "isolated_vertex": v + ["v alone auto 1 outside"] + e,
        "no_omega": [_field(line, 4, "boundary") for line in v] + e,
    }
    if name == "path3":
        variants["overflowing_measure"] = v + [_field(line, 3, "1e308") for line in e]
    out = [(f"{name}-{variant}", "".join(line + "\n" for line in body))
           for variant, body in variants.items()]
    layout = ["# comment", *(line.replace(" ", "\t") for line in v), "", "  #", *e]
    out.append((f"{name}-crlf_tabs_comments", "\r\n".join(layout) + "\r\n"))
    return out


def label(line: str) -> str:
    record = json.loads(line)
    kind = record.get("record", "?")
    if kind != "hypothesis":
        return kind
    return f"{kind} {record['name']}{'+' if record['holds'] else '-'}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv, line_label, err_label):
    """The exit code of one in-process run, and [label, sha256] per
    stdout line, plus err_label's when anything reached stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    records = [[line_label(line), _digest(line)] for line in out.getvalue().splitlines()]
    if err.getvalue():
        records.append([err_label, _digest(err.getvalue())])
    return code, records


def sweep(only=()):
    """{"<graph> <command line>": {"exit": code, "records": [[label, sha256], ...]}}"""
    inputs = [g for g in graphs() if not only or g.name in only]
    variants = [(name, text) for base in (corpus.path3(), corpus.lattice(12))
                for name, text in malformed(base.name, corpus.graph_text(base))
                if not only or name in only]
    reports = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative graph paths keep the meta records the same from run to run
        try:
            files = [(g.name, g.path) for g in corpus.write(inputs, ".")]
            for name, text in variants:
                path = os.path.join(".", name + ".graph")
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
                files.append((name, path))
            for name, path in files:
                for command in COMMANDS:
                    code, records = _run([command[0], path, *command[1:], "--format", "jsonl"],
                                         label, "stderr")
                    records += _run([command[0], path, *command[1:], "--format", "text"],
                                    lambda line: "text " + line.split(" ", 1)[0],
                                    "text stderr")[1]
                    reports[f"{name} {' '.join(command)}"] = {"exit": code, "records": records}
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
