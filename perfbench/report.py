#!/usr/bin/env python3
"""Render recorded benchmark runs as markdown tables.

Usage::

    python3 perfbench/run.py --workload closed-sweep --seed 3 --trace 0 --record runs.jsonl
    python3 perfbench/report.py runs.jsonl [--out DIR]

One table per section, each built on its own, so a table that cannot be
built is reported as such and the others are still written:

1. end to end: per workload and metric, the median over runs, the
   quartiles and their spread as a share of the median (the figure the
   bounds in ``BENCHMARK.json`` apply to);
2. per layer: per metric, the median over traced runs of each workload;
3. counts: for each workload and seed traced more than once, whether
   every count repeated exactly;
4. runs: operations attempted and failed per workload.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_UNITS = ("count", "bytes")


def load_records(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def _bounds() -> dict[str, float]:
    try:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def _table(headers: list[str], rows: list[list[object]]) -> str:
    def cell(v: object) -> str:
        return f"{v:.6g}" if isinstance(v, float) else str(v)

    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(cell(v) for v in row) + " |" for row in rows]
    return "\n".join(lines)


def _by_workload(records: list[dict], trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = defaultdict(list)
    for r in records:
        if r["trace"] == trace:
            out[r["workload"]].append(r)
    return out


def table_end_to_end(records: list[dict]) -> str:
    bounds = _bounds()
    rows = []
    for workload, runs in sorted(_by_workload(records, 0).items()):
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows.append([workload, name, unit, len(values), med, q1, q3, spread,
                         bounds.get(name, "")])
    return _table(["workload", "metric", "unit", "runs", "median", "q1", "q3",
                   "spread", "bound"], rows)


def table_per_layer(records: list[dict]) -> str:
    traced = _by_workload(records, 1)
    workloads = sorted(traced)
    names: list[str] = []
    units: dict[str, str] = {}
    for runs in traced.values():
        for name, m in runs[0]["result"]["metrics"].items():
            if name not in units:
                names.append(name)
                units[name] = m["unit"]
    rows = []
    for name in names:
        row: list[object] = [name, units[name]]
        for w in workloads:
            values = [r["result"]["metrics"][name]["value"] for r in traced[w]]
            row.append(statistics.median(values) if values else "")
        rows.append(row)
    return _table(["metric", "unit"] + workloads, rows)


def table_counts(records: list[dict]) -> str:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for r in records:
        if r["trace"] == 1:
            groups[(r["workload"], r["seed"])].append(r)
    rows = []
    for (workload, seed), runs in sorted(groups.items()):
        # Every traced pass of every run of this seed.
        passes = [p for r in runs for p in r["detail"]["traced"]]
        units = runs[0]["detail"]["units"]
        exact = [n for n, u in units.items() if u in EXACT_UNITS]
        differing = [n for n in exact if len({p[n] for p in passes}) > 1]
        rows.append([workload, seed, len(runs), len(passes), len(exact),
                     ", ".join(differing) or "none"])
    return _table(["workload", "seed", "runs", "traced passes", "counts checked",
                   "counts that differed"], rows)


def table_runs(records: list[dict]) -> str:
    rows = []
    grouped: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for r in records:
        grouped[(r["workload"], r["trace"])].append(r)
    for (workload, trace), runs in sorted(grouped.items()):
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        correct = sum(bool(r["result"]["correct"]) for r in runs)
        seeds = sorted({r["seed"] for r in runs})
        rows.append([workload, trace, len(runs), correct, attempted, failed,
                     ", ".join(map(str, seeds))])
    return _table(["workload", "trace", "runs", "correct runs", "ops attempted",
                   "ops failed", "seeds"], rows)


TABLES: list[tuple[str, str, Callable[[list[dict]], str]]] = [
    ("Table 1", "End-to-end metrics", table_end_to_end),
    ("Table 2", "Per-layer metrics (traced runs)", table_per_layer),
    ("Table 3", "Count repeatability", table_counts),
    ("Table 4", "Operations", table_runs),
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+", help="JSON-lines files from run.py --record")
    parser.add_argument("--out", default=None, help="write one .md file per table here")
    args = parser.parse_args(argv)
    records = load_records(args.records)
    if not records:
        print("error: no records", file=sys.stderr)
        return 2
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    failures = 0
    for number, title, build in TABLES:
        try:
            body = build(records)
        except Exception as exc:  # isolate: one broken table must not hide the rest
            failures += 1
            body = f"(not built: {type(exc).__name__}: {exc})"
        text = f"### {number}: {title}\n\n{body}\n"
        if args.out:
            slug = number.lower().replace(" ", "")
            with open(os.path.join(args.out, f"{slug}.md"), "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
