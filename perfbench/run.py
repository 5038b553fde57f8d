#!/usr/bin/env python3
"""Host-time benchmark of the simulator, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1-grid --seed 1 --seconds 24 --trace 0

Workloads: ``table1-grid``, ``hybrid-steady``, ``closed-sweep`` (see
``perfbench/README.md`` for why each exists and what each layer metric
predicts). Every sample runs in a fresh interpreter started by this
script, which imports nothing from the program itself:

* ``--trace 0``: a few set-up probes, then one process that measures
  untraced cold/warm passes for ``--seconds``; prints the end-to-end
  metrics: set-up as the median of the probes and step times as the
  median over passes, each scaled by the host speed sampled while it
  ran (see ``hostspeed.py``);
* ``--trace 1``: one process that alternates untraced and traced passes;
  prints the per-layer metrics (medians over traced passes).

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
``--record FILE`` also appends the full result to a JSON-lines file that
``perfbench/report.py`` renders. The exit status is 0 only when a
result was printed; a missing program (no ``src/repro``) or a failed
child exits 2 without one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1-grid", "hybrid-steady", "closed-sweep")
#: Fresh processes timed to their first simulated event, per run.
SETUP_PROBES = 5
#: Wall-clock budget of one invocation, below the 180 s a run may take.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "warm_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
}


class BenchError(RuntimeError):
    pass


def _child(args: argparse.Namespace, mode: str, work_dir: str, deadline: float,
           pinned: dict[str, str] | None) -> tuple[float, dict]:
    """Run one worker process; returns (clock at spawn, its JSON result)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--work-dir", work_dir,
    ]
    if pinned:
        cmd += ["--pinned", json.dumps(pinned)]
    env = dict(os.environ)
    # The program writes its temporary files (the steady trace CSV) under
    # TMPDIR; keep them inside this run's work directory.
    env["TMPDIR"] = work_dir
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited {proc.returncode}")
    return t_spawn, json.loads(lines[-1])


def _pinned(workload: str, seed: int) -> dict[str, str] | None:
    """The pinned output digests that apply to this run, if any: those of
    the default seed, or of every seed for a workload that ignores it."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        entry = json.load(fh)["digests"][workload]
    return entry["ops"] if entry["seed"] in (None, seed) else None


def _end_to_end(args, work_dir, deadline, pinned) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_PROBES):
        t_spawn, probe = _child(args, "probe", work_dir, deadline, None)
        setups.append((probe["first_event"] - t_spawn) * probe["scale"])
    _, out = _child(args, "measure", work_dir, deadline, pinned)
    # Each step is scaled by the host speed sampled while it ran (see
    # hostspeed.py) and the median over passes is reported.
    runs = [t * k for t, k in zip(out["run_s"], out["run_scale"])]
    warms = [t * k for t, k in zip(out["warm_s"], out["warm_scale"])]
    run_s = statistics.median(runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "warm_s": statistics.median(warms),
        "requests_per_s": out["requests"] / run_s if run_s > 0 else 0.0,
        "peak_rss_mb": out["peak_rss_mb"],
        "ops_ok_frac": (out["attempted"] - out["failed"]) / out["attempted"],
    }
    detail = dict(out, passes=len(runs), setup_samples=setups, run_samples=runs,
                  warm_samples=warms)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, detail


def _per_layer(args, work_dir, deadline, pinned) -> tuple[dict, dict]:
    _, out = _child(args, "trace", work_dir, deadline, pinned)
    traced = out["traced"]
    units = dict(out["units"], **{"trace.overhead_frac": "ratio"})
    metrics = {}
    for name in out["units"]:
        values = [t[name] for t in traced]
        # Counts repeat exactly (the worker fails a pass where they do
        # not), so they are reported as measured, not averaged.
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    # Fastest traced cold step over fastest untraced one, in one process.
    metrics["trace.overhead_frac"] = min(out["traced_run_s"]) / min(out["untraced_run_s"])
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append the full result to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + BUDGET_S
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        pinned = _pinned(args.workload, args.seed)
        measure = _per_layer if args.trace else _end_to_end
        metrics, detail = measure(args, work_dir, deadline, pinned)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)  # only when no other run is using it
        except OSError:
            pass

    for failure in detail["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    if args.record:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "result": result, "detail": detail}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    summary = ", ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in metrics.items())
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {summary}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
