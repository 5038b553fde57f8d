"""One benchmark process: import the program, run one workload, print JSON.

``run.py`` starts this file in a fresh interpreter for every sample, so
imports and stack building are paid the way a user pays them. Modes:

* ``probe``: stop at the first simulated event and report when it
  happened (the end of set-up) and the host speed sampled until then;
* ``measure``: untraced cold/warm passes until ``--seconds`` is spent;
* ``trace``: untraced and traced passes, alternating, for the
  per-layer metrics and the tracing overhead.

The last stdout line is one JSON object. ``perf_counter`` is
``CLOCK_MONOTONIC`` on Linux, so the parent can subtract its own
start-of-process reading from the ``first_event`` reported here.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Any

_clock = time.perf_counter

MIN_MEASURE_PASSES = 3
MIN_TRACED_PASSES = 2


class _FirstEvent(BaseException):
    """Unwinds a probe at the first simulated event (not an ``Exception``,
    so no program ``except Exception`` swallows it)."""


def _hook_first_run() -> dict[str, float]:
    """Record the clock when the first ``Simulator.run`` starts, then
    unwind with :class:`_FirstEvent`."""
    from repro.sim.engine import Simulator

    seen: dict[str, float] = {}
    original = Simulator.run

    def first_run(sim: Any, *args: Any, **kwargs: Any) -> Any:
        seen["first_event"] = _clock()
        Simulator.run = original  # type: ignore[method-assign]
        raise _FirstEvent

    Simulator.run = first_run  # type: ignore[method-assign]
    return seen


def _probe(name: str, seed: int, work_dir: str) -> dict[str, Any]:
    """Import and build the workload up to its first simulated event,
    sampling the host's speed from the start of this script."""
    from hostspeed import SpeedSampler

    with SpeedSampler() as sampler:
        seen = _hook_first_run()
        from workloads import WORKLOADS

        workload = WORKLOADS[name](seed, work_dir)
        try:
            workload.cold()
        except _FirstEvent:
            pass
        finally:
            workload.cleanup()
    return {"first_event": seen["first_event"], "scale": sampler.scale()}


def _failed_ops(result: Any, reference: dict[str, str] | None,
                pinned: dict[str, str] | None) -> list[str]:
    """Failures of one pass: its own check, plus digests that differ from
    the first pass of this process or from the pinned default-seed set."""
    failed = list(result.check.failed)
    for expected in (reference, pinned):
        if expected is None or result.check.failed:
            continue
        got = result.check.digests
        for label in sorted(set(expected) | set(got)):
            if expected.get(label) != got.get(label):
                failed.append(f"{label}: digest {got.get(label)} != {expected.get(label)}")
    return failed


class _Ledger:
    """Attempted/failed operations and digests across the passes of a process."""

    def __init__(self, pinned: dict[str, str] | None) -> None:
        self.pinned = pinned
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.requests = 0

    def add(self, result: Any) -> None:
        failed = _failed_ops(result, self.reference, self.pinned)
        if self.reference is None and not result.check.failed:
            self.reference = result.check.digests
            self.requests = result.check.requests
        self.attempted += result.ops
        self.failed += min(result.ops, len(set(failed)))
        self.failures.extend(failed)


def _measure(workload: Any, seconds: float, ledger: _Ledger) -> dict[str, Any]:
    from hostspeed import SpeedSampler
    from workloads import run_pass

    sampler = SpeedSampler()
    passes = []
    start = _clock()
    while True:
        t0 = _clock()
        try:
            result = run_pass(workload, sampler=sampler)
        finally:
            workload.cleanup()
        pass_s = _clock() - t0
        ledger.add(result)
        passes.append(result)
        if len(passes) >= MIN_MEASURE_PASSES and _clock() + pass_s - start > seconds:
            break
    return {
        "run_s": [p.run_s for p in passes],
        "warm_s": [p.warm_s for p in passes],
        "run_scale": [p.run_scale for p in passes],
        "warm_scale": [p.warm_scale for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


#: Per-layer metrics that must repeat exactly between runs of one seed
#: (counts and artifact sizes); all others are host times.
EXACT_METRICS = (
    "sim.events", "sim.reschedules", "ntier.submits", "ntier.admits",
    "workload.draws", "workload.creates", "monitoring.collections",
    "sct.estimates", "sct.failures", "sim.fluid.steps", "sim.governor.switches",
    "scaling.adapts", "control.publishes", "experiments.cache.stores",
    "experiments.cache.loads", "experiments.cache.bytes_per_artifact",
)


def _trace(workload: Any, seconds: float, ledger: _Ledger) -> dict[str, Any]:
    from tracer import Tracer
    from workloads import run_pass

    untraced: list[float] = []
    traced_run: list[float] = []
    traced: list[dict[str, Any]] = []
    units: dict[str, str] = {}
    start = _clock()
    while True:
        t0 = _clock()
        try:
            plain = run_pass(workload)
        finally:
            workload.cleanup()
        ledger.add(plain)
        untraced.append(plain.run_s)

        tracer = Tracer()
        marks: dict[str, float] = {}

        def timed_end() -> None:
            marks["end"] = _clock()
            marks["attributed"] = tracer.attributed_s()

        tracer.install()
        try:
            t_start = _clock()
            result = run_pass(workload, on_timed=timed_end)
            sizes = workload.artifact_bytes()
        finally:
            tracer.uninstall()
            workload.cleanup()
        layer = tracer.metrics()
        layer["experiments.cache.bytes_per_artifact"] = (
            sum(sizes) / len(sizes) if sizes else 0.0, "bytes"
        )
        layer["trace.unattributed_s"] = (
            marks.get("end", t_start) - t_start - marks.get("attributed", 0.0), "s"
        )
        units = {k: v[1] for k, v in layer.items()}
        metrics = {k: v[0] for k, v in layer.items()}
        traced_run.append(result.run_s)
        # Counts must repeat exactly between traced passes of one seed;
        # a pass whose counts differ is not reproducible, so it fails.
        if traced and any(metrics[k] != traced[0][k] for k in EXACT_METRICS):
            result.check.failed.extend(
                f"op {i}: counts differ from the first traced pass"
                for i in range(result.ops)
            )
        ledger.add(result)
        traced.append(metrics)
        elapsed = _clock() - start
        if len(traced) >= MIN_TRACED_PASSES and elapsed + (_clock() - t0) > seconds:
            break
    return {"untraced_run_s": untraced, "traced_run_s": traced_run,
            "traced": traced, "units": units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--pinned", default=None,
                        help="JSON object of label -> digest the cold outputs must match")
    args = parser.parse_args(argv)

    if args.mode == "probe":
        out = _probe(args.workload, args.seed, args.work_dir)
    else:
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, args.work_dir)
        ledger = _Ledger(json.loads(args.pinned) if args.pinned else None)
        run = _measure if args.mode == "measure" else _trace
        out = run(workload, args.seconds, ledger)
        out.update(
            attempted=ledger.attempted,
            failed=ledger.failed,
            failures=ledger.failures[:20],
            requests=ledger.requests,
            digests=ledger.reference or {},
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
