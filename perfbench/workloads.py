"""The benchmark's workloads: inputs from a seed, one cold and one warm step.

Every workload is run the same way by :func:`run_pass`: a timed *cold*
step (the work users wait for), a timed *warm* step (the same request
again in the same process), then an untimed check. An operation is one
spec, one sweep level or one cache load; the check returns a digest of
each cold operation's simulated outputs plus the labels of any
operation that failed (conservation, a warm result that differs from
the cold one, or a warm step not served the way it should be).

Sizes are fixed here, not by the caller: the benchmark seed is the only
input that varies, and it becomes the scenario seed of every spec
(except on ``hybrid-steady``, see :class:`HybridSteady`).
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.experiments.artifact import RunArtifact, RunSpec
from repro.experiments.backends import SerialBackend
from repro.experiments.engine import ExperimentEngine

from hostspeed import SpeedSampler

_clock = time.perf_counter


def digest(*parts: Any) -> str:
    """Schema-free digest of simulated values (arrays by dtype and bytes)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def artifact_digest(artifact: RunArtifact) -> str:
    """Latencies, completion times, VM counts, estimates and Table I tails."""
    tail = artifact.tail()
    estimates = [
        (tier, float(e.time), int(e.optimal), int(e.q_upper))
        for tier, history in sorted(artifact.estimates.items())
        for e in history
    ]
    return digest(
        artifact.latencies,
        artifact.completion_times,
        artifact.vm_times,
        artifact.vm_counts,
        estimates,
        int(artifact.generated),
        int(artifact.completed),
        int(artifact.failed),
        float(tail.p95),
        float(tail.p99),
    )


def conserved(generated: int, completed: int, failed: int) -> bool:
    return generated - completed - failed >= 0


@dataclass
class Check:
    """Untimed verdict on one pass."""

    digests: dict[str, str] = field(default_factory=dict)
    failed: list[str] = field(default_factory=list)
    requests: int = 0


@dataclass
class PassResult:
    """Measured step times, their host-speed scales, operations, verdict."""

    run_s: float
    warm_s: float
    ops: int
    check: Check
    run_scale: float = 1.0
    warm_scale: float = 1.0


class _KeepingEngine(ExperimentEngine):
    """A serial engine that keeps the artifacts it returned, for the check."""

    def __init__(self, cache_dir: str) -> None:
        super().__init__(jobs=1, cache_dir=cache_dir, backend=SerialBackend())
        self.kept: list[tuple[RunSpec, RunArtifact]] = []

    def run_many(self, specs):  # type: ignore[override]
        specs = list(specs)
        artifacts = super().run_many(specs)
        self.kept.extend(zip(specs, artifacts))
        return artifacts


class _CachedWorkload:
    """Cold: execute specs into an empty private cache. Warm: the same
    request from a second engine on that cache, which must be all hits."""

    name = ""
    n_specs = 0

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self._cache_dir = ""

    @property
    def ops(self) -> int:
        return 2 * self.n_specs

    def _request(self, engine: _KeepingEngine) -> Any:
        raise NotImplementedError

    def _label(self, spec: RunSpec) -> str:
        return spec.label

    def cold(self) -> tuple[_KeepingEngine, Any]:
        self._cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        engine = _KeepingEngine(self._cache_dir)
        return engine, self._request(engine)

    def warm(self, cold: Any) -> tuple[_KeepingEngine, Any]:
        engine = _KeepingEngine(self._cache_dir)
        return engine, self._request(engine)

    def artifact_bytes(self) -> list[int]:
        return [
            os.path.getsize(os.path.join(self._cache_dir, f))
            for f in os.listdir(self._cache_dir)
        ]

    def cleanup(self) -> None:
        if self._cache_dir:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = ""

    def check(self, cold: Any, warm: Any) -> Check:
        (cold_engine, cold_out), (warm_engine, warm_out) = cold, warm
        out = Check()
        if cold_engine.executed != self.n_specs or len(cold_engine.kept) != self.n_specs:
            out.failed.append(f"cold executed {cold_engine.executed}/{self.n_specs}")
        for spec, artifact in cold_engine.kept:
            label = self._label(spec)
            if not conserved(artifact.generated, artifact.completed, artifact.failed):
                out.failed.append(f"{label}: conservation")
            out.digests[label] = artifact_digest(artifact)
            out.requests += int(artifact.completed)
        served = warm_engine.stats.hits == self.n_specs and warm_engine.executed == 0
        for (spec, a), (_, b) in zip(cold_engine.kept, warm_engine.kept):
            if not served or a.signature() != b.signature():
                out.failed.append(f"load {self._label(spec)}: warm differs from cold")
        if len(warm_engine.kept) != self.n_specs:
            out.failed.append(f"warm returned {len(warm_engine.kept)}/{self.n_specs}")
        if cold_out != warm_out:
            out.failed.append("warm output differs from cold")
        return out


class Table1Grid(_CachedWorkload):
    """Table I for ec2 and conscale over two bursty traces, discrete, open loop."""

    name = "table1-grid"
    TRACES = ("dual_phase", "large_variations")
    FRAMEWORKS = ("ec2", "conscale")
    LOAD_SCALE = 300.0
    DURATION = 180.0
    n_specs = len(TRACES) * len(FRAMEWORKS)

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        from repro.experiments.figures import table1

        self._table1 = table1

    def _request(self, engine: _KeepingEngine) -> Any:
        data = self._table1(
            load_scale=self.LOAD_SCALE,
            duration=self.DURATION,
            seed=self.seed,
            traces=self.TRACES,
            frameworks=self.FRAMEWORKS,
            engine=engine,
        )
        return data.rows()

    def check(self, cold: Any, warm: Any) -> Check:
        out = super().check(cold, warm)
        out.digests["table1.rows"] = digest(cold[1])
        return out


class HybridSteady(_CachedWorkload):
    """The fluid guard spec (conscale, steady 4000 users, 1/2/2) in hybrid mode.

    The spec keeps the guard's own scenario seed whatever the benchmark
    seed: the hybrid run's work is bimodal in the scenario seed (the
    governor's early controller-settle windows run 65k or 115k events),
    which would swamp any change in host time.
    """

    name = "hybrid-steady"
    n_specs = 1

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        from benchmarks.fluid_workload import GUARD, fluid_spec

        self.spec = fluid_spec("hybrid", **GUARD)

    def _request(self, engine: _KeepingEngine) -> Any:
        return engine.run(self.spec).spec.digest()

    def _label(self, spec: RunSpec) -> str:
        # The spec's own label names the trace CSV's temporary path.
        return f"{spec.framework}/guard-hybrid#seed{spec.config.seed}"


class ClosedSweep:
    """Fig. 3 "Tomcat 1-core" concurrency sweep, closed loop, zero think time,
    through the library's uncached inline engine. The warm step repeats the
    sweep: with no cache it re-executes, and must give the same points."""

    name = "closed-sweep"
    LEVELS = (10, 30, 60, 100)
    DURATION = 4.0
    ops = 2 * len(LEVELS)

    def __init__(self, seed: int, work_dir: str) -> None:
        import repro.experiments.sweep as sweep_mod
        from repro.experiments.calibration import (
            Calibration,
            ample_capacity,
            app_capacity,
        )
        from repro.workload.mixes import browse_only_mix

        self._sweep_mod = sweep_mod
        self.seed = seed
        self.mix = browse_only_mix(Calibration().base_demands)
        self.capacities = {
            "web": ample_capacity(),
            "app": app_capacity(1.0),
            "db": ample_capacity(),
        }
        self._apps: list[Any] = []

    def _sweep(self) -> Any:
        from repro.ntier.app import APP

        sweep_mod = self._sweep_mod
        # Keep each level's application, for conservation and request
        # counts: one constructor call per level, nothing per event.
        original = sweep_mod.NTierApplication
        apps = self._apps

        def keep(*args: Any, **kwargs: Any) -> Any:
            app = original(*args, **kwargs)
            apps.append(app)
            return app

        sweep_mod.NTierApplication = keep  # type: ignore[assignment]
        try:
            return sweep_mod.concurrency_sweep(
                APP, self.capacities, self.mix, list(self.LEVELS),
                duration=self.DURATION, seed=self.seed,
            )
        finally:
            sweep_mod.NTierApplication = original  # type: ignore[assignment]

    def cold(self) -> Any:
        self._apps = []
        return self._sweep()

    def warm(self, cold: Any) -> Any:
        return self._sweep()

    def artifact_bytes(self) -> list[int]:
        return []

    def cleanup(self) -> None:
        self._apps = []

    def check(self, cold: Any, warm: Any) -> Check:
        out = Check()
        apps = self._apps[: len(self.LEVELS)]
        if len(cold.points) != len(self.LEVELS) or len(apps) != len(self.LEVELS):
            out.failed.append("cold sweep incomplete")
        for point, app in zip(cold.points, apps):
            label = f"level-{point.concurrency}"
            if not conserved(app.submitted, app.completed, app.failed):
                out.failed.append(f"{label}: conservation")
            out.digests[label] = digest(
                int(point.concurrency),
                float(point.measured_concurrency),
                float(point.throughput),
                float(point.response_time),
                float(point.utilization),
            )
            out.requests += int(app.completed)
        for a, b in zip(cold.points, warm.points):
            if a != b:
                out.failed.append(f"level-{a.concurrency}: rerun differs")
        if len(warm.points) != len(cold.points):
            out.failed.append("warm sweep incomplete")
        out.digests["q_lower"] = digest(int(cold.q_lower()))
        return out


WORKLOADS = {w.name: w for w in (Table1Grid, HybridSteady, ClosedSweep)}


def run_pass(
    workload: Any,
    on_timed: Callable[[], None] | None = None,
    sampler: SpeedSampler | None = None,
) -> PassResult:
    """One timed cold step, one timed warm step, then the untimed check.

    ``sampler`` samples the host's speed during each timed step;
    ``on_timed`` runs between the timed steps and the check. The caller
    owns ``workload.cleanup()``.
    """
    gc.collect()
    speed = sampler if sampler is not None else nullcontext()
    try:
        with speed:
            t0 = _clock()
            cold = workload.cold()
            t1 = _clock()
        run_scale = sampler.scale() if sampler is not None else 1.0
        with speed:
            t2 = _clock()
            warm = workload.warm(cold)
            t3 = _clock()
        warm_scale = sampler.scale() if sampler is not None else 1.0
        if on_timed is not None:
            on_timed()
        check = workload.check(cold, warm)
    except Exception as exc:  # a pass that raises fails all of its operations
        traceback.print_exc()
        failed = [f"op {i}: pass raised {exc!r}" for i in range(workload.ops)]
        return PassResult(0.0, 0.0, workload.ops, Check(failed=failed))
    return PassResult(t1 - t0, t3 - t2, workload.ops, check, run_scale, warm_scale)
