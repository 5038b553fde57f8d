"""Outside-in tracer: per-layer spans and counts without editing the program.

:meth:`Tracer.install` swaps a fixed set of the program's public entry
points for timing wrappers and :meth:`Tracer.uninstall` restores them:

* every callback the event calendar dispatches, wrapped when it is
  scheduled and keyed by the module that defines it (a
  ``PeriodicProcess`` tick is keyed by the ``fn`` it drives);
* ``Simulator.run/schedule/reschedule/rearm`` (the calendar itself);
* ``NTierApplication.submit``, ``Server.admit``,
  ``WorkloadMix.sample_interaction``, ``RequestFactory.create``,
  ``OptimalConcurrencyEstimator.estimate_tier``, ``ControlBus.publish``,
  ``ResultCache.store/load``, ``RunArtifact.signature`` and
  ``execute_spec``.

Spans stay in memory. Each one is folded into its layer's accumulator
as it closes: a layer's self time is its spans' durations minus the
time their child spans cover. Nothing is written while a run executes.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict
from typing import Any, Callable

import repro.experiments.runner as runner_mod
from repro.control.bus import ControlBus
from repro.control.events import MODE_KINDS
from repro.experiments.artifact import RunArtifact
from repro.experiments.cache import ResultCache
from repro.ntier.app import NTierApplication
from repro.ntier.server import Server
from repro.scaling.estimator import OptimalConcurrencyEstimator
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.workload.generator import RequestFactory
from repro.workload.mixes import WorkloadMix

_clock = time.perf_counter

#: Module prefix -> layer name, most specific first.
_LAYERS = (
    ("repro.sim.fluid", "sim.fluid"),
    ("repro.sim.governor", "sim.governor"),
    ("repro.sim", "sim"),
    ("repro.ntier", "ntier"),
    ("repro.workload", "workload"),
    ("repro.monitoring", "monitoring"),
    ("repro.sct", "sct"),
    ("repro.scaling", "scaling"),
    ("repro.control", "control"),
    ("repro.experiments", "experiments"),
)

#: Dispatched periodic callbacks that count as one unit of a layer's work.
_TICK_COUNTS = {
    "MetricWarehouse._collect": "monitoring.collections",
    "FluidStepper._tick": "sim.fluid.steps",
    "BaseController._tick": "scaling.adapts",
}


def layer_of(module: str) -> str:
    for prefix, layer in _LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class Tracer:
    """Span and count collector for one or more traced passes."""

    def __init__(self) -> None:
        # One frame per open span; frame[0] accumulates the time the
        # span's children cover. The root frame collects top-level spans.
        self._stack: list[list[float]] = [[0.0]]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.build_s = 0.0
        self.extract_s = 0.0
        self._spec: list[float] | None = None  # [entered, first run, last run end]
        self._undo: list[tuple[object, str, Any]] = []
        self._dispatch_keys: dict[object, tuple[str, str | None]] = {}
        self._traced: dict[Callable[..., Any], Callable[..., Any]] = {}
        self.span_cost = (0.0, 0.0)
        self.span_cost = self._calibrate()

    # ------------------------------------------------------------------
    def attributed_s(self) -> float:
        """Total duration of top-level spans so far."""
        return self._stack[0][0]

    def _span(
        self,
        fn: Callable[..., Any],
        layer: str,
        count: str | None = None,
        sample: str | None = None,
        also: str | None = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` in a span of ``layer``; bump ``count`` and ``also``
        and keep the duration under ``sample`` when the span closes."""
        stack, self_s, counts, samples = (
            self._stack, self.self_s, self.counts, self.samples
        )
        outer, inner = self.span_cost

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                stack.pop()
                # The parent loses the child's whole call, wrapper cost
                # outside [t0, t0 + dur] included, and the child keeps its
                # duration less the wrapper cost inside it: tracing
                # overhead is charged to no layer.
                stack[-1][0] += dur + outer
                self_s[layer] += dur - inner - frame[0]
                if count is not None:
                    counts[count] += 1
                if also is not None:
                    counts[also] += 1
                if sample is not None:
                    samples[sample].append(dur)

        return traced

    def _calibrate(self, rounds: int = 5, n: int = 20000) -> tuple[float, float]:
        """The wrapper's own cost per span, in seconds, outside and inside
        the interval it measures: from timing a wrapped no-op against the
        no-op called directly. Minimum over ``rounds``."""

        def noop() -> None:
            return None

        outer = inner = float("inf")
        for _ in range(rounds):
            self.span_cost = (0.0, 0.0)
            self._stack[0][0] = 0.0
            wrapped = self._span(noop, "calibration")
            t0 = _clock()
            for _ in range(n):
                noop()
            direct = _clock() - t0
            t0 = _clock()
            for _ in range(n):
                wrapped()
            total = _clock() - t0
            measured = self._stack[0][0]
            outer = min(outer, (total - measured) / n)
            inner = min(inner, (measured - direct) / n)
        self._stack[0][0] = 0.0
        self.self_s.clear()
        return max(outer, 0.0), max(inner, 0.0)

    def _patch(self, owner: object, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, owner: object, name: str, layer: str, count: str | None = None,
              sample: str | None = None) -> None:
        self._patch(owner, name, self._span(getattr(owner, name), layer, count, sample))

    # ------------------------------------------------------------------
    def _dispatch_key(self, callback: Callable[..., Any]) -> tuple[str, str | None]:
        target: Any = callback
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, PeriodicProcess):
            target = owner._callback
        while isinstance(target, functools.partial):
            target = target.func
        func = getattr(target, "__func__", target)
        code = getattr(func, "__code__", func)
        key = self._dispatch_keys.get(code)
        if key is None:
            module = getattr(func, "__module__", None) or ""
            qualname = getattr(func, "__qualname__", "")
            key = (layer_of(module), _TICK_COUNTS.get(qualname))
            self._dispatch_keys[code] = key
        return key

    def _traced_callback(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        # Bound methods compare equal per (instance, function), so a
        # server's completion callback is wrapped once, not per event.
        traced = self._traced.get(callback)
        if traced is None:
            layer, tick = self._dispatch_key(callback)
            traced = self._span(callback, layer, tick, tick, also="sim.events")
            self._traced[callback] = traced
        return traced

    def install(self) -> None:
        """Swap the program's entry points for traced wrappers."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        schedule = Simulator.schedule
        traced_callback = self._traced_callback

        def schedule_traced(sim, time, callback, *args, **kwargs):
            return schedule(sim, time, traced_callback(callback), *args, **kwargs)

        self._patch(Simulator, "schedule", self._span(schedule_traced, "sim"))
        self._wrap(Simulator, "reschedule", "sim", "sim.reschedules")
        self._wrap(Simulator, "rearm", "sim")
        self._patch(Simulator, "run", self._run_wrapper(Simulator.run))

        self._wrap(NTierApplication, "submit", "ntier", "ntier.submits")
        self._wrap(Server, "admit", "ntier", "ntier.admits")
        self._wrap(WorkloadMix, "sample_interaction", "workload", "workload.draws",
                   "workload.draw")
        self._wrap(RequestFactory, "create", "workload", "workload.creates")
        self._patch(OptimalConcurrencyEstimator, "estimate_tier",
                    self._estimate_wrapper(OptimalConcurrencyEstimator.estimate_tier))
        self._patch(ControlBus, "publish", self._publish_wrapper(ControlBus.publish))
        self._wrap(ResultCache, "store", "experiments", "experiments.cache.stores",
                   "experiments.cache.store")
        self._patch(ResultCache, "load", self._load_wrapper(ResultCache.load))
        self._wrap(RunArtifact, "signature", "experiments", None,
                   "experiments.signature")
        self._patch(runner_mod, "execute_spec",
                    self._execute_wrapper(runner_mod.execute_spec))

    def uninstall(self) -> None:
        """Put the original entry points back and drop wrapped callbacks."""
        self._traced.clear()
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    def _run_wrapper(self, run: Callable[..., Any]) -> Callable[..., Any]:
        traced = self._span(run, "sim")
        tracer = self

        def run_wrapper(*args: Any, **kwargs: Any) -> Any:
            spec = tracer._spec
            if spec is not None and spec[1] < 0:
                spec[1] = _clock()
            try:
                return traced(*args, **kwargs)
            finally:
                if spec is not None:
                    spec[2] = _clock()

        return run_wrapper

    def _execute_wrapper(self, execute: Callable[..., Any]) -> Callable[..., Any]:
        traced = self._span(execute, "experiments")
        tracer = self

        def execute_wrapper(*args: Any, **kwargs: Any) -> Any:
            outer = tracer._spec
            spec = tracer._spec = [_clock(), -1.0, -1.0]
            try:
                return traced(*args, **kwargs)
            finally:
                end = _clock()
                tracer._spec = outer
                if spec[1] >= 0:
                    tracer.build_s += spec[1] - spec[0]
                    tracer.extract_s += end - spec[2]

        return execute_wrapper

    def _estimate_wrapper(self, estimate: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts

        def checked(*args: Any, **kwargs: Any) -> Any:
            result = estimate(*args, **kwargs)
            if result is None:
                counts["sct.failures"] += 1
            return result

        return self._span(checked, "sct", "sct.estimates", "sct.estimate")

    def _publish_wrapper(self, publish: Callable[..., Any]) -> Callable[..., Any]:
        counts = self.counts
        traced = self._span(publish, "control", "control.publishes")

        def publish_wrapper(bus: ControlBus, event: object) -> None:
            if getattr(event, "kind", None) in MODE_KINDS:
                counts["sim.governor.switches"] += 1
            traced(bus, event)

        return publish_wrapper

    def _load_wrapper(self, load: Callable[..., Any]) -> Callable[..., Any]:
        stack, self_s, counts, samples = (
            self._stack, self.self_s, self.counts, self.samples
        )
        outer, inner = self.span_cost

        def load_wrapper(cache: ResultCache, key: str) -> Any:
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            result = None
            try:
                result = load(cache, key)
                return result
            finally:
                dur = _clock() - t0
                stack.pop()
                stack[-1][0] += dur + outer
                self_s["experiments"] += dur - inner - frame[0]
                if result is not None:  # misses are not loads
                    counts["experiments.cache.loads"] += 1
                    samples["experiments.cache.load"].append(dur)

        return load_wrapper

    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of everything traced so far."""
        c, s, smp = self.counts, self.self_s, self.samples

        def per(total: float, n: int, scale: float) -> float:
            return total / n * scale if n else 0.0

        return {
            "sim.events": (c["sim.events"], "count"),
            "sim.reschedules": (c["sim.reschedules"], "count"),
            "sim.self_s": (s["sim"], "s"),
            "sim.ns_per_event": (per(s["sim"], c["sim.events"], 1e9), "ns"),
            "ntier.submits": (c["ntier.submits"], "count"),
            "ntier.admits": (c["ntier.admits"], "count"),
            "ntier.self_s": (s["ntier"], "s"),
            "ntier.us_per_request": (per(s["ntier"], c["ntier.submits"], 1e6), "us"),
            "workload.draws": (c["workload.draws"], "count"),
            "workload.creates": (c["workload.creates"], "count"),
            "workload.draw_us.p50": (_quantile(smp["workload.draw"], 50) * 1e6, "us"),
            "workload.draw_us.p99": (_quantile(smp["workload.draw"], 99) * 1e6, "us"),
            "workload.self_s": (s["workload"], "s"),
            "monitoring.collections": (c["monitoring.collections"], "count"),
            "monitoring.us_per_collection": (
                _mean(smp["monitoring.collections"]) * 1e6, "us"),
            "monitoring.self_s": (s["monitoring"], "s"),
            "sct.estimates": (c["sct.estimates"], "count"),
            "sct.failures": (c["sct.failures"], "count"),
            "sct.estimate_us.p50": (_quantile(smp["sct.estimate"], 50) * 1e6, "us"),
            "sct.estimate_us.p99": (_quantile(smp["sct.estimate"], 99) * 1e6, "us"),
            "sct.self_s": (s["sct"], "s"),
            "sim.fluid.steps": (c["sim.fluid.steps"], "count"),
            "sim.fluid.us_per_step": (_mean(smp["sim.fluid.steps"]) * 1e6, "us"),
            "sim.fluid.self_s": (s["sim.fluid"], "s"),
            "sim.governor.switches": (c["sim.governor.switches"], "count"),
            "scaling.adapts": (c["scaling.adapts"], "count"),
            "scaling.self_s": (s["scaling"], "s"),
            "control.publishes": (c["control.publishes"], "count"),
            "experiments.build_s": (self.build_s, "s"),
            "experiments.extract_s": (self.extract_s, "s"),
            "experiments.signature_ms": (
                _mean(smp["experiments.signature"]) * 1e3, "ms"),
            "experiments.cache.stores": (c["experiments.cache.stores"], "count"),
            "experiments.cache.loads": (c["experiments.cache.loads"], "count"),
            "experiments.cache.store_ms": (
                _mean(smp["experiments.cache.store"]) * 1e3, "ms"),
            "experiments.cache.load_ms": (
                _mean(smp["experiments.cache.load"]) * 1e3, "ms"),
        }
