"""Fluid-equivalence harness: hybrid vs discrete, statistically.

The counterpart of :mod:`repro.experiments.racecheck` for the
flow-model axis (:mod:`repro.sim.flowmodel`). The tie-order contract is
byte-identity — the fluid contract cannot be: the
:class:`~repro.sim.fluid.FluidStepper` is an aggregate approximation by
design. What a hybrid run *must* preserve:

* **request conservation** — every generated request is completed,
  failed, or still in flight at the horizon, across any number of
  discrete/fluid mode switches (the stepper's integer ledger plus the
  governor's re-materialisation make this exact, not statistical);
* **mode accounting** — every fluid phase is bracketed by
  ``mode_fluid_entered`` / ``mode_discrete_entered`` decision events on
  the control bus;
* **statistical equivalence** — completed-request throughput and the
  p50/p95/p99 tail of the latency distribution stay inside a calibrated
  tolerance band around the ``mode="discrete"`` twin of the same spec
  (same seed, same trace, same controller).

Any violation raises :class:`~repro.errors.FluidDivergenceError` naming
the surface and the measured gap. :func:`default_fluid_specs` builds
the CI sweep: a steady trace where the governor spends most of the run
fluid, a bursty built-in shape exercising the trace-derivative trigger,
and a faulted storyline exercising the fault-window guard.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from repro.control.events import MODE_KINDS
from repro.errors import ConfigurationError, FluidDivergenceError
from repro.experiments.artifact import RunArtifact, RunSpec
from repro.experiments.runner import execute_spec
from repro.experiments.scenarios import ScenarioConfig
from repro.faults.plan import FaultPlan, ServerCrashSpec
from repro.workload.trace import Trace

__all__ = [
    "FluidCheckReport",
    "run_fluid_check",
    "default_fluid_specs",
    "run_fluid_suite",
    "steady_trace_csv",
]

#: Relative tolerance on completed-request throughput (hybrid vs twin).
THROUGHPUT_TOL = 0.05
#: Relative tolerances on the latency percentiles. Looser toward the
#: tail: the fluid phases draw latencies from the stationary model, so
#: extreme order statistics carry the most approximation error.
PERCENTILE_TOLS = ((50, 0.35), (95, 0.40), (99, 0.50))
#: Absolute slack (base-scale seconds) under which a percentile gap is
#: never a divergence — short runs quantise tails onto few samples.
PERCENTILE_FLOOR = 0.025


@dataclass(frozen=True)
class FluidCheckReport:
    """Outcome of one clean hybrid-vs-discrete comparison."""

    spec_digest: str
    #: Fluid phases entered by the governor (0 in pinned-fluid runs).
    fluid_entries: int
    #: Requests handed back to the discrete machinery at mode switches.
    materialised: int
    #: (hybrid, discrete) completed-request counts.
    completed: tuple[int, int]
    #: Percentile pairs ``{q: (hybrid_s, discrete_s)}`` (base-scale).
    percentiles: dict[int, tuple[float, float]]

    def describe(self) -> str:
        pairs = ", ".join(
            f"p{q} {h * 1000:.1f}/{d * 1000:.1f}ms"
            for q, (h, d) in sorted(self.percentiles.items())
        )
        return (
            f"fluid equivalence ok: {self.fluid_entries} fluid phase(s), "
            f"{self.materialised} request(s) re-materialised, "
            f"completed {self.completed[0]}/{self.completed[1]}, {pairs}"
        )


def _mode_accounting(artifact: RunArtifact) -> tuple[int, int]:
    """(fluid entries, total re-materialised requests) from the trace."""
    entered, materialised = 0, 0
    for event in artifact.actions:
        if event.kind == MODE_KINDS[0]:
            entered += 1
        elif event.kind == MODE_KINDS[1]:
            materialised += int(event.value or 0)
    return entered, materialised


def run_fluid_check(
    spec: RunSpec, *, require_fluid: bool = True
) -> FluidCheckReport:
    """Execute ``spec`` and its discrete twin; compare statistically.

    ``spec`` must name a ``fluid`` or ``hybrid`` scenario; the twin is
    the same spec with ``mode="discrete"``. Returns a
    :class:`FluidCheckReport` when every surface is inside tolerance;
    raises :class:`~repro.errors.FluidDivergenceError` naming the
    offending surface otherwise. Both runs bypass the result cache.

    ``require_fluid`` additionally fails hybrid runs in which the
    governor never entered a fluid phase — a trivially-passing check
    would hide a dead integrator.
    """
    config = spec.config
    if config.mode == "discrete":
        raise ConfigurationError(
            "run_fluid_check needs a fluid or hybrid spec; got mode='discrete'"
        )
    twin = RunSpec(
        spec.framework,
        config.with_(mode="discrete"),
        spec.overrides,
        spec.faults,
    )
    fluid_run = execute_spec(spec)
    discrete_run = execute_spec(twin)

    in_flight = fluid_run.generated - fluid_run.completed - fluid_run.failed
    if in_flight < 0:
        raise FluidDivergenceError(
            f"request conservation violated in {spec.label}: "
            f"generated={fluid_run.generated} < completed="
            f"{fluid_run.completed} + failed={fluid_run.failed}"
        )
    entered, materialised = _mode_accounting(fluid_run)
    if config.mode == "hybrid" and require_fluid and entered == 0:
        raise FluidDivergenceError(
            f"hybrid run {spec.label} never entered a fluid phase; the "
            "check would be vacuous (pick a quieter trace or set "
            "require_fluid=False)"
        )

    ratio = fluid_run.completed / max(1, discrete_run.completed)
    if abs(ratio - 1.0) > THROUGHPUT_TOL:
        raise FluidDivergenceError(
            f"throughput divergence in {spec.label}: hybrid completed "
            f"{fluid_run.completed} vs discrete {discrete_run.completed} "
            f"({(ratio - 1.0) * 100:+.1f}%, tolerance "
            f"±{THROUGHPUT_TOL * 100:.0f}%)"
        )

    percentiles: dict[int, tuple[float, float]] = {}
    for q, tol in PERCENTILE_TOLS:
        fluid_q = float(fluid_run.percentile(q))
        discrete_q = float(discrete_run.percentile(q))
        percentiles[q] = (fluid_q, discrete_q)
        slack = max(tol * discrete_q, PERCENTILE_FLOOR)
        if abs(fluid_q - discrete_q) > slack:
            raise FluidDivergenceError(
                f"latency divergence in {spec.label}: p{q} "
                f"{fluid_q * 1000:.1f}ms vs discrete "
                f"{discrete_q * 1000:.1f}ms (allowed "
                f"±{slack * 1000:.1f}ms)"
            )
    return FluidCheckReport(
        spec_digest=spec.digest(),
        fluid_entries=entered,
        materialised=materialised,
        completed=(fluid_run.completed, discrete_run.completed),
        percentiles=percentiles,
    )


def steady_trace_csv(
    directory: str | None = None,
    *,
    users: float = 4000.0,
    duration: float = 300.0,
) -> str:
    """Write (once) and return a constant-load trace CSV path.

    The built-in shapes all tell a bursty story, which is exactly what
    the governor holds *discrete* — the fluid integrator needs a quiet
    phase to earn its keep. A flat trace gives the equivalence suite and
    the perf bench a run that is mostly fluid.
    """
    directory = directory or tempfile.gettempdir()
    path = os.path.join(
        directory, f"repro_steady_{int(users)}_{int(duration)}.csv"
    )
    if not os.path.exists(path):
        knots = np.arange(0.0, duration + 1.0, 5.0)
        Trace("steady", knots, np.full(knots.size, users)).to_csv(path)
    return path


def default_fluid_specs(
    *, duration: float = 300.0, load_scale: float = 300.0
) -> list[RunSpec]:
    """The CI fluid-equivalence sweep.

    Three storylines: a steady run that is mostly fluid (the integrator
    under load, plus the controller-settle trigger), a bursty built-in
    shape (the trace-derivative trigger holds the burst discrete), and
    a faulted steady run (the fault-window guard, crash recovery, and
    re-materialisation around the episode).
    """
    steady = steady_trace_csv(users=4000.0, duration=duration)
    specs = [
        RunSpec(
            framework="conscale",
            config=ScenarioConfig(
                name="fluidequiv-steady", trace_name=steady,
                load_scale=load_scale, duration=duration, seed=11,
                topology=(1, 2, 2), mode="hybrid",
            ),
        ),
        RunSpec(
            framework="conscale",
            config=ScenarioConfig(
                name="fluidequiv-burst", trace_name="big_spike",
                load_scale=load_scale, duration=duration, seed=11,
                topology=(1, 2, 2), mode="hybrid",
            ),
        ),
        RunSpec(
            framework="conscale",
            config=ScenarioConfig(
                name="fluidequiv-faulted", trace_name=steady,
                load_scale=load_scale, duration=duration, seed=11,
                topology=(1, 2, 2), mode="hybrid",
            ),
            faults=FaultPlan(
                (ServerCrashSpec(tier="app", at=duration * 0.5),)
            ),
        ),
    ]
    return specs


def run_fluid_suite(
    specs: list[RunSpec] | None = None,
) -> list[FluidCheckReport]:
    """Run :func:`run_fluid_check` over a spec list (default sweep).

    Fail-fast: the first divergence raises.
    The bursty storyline may legitimately never leave discrete mode, so
    ``require_fluid`` is enforced only on the steady specs (those whose
    scenario name carries ``steady``).
    """
    if specs is None:
        specs = default_fluid_specs()
    return [
        run_fluid_check(
            spec, require_fluid="steady" in spec.config.name
        )
        for spec in specs
    ]
