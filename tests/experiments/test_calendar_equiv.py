"""Run-level calendar equivalence: the wheel against the heap oracle.

Every run spec executes once on the production simulator (wheel
calendar) and once on :class:`tests.sim.heap_oracle.HeapSimulator`,
both bypassing the result cache. The artifact signatures must be
identical: the calendar is a pure performance choice, so any
divergence is an engine bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.artifact import RunSpec
from repro.experiments.racecheck import diverging_surfaces
from repro.experiments.scenarios import ScenarioConfig
from repro.faults.plan import FaultPlan, ServerCrashSpec, TelemetryDropoutSpec
from repro.sim.engine import Simulator
from repro.workload.shapes import TRACE_NAMES
from tests.sim.heap_oracle import HeapSimulator


@dataclass(frozen=True)
class CalendarCheckReport:
    """Outcome of one clean heap-vs-wheel comparison."""

    spec_digest: str
    #: The matching artifact signature both calendars produced.
    signature: str
    #: Events executed (identical for both runs by construction).
    events_executed: int
    #: Wheel-run calendar counters (compactions, lazy-deletion debt...).
    wheel_stats: dict[str, int]


def run_calendar_check(spec: RunSpec) -> CalendarCheckReport:
    """Execute ``spec`` on the heap oracle and on the wheel; compare.

    Fails with an ``AssertionError`` naming every diverging observable
    surface unless the artifact signatures are byte-identical.
    """
    heap_sim = HeapSimulator()
    wheel_sim = Simulator()
    heap_run = runner_mod.execute_spec(spec, sim=heap_sim)
    wheel_run = runner_mod.execute_spec(spec, sim=wheel_sim)
    heap_sig = heap_run.signature()
    wheel_sig = wheel_run.signature()
    if heap_sig != wheel_sig:
        divergent = diverging_surfaces(heap_run, wheel_run)
        names = ", ".join(divergent) if divergent else "artifact metadata"
        raise AssertionError(
            f"calendar divergence in {spec.label}: heap signature "
            f"{heap_sig[:12]}… != wheel signature {wheel_sig[:12]}… — "
            f"diverging surface(s): {names} (heap executed "
            f"{heap_sim.events_executed} events, wheel "
            f"{wheel_sim.events_executed})"
        )
    return CalendarCheckReport(
        spec_digest=spec.digest(),
        signature=wheel_sig,
        events_executed=wheel_sim.events_executed,
        wheel_stats=wheel_sim.calendar_stats(),
    )


def default_equivalence_specs(
    *, duration: float = 40.0, load_scale: float = 300.0
) -> list[RunSpec]:
    """The sweep: every trace shape, plus one faulted run.

    Short, heavily down-scaled runs — the point is path coverage (all
    six built-in arrival shapes through the wheel, plus the crash /
    telemetry-blackout control paths of the fault machinery), not
    statistical fidelity.
    """
    specs = [
        RunSpec(
            framework="conscale",
            config=ScenarioConfig(
                name="calequiv", trace_name=trace,
                load_scale=load_scale, duration=duration, seed=7,
            ),
        )
        for trace in TRACE_NAMES
    ]
    # Two app replicas so the mid-run crash leaves the tier routable.
    faulted = ScenarioConfig(
        name="calequiv-faulted", trace_name="dual_phase",
        load_scale=load_scale, duration=duration, seed=7,
        topology=(1, 2, 1),
    )
    specs.append(
        RunSpec(
            framework="conscale",
            config=faulted,
            faults=FaultPlan(
                (
                    ServerCrashSpec(tier="app", at=duration * 0.3),
                    TelemetryDropoutSpec(at=duration * 0.5, duration=5.0),
                )
            ),
        )
    )
    return specs


def run_equivalence_suite(
    specs: list[RunSpec] | None = None,
) -> list[CalendarCheckReport]:
    """Run :func:`run_calendar_check` over a spec list (default sweep)."""
    if specs is None:
        specs = default_equivalence_specs()
    return [run_calendar_check(spec) for spec in specs]


def _spec(duration: float = 30.0) -> RunSpec:
    return RunSpec(
        framework="conscale",
        config=ScenarioConfig(
            name="calequiv-test", trace_name="dual_phase",
            load_scale=300.0, duration=duration, seed=2,
        ),
    )


def test_clean_check_reports_matching_signature():
    report = run_calendar_check(_spec())
    assert isinstance(report, CalendarCheckReport)
    assert len(report.signature) == 64  # sha256 hex
    assert report.events_executed > 0
    assert "compactions" in report.wheel_stats


def test_report_digest_matches_spec():
    spec = _spec()
    assert run_calendar_check(spec).spec_digest == spec.digest()


def test_divergence_raises_naming_surfaces(monkeypatch):
    """A calendar-dependent observable must be reported as a divergence,
    not silently accepted."""
    real_execute = runner_mod.execute_spec

    def skewed_execute(spec, sim=None):
        result = real_execute(spec, sim=sim)
        if not isinstance(sim, HeapSimulator):
            # Corrupt one observable surface for the wheel run only.
            object.__setattr__(result, "completed", result.completed + 1)
        return result

    monkeypatch.setattr(runner_mod, "execute_spec", skewed_execute)
    with pytest.raises(AssertionError, match="calendar divergence"):
        run_calendar_check(_spec())


def test_default_specs_cover_all_traces_plus_faulted():
    specs = default_equivalence_specs(duration=20.0)
    assert len(specs) == len(TRACE_NAMES) + 1
    assert [s.config.trace_name for s in specs[:-1]] == list(TRACE_NAMES)
    faulted = specs[-1]
    assert faulted.faults is not None and len(faulted.faults.specs) == 2
    # Two app replicas so the mid-run crash leaves the tier routable.
    assert faulted.config.topology == (1, 2, 1)


def test_suite_runs_explicit_spec_list():
    reports = run_equivalence_suite([_spec(20.0)])
    assert len(reports) == 1
    assert reports[0].events_executed > 0


def test_default_sweep_is_clean_at_head():
    """All six trace shapes plus the faulted storyline produce
    byte-identical artifacts on the wheel and on the heap oracle."""
    reports = run_equivalence_suite()
    assert len(reports) == len(TRACE_NAMES) + 1
    assert all(r.events_executed > 0 for r in reports)
    # Distinct scenarios, distinct artifacts — the comparison is not
    # vacuously passing on empty/identical runs.
    assert len({r.signature for r in reports}) == len(reports)
