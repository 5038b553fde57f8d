"""Tie-order race detection: the discrete-event analogue of TSan.

The simulator executes same-timestamp events in (priority, schedule
order). Events sharing a (time, priority) pair are *concurrent*: the
model makes no promise about their relative order, so no observable
state may depend on it. A component that breaks that contract — say, a
sampler at model priority reading a counter that a same-instant launch
completion increments — produces results that hang on a scheduling
accident, exactly the "environment nondeterminism" the repo's
bit-reproducibility contract exists to exclude.

:func:`run_race_check` executes one :class:`RunSpec` twice, once under
the canonical FIFO tie-break and once with every concurrent batch
reversed (``Simulator(tie_order="reverse")``), then compares every
observable surface of the two artifacts:

* **request records** — arrival/completion/latency/interaction arrays
  plus the generated/completed/failed/retried counters;
* **decision trace** — the control-bus event stream, compared as a
  multiset *within* each timestamp (the relative order of concurrent
  bus events is itself the tie-break under test, but the set of
  decisions and every field on them must match);
* **warehouse series** — per-tier CPU aggregates and the fine-grained
  per-server samples;
* **VM timelines** and SCT estimate histories;
* **resilience summary** (fault runs).

Any divergence raises :class:`~repro.errors.TieOrderRaceError` naming
the diverging surfaces. Both runs bypass the result cache — a permuted
run must never be published under the spec's digest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.control.trace import DecisionTrace
from repro.errors import TieOrderRaceError
from repro.experiments.artifact import RunArtifact, RunSpec, content_digest
from repro.experiments.runner import execute_spec
from repro.sim.engine import Simulator

__all__ = ["RaceCheckReport", "observable_digests", "run_race_check"]


@dataclass(frozen=True)
class RaceCheckReport:
    """Outcome of one tie-order race check (a clean one — divergence
    raises instead)."""

    spec_digest: str
    #: Concurrent same-(time, priority) batches the permuted run reversed.
    tie_batches: int
    #: Events executed inside those batches.
    tie_events: int
    #: Total events executed by the permuted run.
    events_executed: int

    def describe(self) -> str:
        return (
            f"race check clean: {self.tie_batches} concurrent batch(es) "
            f"({self.tie_events} events of {self.events_executed}) replayed "
            "in reversed tie-break order with no observable divergence"
        )


def _trace_multiset_key(trace: DecisionTrace) -> tuple:
    """The trace with concurrent events canonicalised.

    Events are sorted within equal timestamps by their full field tuple,
    so two traces compare equal iff they carry the same *multiset* of
    events at every instant — which is exactly the observable guarantee
    once intra-instant order is declared a scheduling accident.
    """
    keyed = [
        (e.time, e.kind, e.tier, repr(e.value), e.detail, e.source, e.reason,
         repr(e.estimate))
        for e in trace
    ]
    return tuple(sorted(keyed))


def observable_digests(artifact: RunArtifact) -> dict[str, str]:
    """Content digests of every observable surface of a run."""
    return {
        "request records": content_digest(
            (
                artifact.arrival_times,
                artifact.completion_times,
                artifact.latencies,
                artifact.interactions,
                artifact.generated,
                artifact.completed,
                artifact.failed,
                artifact.retried,
            )
        ),
        "decision trace": content_digest(_trace_multiset_key(artifact.actions)),
        "vm timeline": content_digest(
            (artifact.vm_times, artifact.vm_counts, artifact.vm_counts_by_tier)
        ),
        "warehouse series": content_digest(
            (
                artifact.cpu_series,
                [
                    (s.server, s.tier, s.t_end, s.concurrency, s.throughput,
                     s.response_time, s.completions)
                    for _, s in sorted(artifact.fine_series.items())
                ],
            )
        ),
        "sct estimates": content_digest(
            [
                (t, e.time, e.optimal, e.q_upper, e.actionable)
                for t, hist in sorted(artifact.estimates.items())
                for e in hist
            ]
        ),
        "resilience summary": content_digest(artifact.resilience),
    }


def diverging_surfaces(
    canonical: RunArtifact, permuted: RunArtifact
) -> tuple[str, ...]:
    """Names of observable surfaces that differ between two runs."""
    a = observable_digests(canonical)
    b = observable_digests(permuted)
    return tuple(name for name in a if a[name] != b[name])


def run_race_check(spec: RunSpec) -> RaceCheckReport:
    """Execute ``spec`` under both tie-break orders and compare.

    Returns a :class:`RaceCheckReport` when every observable matches;
    raises :class:`TieOrderRaceError` naming the diverging surfaces
    otherwise. Cache-bypassing by construction: both runs call
    :func:`~repro.experiments.runner.execute_spec` directly.
    """
    canonical = execute_spec(spec)
    permuted_sim = Simulator(tie_order="reverse")
    permuted = execute_spec(spec, sim=permuted_sim)
    divergent = diverging_surfaces(canonical, permuted)
    if divergent:
        raise TieOrderRaceError(
            f"tie-order race in {spec.label}: observable state depends on "
            f"the execution order of concurrent events — diverging "
            f"surface(s): {', '.join(divergent)} "
            f"({permuted_sim.tie_batches} concurrent batch(es) permuted)"
        )
    return RaceCheckReport(
        spec_digest=spec.digest(),
        tie_batches=permuted_sim.tie_batches,
        tie_events=permuted_sim.tie_events,
        events_executed=permuted_sim.events_executed,
    )
