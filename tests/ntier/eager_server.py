"""Reference oracle: the eager processor-sharing server.

A copy of the server's transition path as it was before same-instant
transitions were coalesced: every admission, phase start, departure,
abort and capacity change advances the credit clock and moves the
completion event on its own, and every completion allocates a fresh
event. ``tests/ntier/test_server_oracle.py`` runs fuzzed programs
against this class and :class:`repro.ntier.server.Server` side by side
and requires bit-identical results. Fluid hand-off and introspection
the fuzz does not use are left out.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SimulationError
from repro.ntier.capacity import CapacityModel
from repro.ntier.pools import FifoPool
from repro.ntier.request import Request, ServerVisit
from repro.ntier.server import ServerConfig
from repro.sim.engine import Simulator
from repro.sim.event import EventHandle

__all__ = ["EagerServer"]


class _ActiveJob:
    """Bookkeeping for one request currently in the PS active set.

    The ordering key lives in the heap entry tuple
    ``(finish_credit, seq, job)`` rather than on the job itself, so
    ``heapq`` compares entirely in C (``seq`` is unique — two jobs are
    never compared).
    """

    __slots__ = ("request", "on_done", "done")

    def __init__(
        self,
        request: Request,
        on_done: Callable[[Request], None],
    ) -> None:
        self.request = request
        self.on_done = on_done
        self.done = False


#: A PS heap entry: ``(finish_credit, seq, job)``.
_JobEntry = tuple[float, int, _ActiveJob]


class EagerServer:
    """The eager PS server: one calendar touch per transition."""

    def __init__(self, sim: Simulator, config: ServerConfig) -> None:
        self.sim = sim
        self.config = config
        self.name = config.name
        self.tier = config.tier
        self.capacity = config.capacity
        self.threads = FifoPool(f"{config.name}.threads", config.thread_limit)

        # --- PS state -------------------------------------------------
        self._credit = 0.0  # shared per-job service credit
        self._heap: list[_JobEntry] = []
        self._active = 0  # live (non-done) jobs in the heap
        self._admitted = 0  # threads held (active + blocked)
        self._seq = 0
        self._last_update = sim.now
        self._rate_per_job = 0.0
        self._completion_event: EventHandle | None = None
        self._visits: dict[int, ServerVisit] = {}
        self._requests: dict[int, Request] = {}

        # --- monotone monitoring accumulators --------------------------
        self.concurrency_integral = 0.0  # ∫ admitted dt
        self.active_integral = 0.0  # ∫ active dt
        self.completions = 0  # requests that fully departed
        self.latency_total = 0.0  # sum of per-server response times
        self.work_completions = 0  # PS phases finished
        self.util_integral: dict[str, float] = {
            r.name: 0.0 for r in self.capacity.resources
        }
        self.arrivals = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def admitted(self) -> int:
        """Current concurrency (requests holding a worker thread)."""
        return self._admitted

    @property
    def active(self) -> int:
        """Requests actively computing (admitted minus blocked)."""
        return self._active

    @property
    def outstanding(self) -> int:
        """Requests admitted plus requests queued for a worker thread —
        what a load balancer's connection count sees."""
        return self._admitted + self.threads.queued

    @property
    def is_idle(self) -> bool:
        """True when no request is admitted, queued, or waiting."""
        return self._admitted == 0 and self.threads.queued == 0

    def utilization(self, resource: str = "cpu") -> float:
        """Instantaneous utilisation of one resource."""
        return self.capacity.utilization(resource, self._active, self._admitted)

    def set_capacity(self, capacity: CapacityModel) -> None:
        """Swap the capacity model at runtime (vertical scaling).

        The PS credit clock is advanced under the old rate first, so
        in-flight requests complete exactly the work they accrued; the
        new rate applies from this instant. Monitoring integrals keyed
        by resource name are preserved for resources common to both
        models and created for new ones.
        """
        self._advance_clock()
        self.capacity = capacity
        for res in capacity.resources:
            self.util_integral.setdefault(res.name, 0.0)
        self._reschedule()

    # ------------------------------------------------------------------
    # request lifecycle
    # ------------------------------------------------------------------
    def admit(self, request: Request, on_admitted: Callable[[Request], None]) -> None:
        """Ask for a worker thread; ``on_admitted`` fires once granted.

        Admission (not queue entry) opens the server visit record, so
        the measured per-server response time excludes upstream pool
        waits — matching a request-processing log on the real server.
        """
        self.threads.acquire(request, lambda req: self._granted(req, on_admitted))

    def _granted(self, request: Request, on_admitted: Callable[[Request], None]) -> None:
        self._advance_clock()
        self._admitted += 1
        self.arrivals += 1
        self._visits[request.req_id] = request.open_visit(self.name, self.sim.now)
        self._requests[request.req_id] = request
        self._reschedule()
        on_admitted(request)

    def work(
        self,
        request: Request,
        demand: float,
        on_done: Callable[[Request], None],
    ) -> None:
        """Run one PS compute phase of ``demand`` work-seconds.

        The request must already be admitted. Requests between phases
        (e.g. a Tomcat thread waiting on MySQL) simply are not in the
        active set; their thread still counts toward the overhead
        penalty via ``admitted``.
        """
        if request.req_id not in self._visits:
            raise SimulationError(
                f"{self.name}: work() for request {request.req_id} "
                "which was never admitted"
            )
        if demand <= 0.0:
            # Zero-cost phase: complete on the next event tick to keep
            # callback depth bounded.
            self.sim.schedule_after(0.0, on_done, request)
            return
        self._advance_clock()
        job = _ActiveJob(request, on_done)
        heapq.heappush(self._heap, (self._credit + demand, self._seq, job))
        self._seq += 1
        self._active += 1
        self._reschedule()

    def release(self, request: Request) -> None:
        """Return the worker thread and close the visit record."""
        visit = self._visits.pop(request.req_id, None)
        if visit is None:
            raise SimulationError(
                f"{self.name}: release() for request {request.req_id} "
                "which is not admitted"
            )
        self._advance_clock()
        self._admitted -= 1
        self._requests.pop(request.req_id, None)
        visit.departure = self.sim.now
        self.completions += 1
        self.latency_total += visit.latency
        self.threads.release()
        self._reschedule()

    def abort(self, request: Request) -> bool:
        """Forcibly evict an admitted request (server crash unwinding).

        The worker thread is returned and the visit closed *without*
        counting a completion or latency sample — the request never
        finished here. Any live PS job is deactivated in place (its heap
        entry is dropped lazily). Returns False when the request is not
        admitted, so callers can fall back to a queue cancel.
        """
        visit = self._visits.pop(request.req_id, None)
        if visit is None:
            return False
        self._advance_clock()
        for entry in self._heap:
            job = entry[2]
            if job.request is request and not job.done:
                job.done = True
                self._active -= 1
                break
        self._admitted -= 1
        self._requests.pop(request.req_id, None)
        visit.departure = self.sim.now
        self.threads.release()
        self._reschedule()
        return True

    def occupants(self) -> list[Request]:
        """Requests currently admitted, in admission order."""
        return list(self._requests.values())

    # ------------------------------------------------------------------
    # PS mechanics
    # ------------------------------------------------------------------
    def _advance_clock(self) -> None:
        """Accrue credit and monitoring integrals up to `sim.now`."""
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0.0:
            if self._active > 0:
                self._credit += dt * self._rate_per_job
            self.concurrency_integral += dt * self._admitted
            self.active_integral += dt * self._active
            if self._active > 0:
                for res in self.capacity.resources:
                    self.util_integral[res.name] += dt * self.capacity.utilization(
                        res.name, self._active, self._admitted
                    )
            self._last_update = now
        elif dt == 0.0:
            self._last_update = now

    def sync_monitors(self) -> None:
        """Bring the monitoring integrals up to the current instant.

        Called by interval monitors before reading the accumulators so
        interval boundaries are exact even when no event fell on them.
        """
        self._advance_clock()

    def _reschedule(self) -> None:
        """Recompute the PS rate and (re)schedule the next completion.

        This fires on *every* admission, departure, phase start, and
        capacity change, so it uses the calendar's reschedule fast path:
        the pending completion event is *moved* to the new time instead
        of being cancelled and replaced (which left a dead tombstone per
        transition), and is kept untouched when the time is unchanged.
        """
        # Drop already-finished heap entries lazily.
        heap = self._heap
        while heap and heap[0][2].done:
            heapq.heappop(heap)
        ev = self._completion_event
        if self._active <= 0:
            self._rate_per_job = 0.0
            if ev is not None:
                ev.cancel()
                self._completion_event = None
            return
        total_rate = self.capacity.work_rate(self._active, self._admitted)
        self._rate_per_job = total_rate / self._active
        if not heap:  # pragma: no cover - defensive, implies bookkeeping bug
            raise SimulationError(f"{self.name}: active={self._active} but heap empty")
        remaining = heap[0][0] - self._credit
        now = self.sim.now
        target = now if remaining <= 0.0 else now + remaining / self._rate_per_job
        if ev is None:
            self._completion_event = self.sim.schedule(target, self._complete)
        elif ev.time != target:
            self._completion_event = self.sim.reschedule(ev, target)

    def _complete(self) -> None:
        """Fire every job whose credit requirement has been met."""
        self._advance_clock()
        self._completion_event = None
        finished: list[_ActiveJob] = []
        heap = self._heap
        # A tiny epsilon absorbs float round-off so a job scheduled to
        # finish exactly now is not left 1e-18 credit short.
        threshold = self._credit + 1e-12
        while heap and (heap[0][2].done or heap[0][0] <= threshold):
            job = heapq.heappop(heap)[2]
            if job.done:
                continue
            job.done = True
            self._active -= 1
            self.work_completions += 1
            finished.append(job)
        self._reschedule()
        for job in finished:
            job.on_done(job.request)
