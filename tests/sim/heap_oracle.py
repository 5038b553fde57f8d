"""Reference oracle: the single lazy-deletion heap calendar.

The simulator keeps its pending events in a two-level slotted wheel
(:class:`repro.sim.calendar.WheelCalendar`), which must execute events
in exactly the order one binary heap over ``(time, priority, seq)``
would. This module keeps that heap: :class:`HeapCalendar` is the
calendar the wheel replaced, and :class:`HeapSimulator` is a
:class:`~repro.sim.engine.Simulator` that runs on it, with the classic
one-heap FIFO loop. Tests run programs and whole run specs on both and
require identical traces and artifact signatures.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro.sim.calendar import Entry
from repro.sim.engine import Simulator
from repro.sim.event import EventHandle

__all__ = ["HeapCalendar", "HeapSimulator", "SIMULATORS"]

_INF = float("inf")


class HeapCalendar:
    """A single lazy-deletion binary heap over ``Entry`` tuples."""

    kind = "heap"

    __slots__ = ("entries", "dead", "compactions")

    def __init__(self) -> None:
        #: The heap itself (also the full pending set).
        self.entries: list[Entry] = []
        #: Cancelled entries still stored (lazy deletion debt).
        self.dead = 0
        #: Number of compaction rebuilds performed.
        self.compactions = 0

    def __len__(self) -> int:
        """Stored entries, including cancelled ones awaiting discard."""
        return len(self.entries)

    def slot_of(self, time: float) -> int:
        """The heap has no slots; ``peek`` ignores the limit index."""
        return 0

    # ------------------------------------------------------------------
    def push(self, handle: EventHandle) -> None:
        """Insert one pending handle (keyed off its current fields)."""
        heappush(self.entries, (handle.time, handle.priority, handle.seq, handle))

    def move(self, handle: EventHandle, new_time: float, seq: int) -> bool:
        """In-place relocation is impossible inside a heap: always False."""
        return False

    # ------------------------------------------------------------------
    def peek(self, limit_idx: int) -> Entry | None:
        """The earliest live entry, or None when drained.

        Cancelled heads are discarded as they are encountered
        (``limit_idx`` is a wheel concept and is ignored here).
        """
        entries = self.entries
        while entries:
            head = entries[0]
            handle = head[3]
            if handle.cancelled:
                heappop(entries)
                handle.done = True
                self.dead -= 1
                continue
            return head
        return None

    def pop(self) -> Entry:
        """Remove and return the head entry (call :meth:`peek` first)."""
        return heappop(self.entries)

    # ------------------------------------------------------------------
    def compact(self) -> None:
        """Drop every cancelled entry and re-heapify in place."""
        live: list[Entry] = []
        for entry in self.entries:
            handle = entry[3]
            if handle.cancelled:
                handle.done = True
            else:
                live.append(entry)
        self.entries[:] = live
        heapify(self.entries)
        self.dead = 0
        self.compactions += 1

    def stats(self) -> dict[str, int]:
        """Occupancy counters (debugging / benchmarks)."""
        return {
            "stored": len(self.entries),
            "dead": self.dead,
            "compactions": self.compactions,
        }


class HeapSimulator(Simulator):
    """A :class:`Simulator` whose pending events live in one heap."""

    def __init__(self, start_time: float = 0.0, *, tie_order: str = "fifo") -> None:
        super().__init__(start_time, tie_order=tie_order)
        self._cal = HeapCalendar()  # type: ignore[assignment]

    def _run_fifo(self, until: float | None, max_events: int | None) -> None:
        """The classic hot loop: one event at a time, strict heap order."""
        cal = self._cal
        budget = max_events if max_events is not None else -1
        until_v = _INF if until is None else until
        heap = cal.entries
        while heap and not self._stopped:
            entry = heap[0]
            handle = entry[3]
            if handle.cancelled:
                heappop(heap)
                handle.done = True
                cal.dead -= 1
                continue
            time = entry[0]
            if time > until_v:
                break
            heappop(heap)
            handle.done = True
            self._live -= 1
            self._now = time
            handle.callback(*handle.args)
            self._executed += 1
            budget -= 1
            if budget == 0:
                break


#: The simulator under test and its heap oracle, by calendar name.
SIMULATORS: dict[str, type[Simulator]] = {"wheel": Simulator, "heap": HeapSimulator}
