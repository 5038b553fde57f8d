"""How fast the host runs while a step is being timed.

On a shared host the speed a process gets drifts by tens of percent
within seconds. While a step is timed, :class:`SpeedSampler` times a
fixed micro-load every ``INTERVAL_S`` from a ``SIGALRM`` handler, in
the same process, on the same CPU and in the same interval as the step.
The step's time is then scaled to a host on which the micro-load takes
``NOMINAL_S``:

    scaled = measured * mean(NOMINAL_S / sample)

that is, by the mean sampled speed relative to the nominal one. The
micro-load shares no code with the program, so a change to the program
moves only the measured side. The plain ratio is used because no other
exponent fits every workload. Regressing log pass time on log sampled
speed gave 0.69 and 0.79 on closed-sweep, 1.08 on hybrid-steady and
1.18 on table1-grid. With the ratio, the pass-to-pass coefficient of
variation fell from 0.17-0.19 to 0.06-0.08 on closed-sweep, from 0.15 to
0.03 on hybrid-steady and from 0.16 to 0.04 on table1-grid.
"""

from __future__ import annotations

import signal
import statistics
import time
from types import FrameType
from typing import Any

#: Wall-clock seconds between samples.
INTERVAL_S = 0.005
#: Micro-load time defining the nominal host (about the median seen on
#: the host the benchmark was tuned on).
NOMINAL_S = 20e-6
_LOOPS = 300


def _micro_load_s() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(_LOOPS):
        x += i & 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples host speed from a signal handler while it is entered.

    Each ``with`` block starts a new set of samples; :meth:`scale` gives
    the factor for the step timed inside the last block.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous: Any = None

    def _sample(self, signum: int, frame: FrameType | None) -> None:
        self.samples.append(_micro_load_s())

    def __enter__(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Mean sampled speed over the nominal one, for the last block;
        1.0 when the block was too short to be sampled."""
        if not self.samples:
            return 1.0
        return statistics.fmean(NOMINAL_S / s for s in self.samples)
