"""Host timing in nominal seconds, steadied by interleaved calibration samples.

The machines this benchmark runs on share cores with other tenants, and
their speed swings by up to 1.6x, often several times a second.  Raw wall
time therefore spreads far more between runs than any change worth gating.
While a region is timed, an interval timer interrupts it every
``SAMPLE_PERIOD_S`` to run a short, fixed pure-Python calibration loop (no
repo code, so no change under test can speed it up).  The samples' own time
is subtracted from the region, and the region is converted to nominal
seconds: its wall time times ``NOMINAL_LOOP_S`` over the mean sampled time
per loop iteration.  Samples spread through the region see the same fast
and slow phases it does, so the ratio holds steady where raw time does not.
A reported second is a second on a machine that runs the loop at
``NOMINAL_LOOP_S`` per iteration.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable

SAMPLE_LOOPS = 2_000
SAMPLE_PERIOD_S = 0.05
NOMINAL_LOOP_S = 1e-6


def calibration_loop(loops: int) -> float:
    """Run ``loops`` iterations of the calibration loop; return its wall seconds.

    Dict stores, small tuples, string formatting and a bounded heap: the same
    interpreter-bound mix the simulators spend their time on.
    """
    start = time.perf_counter()
    table: dict[int, tuple[int, str]] = {}
    heap: list[tuple[int, int]] = []
    for i in range(loops):
        table[i % 1000] = (i, str(i))
        heapq.heappush(heap, (i * 7919 % 1009, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Timed:
    """A timed call: its result, nominal seconds, and the wall-to-nominal scale."""

    result: Any
    seconds: float
    scale: float


class Clock:
    """Times calls in nominal seconds.

    Args:
        interleave: Sample inside timed regions (default).  Without it, a
            region is normalized by samples at its two edges only; the
            layer-timed run uses that, so no sample lands inside a layer's
            span.

    Attributes:
        samples: Wall seconds of every calibration sample taken, in order.
    """

    def __init__(self, interleave: bool = True) -> None:
        self.interleave = interleave
        self.samples: list[float] = []
        self._inside = 0.0

    def sample(self) -> None:
        """Take one calibration sample (with the garbage collector paused)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            elapsed = calibration_loop(SAMPLE_LOOPS)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        self._inside += elapsed

    def scale(self, first: int, last: int | None = None) -> float:
        """Wall-to-nominal factor from ``samples[first:last]``."""
        taken = self.samples[first:last]
        return SAMPLE_LOOPS * NOMINAL_LOOP_S * len(taken) / sum(taken)

    def measure(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Timed:
        """Call ``fn`` and time it in nominal seconds (not re-entrant).

        Garbage left by earlier calls is collected first, outside the region.
        Samples taken inside the region, also by :meth:`sample` calls from
        ``fn``, are subtracted from it.
        """
        gc.collect()
        edge = 1 if self.interleave else 10
        first = len(self.samples)
        for _ in range(edge):
            self.sample()
        self._inside = 0.0
        if self.interleave:
            previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start - self._inside
            if self.interleave:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        for _ in range(edge):
            self.sample()
        scale = self.scale(first)
        return Timed(result, wall * scale, scale)
