"""Host-speed calibrated timing.

The benchmark shares its host with other tenants, whose load moves the
host's speed: the same fixed loop takes anywhere from 17 to 25 ms from one
2-second window to the next.  A throughput or set-up time measured on such
a host moves with its neighbours.  So every timed chunk of work is preceded
by a fixed reference kernel, and the chunk's wall time is rescaled to a host
on which the kernel takes exactly ``REFERENCE_S`` (using a moving median of
the recent kernel times, which smooths the kernel's own jitter).
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

#: Nominal duration of the reference kernel, in seconds.
REFERENCE_S = 0.002
#: Kernel samples in the moving median that estimates the host's speed.
REFERENCE_WINDOW = 5


def reference_kernel() -> int:
    """A fixed slice of interpreter work like the simulator's own: heap
    operations, dict updates, float arithmetic and small objects."""
    heap: List[Tuple[float, int]] = []
    counts: Dict[int, float] = {}
    value = 0.5
    for index in range(1600):
        value = (value * 3.9) % 1.0
        heapq.heappush(heap, (value, index))
        counts[index % 61] = counts.get(index % 61, 0.0) + value
    total = 0
    while heap:
        total += heapq.heappop(heap)[1]
    return total + len(counts)


class CalibratedTimer:
    """Times chunks of work, each beside a reference-kernel run."""

    def __init__(self) -> None:
        #: ``(chunk wall seconds, kernel wall seconds)`` per chunk.
        self.samples: List[Tuple[float, float]] = []

    def time(self, fn: Callable, *args: Any) -> Any:
        """Run ``fn(*args)`` as one timed chunk; return its result."""
        clock = time.perf_counter
        start = clock()
        reference_kernel()
        middle = clock()
        try:
            return fn(*args)
        finally:
            self.samples.append((clock() - middle, middle - start))

    @property
    def wall_s(self) -> float:
        """Wall seconds spent in the chunks."""
        return wall_s(self.samples)

    @property
    def calibrated_s(self) -> float:
        """The chunks' time on a host where the kernel takes REFERENCE_S."""
        return calibrated_s(self.samples)


def wall_s(samples: List[Tuple[float, float]]) -> float:
    """Wall seconds of ``(chunk, kernel)`` samples' chunks."""
    return sum(chunk for chunk, _ in samples)


def calibrated_s(samples: List[Tuple[float, float]]) -> float:
    """Seconds the samples' chunks would take on a host where the
    reference kernel takes ``REFERENCE_S``."""
    kernels = [kernel for _, kernel in samples]
    total = 0.0
    for index, (chunk, _) in enumerate(samples):
        window = kernels[max(0, index - REFERENCE_WINDOW + 1):index + 1]
        total += chunk * REFERENCE_S / statistics.median(window)
    return total
