"""Host-speed gauge: reference kernels timed next to the measured work.

On a shared host, other tenants slow every process down by a factor that
drifts over seconds to minutes (up to 2x on a 2-vCPU Xeon), and a run of
20 s cannot average that away.  The benchmark therefore times a fixed
reference kernel before and after every round of calls and every set-up,
and divides the measured time by the kernel's slowdown against its
reference time.  The result is the time the work would take on the
reference host running at its usual speed; both the normalised and the raw
figures are reported.

Each workload names the kernel that resembles its own work: ``"python"``
(interpreter-bound heap and dict churn, like the serving event loop) or
``"numpy"`` (elementwise array work and a GEMM, like the datapath models).
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np


def python_kernel() -> float:
    """Heap pushes and pops with dict updates, in pure Python."""
    rng = random.Random(0)
    heap: list[tuple[float, int]] = []
    totals: dict[int, float] = {}
    for i in range(20_000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            value, key = heapq.heappop(heap)
            totals[key % 97] = totals.get(key % 97, 0.0) + value
    return sum(totals.values())


_X = np.random.default_rng(0).standard_normal((256, 512))
_W = np.random.default_rng(1).standard_normal((512, 256))


def numpy_kernel() -> float:
    """Elementwise exp, quantisation and a 256x512x256 GEMM, in NumPy."""
    total = 0.0
    for _ in range(5):
        total += float((np.exp(-np.abs(_X)) @ _W).sum())
        total += float(np.round(_X * 7.3).clip(-30, 30).sum())
    return total


#: Kernel and its reference time in seconds: the kernel's fast-end time on a
#: 2-vCPU Xeon (Sapphire Rapids, 2.1 GHz) with one BLAS thread.  The values
#: only set the scale: normalised times read as seconds on that host.
KERNELS = {
    "python": (python_kernel, 0.018),
    "numpy": (numpy_kernel, 0.016),
}


class HostGauge:
    """Slowdown of the host against the reference, sampled on demand."""

    def __init__(self, kind: str) -> None:
        self.kernel, self.reference_s = KERNELS[kind]
        self.samples: list[float] = []
        self.kernel()  # warm-up: the first run pays for cold caches

    def sample(self) -> float:
        """Time the kernel once; return its slowdown against the reference."""
        t0 = time.perf_counter()
        self.kernel()
        slowdown = (time.perf_counter() - t0) / self.reference_s
        self.samples.append(slowdown)
        return slowdown
