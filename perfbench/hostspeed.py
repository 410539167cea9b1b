"""Host speed sampled in the benchmark's own thread, to take contention out
of its timings.

Other tenants of a shared host slow every instruction of this process by 30
to 100 %, in bursts that change within a second and last up to minutes. The
slowdown shows in CPU time as much as in wall time, so it cannot be
subtracted as waiting. While the sampler is on, a timer signal every
``INTERVAL_S`` runs a fixed pure-Python kernel between two bytecodes of the
program and records how long the kernel took. The kernel then runs under the
same contention as the code around it. An interval's time at reference
speed is the sum over its ``SLICE_S`` slices of each slice's wall time, less
the kernel runs inside it, scaled by ``REF_KERNEL_S`` over the kernels'
trimmed mean in that slice. Contention changes within a second, so slices
track it more closely than one mean over a whole round.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

#: seconds between kernel runs; a kernel costs under 1 % of this
INTERVAL_S = 0.01
#: the reference speed that times are quoted at: about the kernel's trimmed
#: mean on a lightly loaded 2-vCPU Intel Xeon guest under Python 3.11
REF_KERNEL_S = 75e-6
#: share of kernel samples dropped at each end before averaging
TRIM = 0.1
#: slice length; a slice with fewer than MIN_SLICE_SAMPLES kernel runs (one
#: inside a long numpy call) takes the whole interval's mean instead
SLICE_S = 0.25
MIN_SLICE_SAMPLES = 6


def kernel() -> int:
    """Dict and integer work like the package's sparse engine, ~75 us."""
    table: dict[int, int] = {}
    for i in range(300):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) ^ (key >> 3)
    return len(table)


class HostSpeed:
    """Kernel timings taken on a timer while on; ``normalise`` converts the
    wall time of an interval that lay inside the sampling period."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalise(self, start: float, end: float) -> float:
        """Seconds at reference speed of the ``perf_counter`` interval
        [start, end]."""
        inside = [(t, dt) for t, dt in self.samples if start <= t < end]
        if not inside:
            raise RuntimeError(f"no host-speed sample in a {end - start:.3g} s interval")
        whole = _trimmed_mean([dt for _, dt in inside])
        n_slices = max(1, math.ceil((end - start) / SLICE_S))
        slices: list[list[float]] = [[] for _ in range(n_slices)]
        for t, dt in inside:
            slices[min(int((t - start) / SLICE_S), n_slices - 1)].append(dt)
        total = 0.0
        for k, dts in enumerate(slices):
            wall = min(end, start + (k + 1) * SLICE_S) - (start + k * SLICE_S)
            speed = _trimmed_mean(dts) if len(dts) >= MIN_SLICE_SAMPLES else whole
            total += (wall - sum(dts)) * REF_KERNEL_S / speed
        return total

    def slowdown(self) -> float:
        """The kernel's trimmed mean over all samples, over the reference."""
        return _trimmed_mean([dt for _, dt in self.samples]) / REF_KERNEL_S


def _trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut : len(values) - cut])
