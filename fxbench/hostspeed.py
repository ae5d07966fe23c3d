"""Host-speed sampling, so that run times can be put on one speed scale.

The shared virtual machines this benchmark runs on switch between speed
modes that last from a second to more than a minute, so a whole invocation
can fall in a slow one, and no hardware counters are exposed. So each timed
region is sampled: a ``SIGALRM`` handler fires every ``INTERVAL_S`` of wall
time, runs ``kernel()``, a fixed interpreter loop, and records how long it
took. The region's time on the reference scale is its wall time less the
time spent in the handler, times ``(REFERENCE_KERNEL_S / k) ** exponent``,
where ``k`` is the trimmed mean of the kernel times. The kernel is
benchmark code, so a change to fxstack moves the region's wall time and not
the scale. README.md ("Host speed") gives the measurements behind the
kernel and the exponents.

The handler runs in the main thread between bytecodes (fxstack is
single-threaded), and Python retries system calls it interrupts.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
# the kernel's time in the fastest mode of the reference host, a shared
# 2-core Xeon VM, with Python 3.11
REFERENCE_KERNEL_S = 2.7e-4
# measured slopes of log(run time) against log(k): 1.26 (trees), 1.43
# (features) and 0.97 (sequence); kept near 1, because a wrong exponent
# biases a comparison made in two host modes
EXPONENT = 1.2
# fresh-interpreter set-up (imports, file reads, unmarshalling) follows the
# host's speed less closely: its slope was 0.74 over 180 probes
SETUP_EXPONENT = 0.75
# share of kernel samples dropped at each end before averaging, so that a
# sample stretched by a page fault or a collection does not skew the scale
TRIM = 0.1
# kernel runs at the start and at the end of a region, outside its timing,
# so that a region shorter than INTERVAL_S still has samples
EDGE_SAMPLES = 3


def kernel() -> int:
    """A fixed amount of interpreter work."""
    acc = 0
    for i in range(5000):
        acc += i * i & 0xFF
    return acc


def trimmed_mean(values: list[float], trim: float = TRIM) -> float:
    values = sorted(values)
    cut = int(len(values) * trim)
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


def to_reference(seconds: float, kernel_samples: list[float],
                 exponent: float = EXPONENT) -> float:
    """``seconds`` measured while the kernel took ``kernel_samples``, put
    on the reference speed scale."""
    speed = REFERENCE_KERNEL_S / trimmed_mean(kernel_samples)
    return seconds * speed ** exponent


class Sampler:
    """Samples host speed while a region runs.

    ``start()`` and ``stop()`` mark the timed region inside the ``with``
    block; handler time inside it is counted in ``in_region_s``.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.in_region_s = 0.0
        self._previous = None
        self._timing = False

    def _sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame) -> None:
        dt = self._sample()
        if self._timing:
            self.in_region_s += dt

    def __enter__(self) -> "Sampler":
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SAMPLES):
            self._sample()

    def start(self) -> float:
        self._timing = True
        return time.perf_counter()

    def stop(self) -> float:
        end = time.perf_counter()
        self._timing = False
        return end

    def kernel_s(self) -> float:
        return trimmed_mean(self.samples)

    def scale_s(self, wall_s: float) -> float:
        """Region time without the handler, on the reference speed scale."""
        return to_reference(wall_s - self.in_region_s, self.samples)
