"""Host speed, sampled while a workload runs, to rescale its wall times.

The benchmark runs on a few cores of a shared host whose speed drifts:
each core switches between a fast and a slow mode, about 1.4x apart,
that last from a second to minutes, and a workload slows down with the
core it runs on.  Such drift moves every time a run measures, so two
runs of the same code differ by more than a regression bound allows.

:func:`pin` keeps the process on one core, so that the workload and the
sampler below see the same drift.  A pinned process cannot move away
when another task or the hypervisor takes its core, so that time is
measured too and cut out: only the time the process ran, or left the
core idle, counts.

:class:`HostSpeed` measures that drift with a fixed kernel that touches
no code of the repository: half integer arithmetic, half lookups and
stores in dicts of ints, which together slow down with the host about
as the workloads do.  It allocates no object the garbage collector
tracks, so it never runs a collection over the workload's objects.  A
sampler thread
runs the kernel every :data:`PERIOD_S` while a phase runs, timing it by
the thread's own CPU clock, so that time spent waiting for the GIL or
for a core does not count.  :meth:`HostSpeed.seconds` then rescales a
wall interval to the :data:`REFERENCE_KERNEL_S` host speed: the interval
times the reference kernel time over the median kernel time sampled in
that interval, times the share of the interval the core was the
process's.  A code change moves the rescaled time as it moves the wall
time; drift of the host does not.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
from time import perf_counter, process_time, thread_time

#: Seconds between two kernel samples.
PERIOD_S = 0.05

#: Loop lengths of the kernel's two halves: together about 2 ms, inside
#: one GIL hold.
ARITHMETIC_ITERATIONS = 10_000
LOOKUPS = 3_000

#: The dict the kernel reads: ``LOOKUPS`` int keys spread over a range.
_TABLE = {i * 7919 % 100_003: i for i in range(LOOKUPS)}

#: Kernel time at the reference host speed.  Rescaled times read as wall
#: times on a host where the kernel takes this long (a 2-CPU Xeon VM in
#: a quiet minute).
REFERENCE_KERNEL_S = 0.0015

#: Fewest samples one interval is rescaled by; a shorter interval takes
#: the samples nearest to its middle.
MIN_SAMPLES = 9

#: Window length for rescaling a long interval piecewise.
WINDOW_S = 1.0


#: The CPUs this process could run on before :func:`pin`.
CPUS = sorted(os.sched_getaffinity(0))


def pin() -> int:
    """Keep this thread, and every thread it starts from now on, on the
    first of :data:`CPUS`; return that CPU."""
    os.sched_setaffinity(0, {CPUS[0]})
    return CPUS[0]


_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def idle_seconds(cpu: int) -> float:
    """Seconds ``cpu`` has spent idle since boot (``/proc/stat`` idle and
    iowait)."""
    with open("/proc/stat", encoding="ascii") as stat:
        for line in stat:
            if line.startswith(f"cpu{cpu} "):
                fields = line.split()
                return (int(fields[4]) + int(fields[5])) / _TICKS_PER_S
    raise OSError(f"cpu{cpu} is not in /proc/stat")


def kernel() -> float:
    """CPU seconds of one run of the fixed kernel on this thread."""
    start = thread_time()
    total = 0
    for i in range(ARITHMETIC_ITERATIONS):
        total += i * i % 7
    stored = {}
    for key, value in _TABLE.items():
        stored[key] = value * 1_000_003 + key
    for key in _TABLE:
        total += stored[key] >> 3
    return thread_time() - start


class HostSpeed:
    """Kernel samples in time order: the wall time, the kernel's CPU
    seconds and, when the process is pinned to ``cpu``, the process's
    CPU seconds and ``cpu``'s idle seconds so far."""

    def __init__(self, cpu: int | None = None) -> None:
        self.cpu = cpu
        self.times: list[float] = []
        self.kernels: list[float] = []
        self.ran: list[float] = []
        self.idle: list[float] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> None:
        """Run the kernel once on the calling thread and record it."""
        took = kernel()
        self.times.append(perf_counter())
        self.kernels.append(took)
        if self.cpu is not None:
            self.ran.append(process_time())
            self.idle.append(idle_seconds(self.cpu))

    def _sample_until_stopped(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self.sample()

    def __enter__(self) -> "HostSpeed":
        """Sample on a thread of its own until the ``with`` block ends."""
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._sample_until_stopped, name="perfbench-hostspeed", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._thread = None

    def _samples(self, start: float, end: float) -> tuple[int, int]:
        """Index range of the samples in ``[start, end]``, widened to the
        :data:`MIN_SAMPLES` samples nearest to its middle."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = min(len(self.times), lo + MIN_SAMPLES)
        if lo >= hi:
            raise RuntimeError("no host-speed samples to rescale by")
        return lo, hi

    def held(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` in which the pinned core ran this
        process or stood idle, rather than running anything else; 1
        when the process is not pinned."""
        return self._held(*self._samples(start, end))

    def _held(self, lo: int, hi: int) -> float:
        last = hi - 1
        span = self.times[last] - self.times[lo]
        if self.cpu is None or span <= 0:
            return 1.0
        ours = self.ran[last] - self.ran[lo] + self.idle[last] - self.idle[lo]
        return min(1.0, ours / span)

    def seconds(self, start: float, end: float) -> float:
        """Wall interval ``[start, end]`` rescaled to the reference speed,
        window by window of :data:`WINDOW_S`."""
        total = 0.0
        while start < end:
            stop = min(end, start + WINDOW_S)
            if end - stop < WINDOW_S / 2:
                stop = end
            lo, hi = self._samples(start, stop)
            speed = REFERENCE_KERNEL_S / statistics.median(self.kernels[lo:hi])
            total += (stop - start) * speed * self._held(lo, hi)
            start = stop
        return total
