"""Machine-speed probe: host times expressed at a fixed reference speed.

The benchmark box is a small shared virtual machine whose speed drifts
with load from outside it: the same pass of the same seed can take 1.5x
longer when a neighbour is busy, in episodes lasting seconds.  Such
drift swamps any change to the program.  So every host time the
benchmark reports is measured next to a *speed probe*, a fixed piece of
interpreter work (heap, dict, attribute and float operations, like the
simulator's own), and scaled by ``NOMINAL_NS / probe_ns``: the time the
measured work would have taken had the probe run at its nominal speed.

The probe never touches the program, so a change to the program moves
the scaled times exactly as it moves the raw ones; only the box's drift
cancels.  The probe times its own thread's CPU time, so a probe waiting
for a CPU (while campaign workers run) reads the box's speed, not the
scheduler's queue.  Raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import heapq
import os
import statistics
import threading
import time

#: Probe CPU time on the reference box when nothing else loads it.
NOMINAL_NS = 200_000
#: Probes taken before and after each short timed sample.
PROBES_AROUND = 3
#: Seconds between a sampling thread's probes.
SAMPLE_PERIOD_S = 0.05


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def probe() -> float:
    """The fixed unit of interpreter work the speed is measured with."""
    heap: list = []
    table: dict = {}
    total = 0.0
    for i in range(160):
        item = _Item(i * 7919 % 613, i * 0.5)
        heapq.heappush(heap, (item.key, i, item))
        table[item.key % 41] = table.get(item.key % 41, 0.0) + item.value
    while heap:
        _, _, item = heapq.heappop(heap)
        total += (item.value * 1.5 - total * 0.001) ** 2 % 97.0
    return total + sum(table.values())


def probe_ns() -> int:
    """CPU nanoseconds one :func:`probe` takes on this thread now."""
    t0 = time.thread_time_ns()
    probe()
    return time.thread_time_ns() - t0


def scale_of(samples) -> float:
    """Factor turning raw host time into time at the nominal speed."""
    return NOMINAL_NS / statistics.median(samples)


def bracketed_scales(probes: list[int]) -> list[float]:
    """Scale of each interval between consecutive probes: the mean of
    the probe taken just before it and the one just after."""
    return [
        NOMINAL_NS * 2 / (before + after)
        for before, after in zip(probes, probes[1:])
    ]


def timed_at_nominal(fn):
    """``(result, raw_s, scaled_s)`` of ``fn()``, probed before and after.

    Garbage collection is paused while ``fn`` runs, as :mod:`timeit`
    does: a collection owed to what the benchmark allocated earlier
    would otherwise land in a millisecond sample at random.
    """
    before = [probe_ns() for _ in range(PROBES_AROUND)]
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
    after = [probe_ns() for _ in range(PROBES_AROUND)]
    return result, raw, raw * scale_of(before + after)


class SpeedSampler:
    """Probe the box's speed from background threads.

    For phases whose work runs in other processes: one thread is pinned
    to each CPU this process may use, because the CPUs of a shared box
    slow down independently and the workers run on all of them.  The
    median of every sample in the phase, or in a part of it, scales
    wall times.
    """

    def __init__(self) -> None:
        self._samples: list[tuple[float, int]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(cpu,), daemon=True)
            for cpu in sorted(os.sched_getaffinity(0))
        ]

    def _sample(self) -> None:
        sample = (time.time(), probe_ns())
        with self._lock:
            self._samples.append(sample)

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self._sample()

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()
        self._sample()

    @property
    def scale(self) -> float:
        """Scale for the whole sampled interval (see :func:`scale_of`)."""
        return scale_of([ns for _, ns in self._samples])

    def scale_between(self, start: float, end: float) -> float:
        """Scale from the samples taken near a wall-clock window; the
        whole interval's scale when there are fewer than 3."""
        pad = 2 * SAMPLE_PERIOD_S
        near = [
            ns for t, ns in self._samples if start - pad <= t <= end + pad
        ]
        return scale_of(near) if len(near) >= 3 else self.scale
