"""Event scheduler — the heart of the discrete-event simulator.

A classic calendar built on :mod:`heapq`.  Heap entries are ``(time,
seq, event)`` tuples; ``seq`` is a monotonically increasing tiebreaker so
same-time events fire in scheduling order (deterministic replays matter
more than queue fairness here).  Because ``seq`` is unique, tuple
comparison never reaches the event, and the heap compares in C.
Cancellation is lazy: handles are flagged and skipped when popped, which
keeps cancel O(1).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable


@dataclass(slots=True)
class _Event:
    time: float
    callback: Callable[[], None]
    cancelled: bool = False


class EventHandle:
    """Opaque handle returned by scheduling calls; supports cancel()."""

    __slots__ = ("_event",)

    def __init__(self, event: _Event):
        self._event = event

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        """True when the event was cancelled before firing."""
        return self._event.cancelled

    @property
    def time(self) -> float:
        """Scheduled firing time."""
        return self._event.time


class Simulator:
    """Discrete-event simulator clock and calendar."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, _Event]] = []
        self._seq: int = 0
        self._events_processed: int = 0

    @property
    def events_processed(self) -> int:
        """Count of events executed so far (diagnostics/benchmarks)."""
        return self._events_processed

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation ``time``."""
        if math.isnan(time):
            raise ValueError("event time may not be NaN")
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past: {time} < now {self.now}"
            )
        event = _Event(time=time, callback=callback)
        heapq.heappush(self._heap, (time, self._seq, event))
        self._seq += 1
        return EventHandle(event)

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now + delay, callback)

    def peek_time(self) -> float | None:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Execute the next event.  Returns False when the calendar is empty."""
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = time
            self._events_processed += 1
            event.callback()
            return True
        return False

    def run(self, until: float | None = None) -> None:
        """Run events until the calendar empties or ``until`` is reached.

        With ``until`` given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so post-run metric samples
        see the full horizon.
        """
        if until is not None and until < self.now:
            raise ValueError("cannot run backwards in time")
        while self._heap:
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            self.step()
        if until is not None:
            self.now = max(self.now, until)

    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events."""
        return sum(1 for _, _, e in self._heap if not e.cancelled)


class PeriodicTask:
    """A self-rescheduling task with optional per-fire jitter.

    Used for beacon loops and protocol check-interval timers.  The
    jitter source is an injected callable so that determinism stays in
    the caller's hands (pass ``rng.uniform``).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], None],
        jitter: float = 0.0,
        uniform: Callable[[float, float], float] | None = None,
        start_offset: float = 0.0,
    ):
        if interval <= 0:
            raise ValueError("interval must be positive")
        if jitter < 0 or jitter >= interval:
            raise ValueError("jitter must satisfy 0 <= jitter < interval")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._uniform = uniform
        self._stopped = False
        self._handle: EventHandle | None = None
        self._schedule_next(start_offset)

    def _schedule_next(self, delay: float) -> None:
        if self._stopped:
            return
        extra = 0.0
        if self._jitter > 0 and self._uniform is not None:
            extra = self._uniform(-self._jitter, self._jitter)
        actual = max(0.0, delay + extra)
        self._handle = self._sim.schedule(actual, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        self._schedule_next(self._interval)

    def stop(self) -> None:
        """Stop firing; pending occurrence is cancelled."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
