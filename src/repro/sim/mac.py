"""Contention MAC: queues, backoff, collisions, half-duplex senders.

This is the abstraction of 802.11 DCF that carries the paper's central
mechanism — *contention grows with concurrent senders, and contention is
why uncontrolled flooding gets slow* (Sections 1, 2.2, 3.4).  What is
modelled, and why:

- **Per-node FIFO transmit queue** with a drop-tail limit (Table 1's
  "link layer queue length 150").  Queueing delay under load is the
  dominant latency term for epidemic routing at high message counts.
- **Carrier-sense backoff**: before each attempt the sender samples how
  many transmissions are active within its carrier-sense range and draws
  a uniform backoff from a contention window that doubles per retry and
  widens with the sensed load — the DCF feedback loop in expectation.
- **Collision loss**: each concurrent transmission near the *receiver*
  independently corrupts the frame with a fixed probability, so loss
  rises with local load (hidden terminals included, since the medium
  check is at the receiver).
- **Half-duplex**: a node transmits one frame at a time.
- **Mobility-aware delivery**: the receiver must still be in range at
  the *end* of the airtime; long backoffs under load let links break
  mid-exchange, as in the paper's "message was lost during transfer".

What is deliberately not modelled: RTS/CTS, capture effect, bitrate
adaptation, and PHY preambles beyond a fixed header.  None of these
change the direction of the load–latency relationship the evaluation
depends on.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.geometry.primitives import Point
from repro.graphs.udg import NodeId
from repro.sim.engine import Simulator
from repro.sim.messages import Frame, FrameKind
from repro.sim.radio import RadioConfig
from repro.telemetry.profile import NULL_PROFILER, PHASE_MAC


@dataclass(frozen=True)
class MacConfig:
    """MAC behaviour knobs.

    Attributes:
        queue_limit: transmit-queue capacity in frames (Table 1: 150).
        slot_time: backoff slot in seconds (802.11b long slot: 20 us).
        cw_min: minimum contention window in slots.
        retry_limit: transmission attempts per frame before drop.
        collision_probability: per-interferer chance of corrupting a
            frame that overlaps it at the receiver.
    """

    queue_limit: int = 150
    slot_time: float = 20e-6
    cw_min: int = 32
    retry_limit: int = 4
    collision_probability: float = 0.12

    def __post_init__(self) -> None:
        if self.queue_limit <= 0:
            raise ValueError("queue limit must be positive")
        if self.slot_time <= 0:
            raise ValueError("slot time must be positive")
        if self.cw_min < 1:
            raise ValueError("cw_min must be >= 1")
        if self.retry_limit < 1:
            raise ValueError("retry limit must be >= 1")
        if not 0.0 <= self.collision_probability <= 1.0:
            raise ValueError("collision probability must be in [0, 1]")


@dataclass(slots=True)
class _ActiveTransmission:
    sender: NodeId
    position: Point
    start_time: float
    end_time: float


class Medium:
    """Shared-channel bookkeeping: who is on the air, and where.

    A registered transmission occupies the channel during
    ``[start_time, end_time)`` only.  Sensing is causal: a transmission
    whose backoff has not ended yet is invisible to other stations (DCF
    cannot see the future), so deferral never cascades through frames
    that are themselves still waiting.

    Invariant: the records are ordered by ``end_time`` (ties in
    registration order), and ``_ends[i]`` is ``_active[i].end_time``.
    Every query is a window ``end_time > t``, so it bisects ``_ends``
    and scans only the suffix of transmissions still on the air or just
    finished; purging drops a prefix.  Counts and the max over end
    times do not depend on scan order, so results equal a scan of all
    records in any order.
    """

    def __init__(self, sim: Simulator, radio: RadioConfig):
        self._sim = sim
        self._radio = radio
        self._active: list[_ActiveTransmission] = []
        self._ends: list[float] = []

    #: How long finished transmissions are kept for overlap queries.
    #: Completion-time collision checks look back over the frame's own
    #: airtime, so records must outlive their end by the longest frame.
    _GRACE = 1.0

    def _purge(self) -> None:
        cut = bisect_right(self._ends, self._sim.now - self._GRACE)
        if cut:
            del self._active[:cut]
            del self._ends[:cut]

    def _ending_after(self, t: float) -> list[_ActiveTransmission]:
        """Records with ``end_time > t``, after purging."""
        self._purge()
        return self._active[bisect_right(self._ends, t) :]

    def register(
        self,
        sender: NodeId,
        position: Point,
        start_time: float,
        end_time: float,
    ) -> None:
        """Record a transmission on air during ``[start_time, end_time)``."""
        self._purge()
        at = bisect_right(self._ends, end_time)
        self._ends.insert(at, end_time)
        self._active.insert(
            at,
            _ActiveTransmission(
                sender=sender,
                position=position,
                start_time=start_time,
                end_time=end_time,
            ),
        )

    def _sensed(self, position: Point, exclude: NodeId | None):
        now = self._sim.now
        for t in self._ending_after(now):
            if t.start_time > now:
                continue
            if exclude is not None and t.sender == exclude:
                continue
            if self._radio.in_carrier_sense_range(t.position, position):
                yield t

    def contention_at(self, position: Point, exclude: NodeId | None = None) -> int:
        """Number of transmissions on air right now sensed at ``position``."""
        return sum(1 for _ in self._sensed(position, exclude))

    def busy_until(self, position: Point, exclude: NodeId | None = None) -> float:
        """End of the latest currently-on-air transmission sensed there.

        Returns the current time when the medium is idle.  This is what
        DCF deferral waits for before starting its backoff.
        """
        latest = self._sim.now
        for t in self._sensed(position, exclude):
            latest = max(latest, t.end_time)
        return latest

    def interferers_at(
        self, position: Point, start: float, end: float, exclude: NodeId | None = None
    ) -> int:
        """Transmissions overlapping ``[start, end)`` sensed at ``position``.

        Used for receiver-side collision checks at frame completion.
        """
        count = 0
        for t in self._ending_after(start):
            if exclude is not None and t.sender == exclude:
                continue
            if t.start_time >= end:
                continue
            if self._radio.in_carrier_sense_range(t.position, position):
                count += 1
        return count

    def active_count(self) -> int:
        """Transmissions on air right now (diagnostics)."""
        now = self._sim.now
        return sum(1 for t in self._ending_after(now) if t.start_time <= now)


class MacStats:
    """Counters one MAC instance accumulates (merged by the collector)."""

    def __init__(self) -> None:
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost_collision = 0
        self.frames_lost_range = 0
        self.frames_dropped_queue = 0
        self.retries = 0
        self.bytes_sent = 0


class NodeMac:
    """One node's transmit path.

    ``deliver`` is invoked (via the event calendar) when a frame lands
    successfully at its receiver; loss is silent at this layer — custody
    transfer and anti-entropy provide recovery above it, exactly as in
    the paper.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        radio: RadioConfig,
        config: MacConfig,
        node_id: NodeId,
        position_fn: Callable[[NodeId, float], Point],
        deliver: Callable[[Frame], None],
        rng: random.Random,
        stats: Optional[MacStats] = None,
        profiler=NULL_PROFILER,
    ):
        self._sim = sim
        self._medium = medium
        self._radio = radio
        self._config = config
        self.node_id = node_id
        self._position_fn = position_fn
        self._deliver = deliver
        self._rng = rng
        self.stats = stats if stats is not None else MacStats()
        self._profiler = profiler
        self._queue: deque[Frame] = deque()
        self._busy = False

    def queue_length(self) -> int:
        """Frames waiting (not counting one in flight)."""
        return len(self._queue)

    def enqueue(self, frame: Frame) -> bool:
        """Queue a frame for transmission.

        Returns False (and drops the frame) when the transmit queue is at
        the Table 1 limit.  Acknowledgement frames jump the queue: 802.11
        sends control responses after a SIFS, ahead of any queued data,
        and custody transfer depends on ACKs not rotting behind a full
        data backlog.
        """
        if frame.sender != self.node_id:
            raise ValueError("frame sender must match the owning node")
        if len(self._queue) >= self._config.queue_limit:
            self.stats.frames_dropped_queue += 1
            return False
        if frame.kind is FrameKind.ACK:
            self._queue.appendleft(frame)
        else:
            self._queue.append(frame)
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        frame = self._queue.popleft()
        self._attempt(frame, attempt=1)

    def _attempt(self, frame: Frame, attempt: int) -> None:
        t_prof = self._profiler.start()
        now = self._sim.now
        my_pos = self._position_fn(self.node_id, now)
        sensed = self._medium.contention_at(my_pos, exclude=self.node_id)
        # DCF deferral: wait out anything currently on the air in our
        # carrier-sense domain, then back off.  The deferral serializes
        # transmissions within a domain, which is where queueing delay
        # (the paper's contention effect) actually comes from; the
        # random backoff resolves ties among stations released together.
        idle_at = self._medium.busy_until(my_pos, exclude=self.node_id)
        cw = self._config.cw_min * (2 ** (attempt - 1)) * (1 + sensed)
        backoff = self._config.slot_time * self._rng.uniform(0, cw)
        airtime = self._radio.airtime(frame.airtime_bytes)
        start = max(now, idle_at) + backoff
        end = start + airtime
        self._medium.register(self.node_id, my_pos, start, end)
        self.stats.frames_sent += 1
        self.stats.bytes_sent += frame.airtime_bytes
        self._sim.schedule_at(
            end, lambda: self._complete(frame, attempt, start, end)
        )
        self._profiler.add(PHASE_MAC, t_prof)

    def _complete(
        self, frame: Frame, attempt: int, start: float, end: float
    ) -> None:
        # Profiling brackets close before _retry_or_drop/_deliver: the
        # retry's _attempt and the protocol's frame handling charge
        # their own phases, so MAC time here is just the completion
        # checks themselves.
        t_prof = self._profiler.start()
        now = self._sim.now
        my_pos = self._position_fn(self.node_id, now)
        try:
            peer_pos = self._position_fn(frame.receiver, now)
        except KeyError:
            peer_pos = None

        if peer_pos is None or not self._radio.in_range(my_pos, peer_pos):
            # Link broke during backoff + airtime (node moved away).
            self.stats.frames_lost_range += 1
            self._profiler.add(PHASE_MAC, t_prof)
            self._retry_or_drop(frame, attempt)
            return

        interferers = self._medium.interferers_at(
            peer_pos, start, end, exclude=self.node_id
        )
        p_survive = (1.0 - self._config.collision_probability) ** interferers
        if self._rng.random() > p_survive:
            self.stats.frames_lost_collision += 1
            self._profiler.add(PHASE_MAC, t_prof)
            self._retry_or_drop(frame, attempt)
            return

        self.stats.frames_delivered += 1
        self._profiler.add(PHASE_MAC, t_prof)
        self._deliver(frame)
        self._start_next()

    def _retry_or_drop(self, frame: Frame, attempt: int) -> None:
        if attempt < self._config.retry_limit:
            self.stats.retries += 1
            self._attempt(frame, attempt + 1)
        else:
            self._start_next()
