"""Tests for the radio model and contention MAC."""

import pytest

from repro.geometry.primitives import Point
from repro.seeding import derive_rng
from repro.sim.engine import Simulator
from repro.sim.mac import MacConfig, Medium, NodeMac
from repro.sim.messages import Frame, FrameKind
from repro.sim.radio import RadioConfig


def make_frame(sender, receiver, size=1000, kind=FrameKind.DATA):
    return Frame(
        kind=kind, sender=sender, receiver=receiver, payload=None,
        size_bytes=size,
    )


class TestRadioConfig:
    def test_airtime_at_1mbps(self):
        radio = RadioConfig(data_rate_bps=1_000_000.0)
        assert radio.airtime(1000) == pytest.approx(0.008)

    def test_in_range(self):
        radio = RadioConfig(range_m=100.0)
        assert radio.in_range(Point(0, 0), Point(100, 0))
        assert not radio.in_range(Point(0, 0), Point(100.1, 0))

    def test_carrier_sense_wider_than_range(self):
        radio = RadioConfig(range_m=100.0, carrier_sense_factor=2.2)
        assert radio.carrier_sense_range == pytest.approx(220.0)
        assert radio.in_carrier_sense_range(Point(0, 0), Point(200, 0))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RadioConfig(range_m=0.0)
        with pytest.raises(ValueError):
            RadioConfig(data_rate_bps=-1.0)
        with pytest.raises(ValueError):
            RadioConfig(carrier_sense_factor=0.5)
        with pytest.raises(ValueError):
            RadioConfig().airtime(-1)


class TestMacConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MacConfig(queue_limit=0)
        with pytest.raises(ValueError):
            MacConfig(slot_time=0.0)
        with pytest.raises(ValueError):
            MacConfig(retry_limit=0)
        with pytest.raises(ValueError):
            MacConfig(collision_probability=1.5)


class TestMedium:
    def test_contention_counts_nearby_transmissions(self):
        sim = Simulator()
        radio = RadioConfig(range_m=100.0)
        medium = Medium(sim, radio)
        medium.register("a", Point(0, 0), 0.0, 1.0)
        medium.register("b", Point(50, 0), 0.0, 1.0)
        medium.register("far", Point(10_000, 0), 0.0, 1.0)
        assert medium.contention_at(Point(10, 0)) == 2
        assert medium.contention_at(Point(10, 0), exclude="a") == 1

    def test_future_transmissions_invisible(self):
        sim = Simulator()
        medium = Medium(sim, RadioConfig(range_m=100.0))
        medium.register("a", Point(0, 0), 5.0, 6.0)  # starts later
        assert medium.contention_at(Point(0, 0)) == 0
        assert medium.busy_until(Point(0, 0)) == sim.now

    def test_busy_until_latest_end(self):
        sim = Simulator()
        medium = Medium(sim, RadioConfig(range_m=100.0))
        medium.register("a", Point(0, 0), 0.0, 1.0)
        medium.register("b", Point(10, 0), 0.0, 3.0)
        assert medium.busy_until(Point(0, 0)) == 3.0

    def test_interferers_overlap_window(self):
        sim = Simulator()
        medium = Medium(sim, RadioConfig(range_m=100.0))
        medium.register("a", Point(0, 0), 0.0, 1.0)
        medium.register("b", Point(0, 0), 2.0, 3.0)
        assert medium.interferers_at(Point(0, 0), 0.5, 2.5) == 2
        assert medium.interferers_at(Point(0, 0), 1.2, 1.8) == 0

    def test_expired_transmissions_purged(self):
        sim = Simulator()
        medium = Medium(sim, RadioConfig(range_m=100.0))
        medium.register("a", Point(0, 0), 0.0, 0.5)
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        assert medium.contention_at(Point(0, 0)) == 0
        assert medium.active_count() == 0


class _ListScanMedium:
    """Oracle: the shared medium as one unordered list, rescanned whole.

    This is the straightforward implementation :class:`Medium` must
    match answer for answer; it only drops records once they end more
    than ``Medium._GRACE`` before the current time.
    """

    def __init__(self, sim, radio):
        self._sim = sim
        self._radio = radio
        self._active = []  # (sender, position, start_time, end_time)

    def _purge(self):
        horizon = self._sim.now - Medium._GRACE
        self._active = [t for t in self._active if t[3] > horizon]

    def register(self, sender, position, start_time, end_time):
        self._purge()
        self._active.append((sender, position, start_time, end_time))

    def _sensed(self, position, exclude):
        self._purge()
        now = self._sim.now
        return [
            t
            for t in self._active
            if t[2] <= now < t[3]
            and (exclude is None or t[0] != exclude)
            and self._radio.in_carrier_sense_range(t[1], position)
        ]

    def contention_at(self, position, exclude=None):
        return len(self._sensed(position, exclude))

    def busy_until(self, position, exclude=None):
        return max([self._sim.now] + [t[3] for t in self._sensed(position, exclude)])

    def interferers_at(self, position, start, end, exclude=None):
        self._purge()
        return sum(
            1
            for t in self._active
            if (exclude is None or t[0] != exclude)
            and t[3] > start
            and t[2] < end
            and self._radio.in_carrier_sense_range(t[1], position)
        )

    def active_count(self):
        self._purge()
        now = self._sim.now
        return sum(1 for t in self._active if t[2] <= now < t[3])


class TestMediumMatchesListScan:
    """Differential test: the end-time-ordered medium against the oracle
    over seeded random interleavings of registrations, queries and
    clock advances."""

    SENDERS = tuple(range(12))

    def drive(self, seed, steps=600):
        rng = derive_rng(seed, "medium-diff")
        sim = Simulator()
        radio = RadioConfig(range_m=100.0)
        medium, oracle = Medium(sim, radio), _ListScanMedium(sim, radio)
        ends = [0.0]
        seen = {"future": 0, "tied": 0, "out_of_order": 0, "purged": 0}

        def place():
            return Point(rng.uniform(0, 600), rng.uniform(0, 300))

        for _ in range(steps):
            op = rng.random()
            if op < 0.15:
                # Mostly short hops; sometimes past the purge horizon,
                # or exactly onto a recorded end or its purge time.
                edge = rng.choice(ends) + rng.choice((0.0, Medium._GRACE))
                sim.now = rng.choice(
                    [sim.now + step for step in (0.0, 0.001, 0.02, 0.3, 1.2)]
                    + [max(sim.now, edge)]
                )
            elif op < 0.5:
                start = sim.now + rng.choice((0.0, 0.0, 0.002, 0.01, 0.05))
                if rng.random() < 0.25:
                    end = rng.choice(ends)  # tie with an earlier record
                    start = min(start, end)
                else:
                    end = start + rng.choice((0.0002, 0.0085, 0.0085, 0.03))
                seen["future"] += start > sim.now
                seen["tied"] += end in ends
                seen["out_of_order"] += end < max(ends)
                ends.append(end)
                args = (rng.choice(self.SENDERS), place(), start, end)
                medium.register(*args)
                oracle.register(*args)
            else:
                pos = place()
                exclude = rng.choice((None,) + self.SENDERS)
                assert medium.contention_at(pos, exclude) == oracle.contention_at(
                    pos, exclude
                )
                assert medium.busy_until(pos, exclude) == oracle.busy_until(
                    pos, exclude
                )
                # Windows that reach before the purge horizon, lie in
                # the past, straddle now, or lie in the future.
                start = sim.now + rng.choice((-1.5, -0.5, -0.01, 0.0, 0.01))
                end = start + rng.choice((0.0, 0.0085, 0.05, 2.0))
                assert medium.interferers_at(
                    pos, start, end, exclude
                ) == oracle.interferers_at(pos, start, end, exclude)
                assert medium.active_count() == oracle.active_count()
            seen["purged"] += any(
                e <= sim.now - Medium._GRACE for e in ends
            )
        return seen

    @pytest.mark.parametrize("seed", range(8))
    def test_every_query_agrees(self, seed):
        seen = self.drive(seed)
        # The interleaving exercised every case the ordering must handle.
        assert all(seen.values()), seen

    def test_busy_until_takes_latest_of_tied_and_unordered_ends(self):
        sim = Simulator()
        medium = Medium(sim, RadioConfig(range_m=100.0))
        for sender, end in (("a", 3.0), ("b", 1.0), ("c", 3.0), ("d", 2.0)):
            medium.register(sender, Point(0, 0), 0.0, end)
        assert medium.busy_until(Point(0, 0)) == 3.0
        assert medium.busy_until(Point(0, 0), exclude="a") == 3.0
        sim.now = 1.0
        assert medium.contention_at(Point(0, 0)) == 3  # b ended at 1.0
        assert medium.active_count() == 3


class _StaticPositions:
    """Position oracle for MAC tests: fixed coordinates per node."""

    def __init__(self, coords):
        self.coords = coords

    def __call__(self, node, t):
        return self.coords[node]


def build_mac_pair(coords, mac_config=None, radio=None):
    sim = Simulator()
    radio = radio or RadioConfig(range_m=100.0)
    medium = Medium(sim, radio)
    delivered = []
    positions = _StaticPositions(coords)
    macs = {}
    for node in coords:
        macs[node] = NodeMac(
            sim=sim,
            medium=medium,
            radio=radio,
            config=mac_config or MacConfig(),
            node_id=node,
            position_fn=positions,
            deliver=delivered.append,
            rng=derive_rng(1, node, "mac-test"),
        )
    return sim, macs, delivered


class TestNodeMac:
    def test_delivers_frame_in_range(self):
        sim, macs, delivered = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0)}
        )
        assert macs["a"].enqueue(make_frame("a", "b"))
        sim.run(until=1.0)
        assert len(delivered) == 1
        assert delivered[0].receiver == "b"

    def test_out_of_range_frame_lost_after_retries(self):
        sim, macs, delivered = build_mac_pair(
            {"a": Point(0, 0), "b": Point(500, 0)}
        )
        macs["a"].enqueue(make_frame("a", "b"))
        sim.run(until=1.0)
        assert delivered == []
        assert macs["a"].stats.frames_lost_range >= 1
        assert macs["a"].stats.retries == MacConfig().retry_limit - 1

    def test_queue_limit_drops(self):
        config = MacConfig(queue_limit=2)
        sim, macs, delivered = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0)}, mac_config=config
        )
        results = [
            macs["a"].enqueue(make_frame("a", "b")) for _ in range(5)
        ]
        # First goes straight to transmission; two queue; rest dropped.
        assert results.count(False) == 2
        assert macs["a"].stats.frames_dropped_queue == 2

    def test_ack_frames_jump_queue(self):
        sim, macs, delivered = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0)}
        )
        macs["a"].enqueue(make_frame("a", "b"))  # in flight
        macs["a"].enqueue(make_frame("a", "b", size=1000))  # queued data
        macs["a"].enqueue(
            make_frame("a", "b", size=20, kind=FrameKind.ACK)
        )
        sim.run(until=1.0)
        kinds = [f.kind for f in delivered]
        assert kinds[1] is FrameKind.ACK  # overtook the queued DATA

    def test_wrong_sender_rejected(self):
        sim, macs, _ = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0)}
        )
        with pytest.raises(ValueError):
            macs["a"].enqueue(make_frame("b", "a"))

    def test_half_duplex_serializes_own_frames(self):
        sim, macs, delivered = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0)}
        )
        for _ in range(3):
            macs["a"].enqueue(make_frame("a", "b"))
        sim.run(until=10.0)
        assert len(delivered) == 3

    def test_deferral_serializes_neighbors(self):
        # Two senders in carrier-sense range: their airtimes should not
        # overlap much; total completion time ~ sum of airtimes.
        sim, macs, delivered = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0), "c": Point(25, 10)}
        )
        macs["a"].enqueue(make_frame("a", "c", size=10_000))
        macs["b"].enqueue(make_frame("b", "c", size=10_000))
        sim.run(until=5.0)
        assert len(delivered) == 2

    def test_unknown_receiver_counts_range_loss(self):
        sim, macs, delivered = build_mac_pair({"a": Point(0, 0)})
        macs["a"].enqueue(make_frame("a", "ghost"))
        sim.run(until=1.0)
        assert delivered == []
        assert macs["a"].stats.frames_lost_range >= 1

    def test_stats_bytes_accumulate(self):
        sim, macs, _ = build_mac_pair(
            {"a": Point(0, 0), "b": Point(50, 0)}
        )
        macs["a"].enqueue(make_frame("a", "b", size=1000))
        sim.run(until=1.0)
        assert macs["a"].stats.bytes_sent >= 1000
