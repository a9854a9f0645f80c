"""Tests for the discrete-event scheduler."""

import pytest

from repro.seeding import derive_rng
from repro.sim.engine import PeriodicTask, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule_at(5.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order_among_interleaved_times(self):
        """Firing order is (time, scheduling order), also for ties
        scheduled from inside callbacks while the calendar runs."""
        rng = derive_rng(3, "engine-ties")
        sim = Simulator()
        fired = []
        expected = []

        def schedule(tag, time):
            expected.append((time, len(expected), tag))
            sim.schedule_at(time, lambda: fired.append(tag))

        def spawn():
            for i in range(20):
                schedule(f"late{i}", sim.now + rng.choice((0.0, 1.0, 2.0)))

        for i in range(100):
            schedule(f"e{i}", float(rng.randrange(5)))
        expected.append((2.0, len(expected), "spawn"))
        sim.schedule_at(2.0, lambda: (fired.append("spawn"), spawn()))
        sim.run()
        assert fired == [tag for _, _, tag in sorted(expected)]

    def test_relative_schedule(self):
        sim = Simulator()
        times = []
        sim.schedule(2.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.5]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule_at(7.0, lambda: None)
        sim.run()
        assert sim.now == 7.0

    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append("early"))
        sim.schedule_at(50.0, lambda: fired.append("late"))
        sim.run(until=10.0)
        assert fired == ["early"]
        assert sim.now == 10.0

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_scheduling_into_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.run(until=10.0)
        with pytest.raises(ValueError):
            sim.run(until=5.0)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.schedule(1.0, chain)

        sim.schedule_at(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule_at(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule_at(1.0, lambda: None)
        sim.run()
        handle.cancel()  # should not raise

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        handle = sim.schedule_at(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events() == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        first.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_time_skips_cancelled_heads_at_a_tied_time(self):
        sim = Simulator()
        fired = []
        heads = [sim.schedule_at(1.0, lambda: fired.append("x")) for _ in range(3)]
        sim.schedule_at(1.0, lambda: fired.append("live"))
        later = sim.schedule_at(4.0, lambda: fired.append("later"))
        for handle in heads:
            handle.cancel()
        assert sim.peek_time() == 1.0
        assert sim.step()
        assert fired == ["live"]
        later.cancel()
        assert sim.peek_time() is None
        assert not sim.step()

    def test_pending_events_counts_only_live_events(self):
        sim = Simulator()
        handles = [sim.schedule_at(float(t), lambda: None) for t in range(5)]
        handles[0].cancel()
        handles[3].cancel()
        assert sim.pending_events() == 3
        sim.step()  # fires t=1, skipping the cancelled t=0
        assert sim.now == 1.0
        assert sim.pending_events() == 2
        handles[1].cancel()  # already fired: no effect on the count
        assert sim.pending_events() == 2
        sim.run()
        assert sim.pending_events() == 0

    def test_step_returns_false_when_empty(self):
        assert not Simulator().step()


class TestPeriodicTask:
    def test_fires_repeatedly(self):
        sim = Simulator()
        fired = []
        PeriodicTask(sim, 1.0, lambda: fired.append(sim.now))
        sim.run(until=5.5)
        assert len(fired) == 6  # t = 0, 1, 2, 3, 4, 5

    def test_stop_prevents_future_fires(self):
        sim = Simulator()
        fired = []
        task = PeriodicTask(sim, 1.0, lambda: fired.append(sim.now))
        sim.schedule_at(2.5, task.stop)
        sim.run(until=10.0)
        assert all(t <= 2.5 for t in fired)

    def test_start_offset(self):
        sim = Simulator()
        fired = []
        PeriodicTask(
            sim, 1.0, lambda: fired.append(sim.now), start_offset=0.4
        )
        sim.run(until=2.5)
        assert fired == pytest.approx([0.4, 1.4, 2.4])

    def test_jitter_stays_within_bounds(self):
        sim = Simulator()
        fired = []
        rng = derive_rng(1, "jitter-test")
        PeriodicTask(
            sim,
            1.0,
            lambda: fired.append(sim.now),
            jitter=0.2,
            uniform=rng.uniform,
        )
        sim.run(until=20.0)
        gaps = [b - a for a, b in zip(fired, fired[1:])]
        assert all(0.6 <= g <= 1.4 for g in gaps)

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTask(sim, 0.0, lambda: None)
        with pytest.raises(ValueError):
            PeriodicTask(sim, 1.0, lambda: None, jitter=1.0)
