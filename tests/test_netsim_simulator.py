"""Tests for the discrete-event simulator core."""

from __future__ import annotations

import pytest

from repro.netsim.simulator import PeriodicTask, SimulationError, Simulator, Timer


class TestSimulatorScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_call_later_advances_clock_to_event_time(self):
        simulator = Simulator()
        seen = []
        simulator.call_later(1.5, lambda: seen.append(simulator.now))
        simulator.run()
        assert seen == [1.5]
        assert simulator.now == 1.5

    def test_events_fire_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.call_later(2.0, lambda: order.append("late"))
        simulator.call_later(1.0, lambda: order.append("early"))
        simulator.run()
        assert order == ["early", "late"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        simulator = Simulator()
        order = []
        for label in ("first", "second", "third"):
            simulator.call_at(1.0, lambda label=label: order.append(label))
        simulator.run()
        assert order == ["first", "second", "third"]

    def test_cancelled_event_does_not_fire(self):
        simulator = Simulator()
        seen = []
        event = simulator.call_later(1.0, lambda: seen.append("fired"))
        event.cancel()
        simulator.run()
        assert seen == []

    def test_a_cancelled_event_keeps_nothing_it_would_have_called(self):
        # Its heap entry stays until popped or compacted; what it would have
        # called, and the object behind a bound method, must not stay with it.
        simulator = Simulator()
        seen = []
        event = simulator.call_later(1.0, seen.append, "fired")
        event.cancel()
        assert event.callback is None and event.args == ()
        assert simulator._queue[0][2] is event  # still queued, holding nothing
        simulator.run()
        assert seen == []

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().call_later(-0.1, lambda: None)

    def test_scheduling_in_the_past_rejected(self):
        simulator = Simulator()
        simulator.call_later(1.0, lambda: None)
        simulator.run()
        with pytest.raises(SimulationError):
            simulator.call_at(0.5, lambda: None)

    def test_run_until_stops_before_later_events(self):
        simulator = Simulator()
        seen = []
        simulator.call_later(1.0, lambda: seen.append(1.0))
        simulator.call_later(5.0, lambda: seen.append(5.0))
        simulator.run(until=2.0)
        assert seen == [1.0]
        assert simulator.now == 2.0
        simulator.run()
        assert seen == [1.0, 5.0]

    def test_events_scheduled_during_run_execute(self):
        simulator = Simulator()
        seen = []

        def outer():
            simulator.call_later(1.0, lambda: seen.append("inner"))

        simulator.call_later(1.0, outer)
        simulator.run()
        assert seen == ["inner"]
        assert simulator.now == 2.0

    def test_pending_events_counts_uncancelled(self):
        simulator = Simulator()
        event = simulator.call_later(1.0, lambda: None)
        simulator.call_later(2.0, lambda: None)
        assert simulator.pending_events == 2
        event.cancel()
        assert simulator.pending_events == 1

    def test_rng_is_deterministic_per_seed(self):
        values_a = [Simulator(seed=9).rng.random() for _ in range(3)]
        values_b = [Simulator(seed=9).rng.random() for _ in range(3)]
        assert values_a == values_b

    def test_advance_runs_due_events(self):
        simulator = Simulator()
        seen = []
        simulator.call_later(0.5, lambda: seen.append("x"))
        simulator.advance(1.0)
        assert seen == ["x"]
        assert simulator.now == 1.0


class TestTimer:
    def test_fires_after_delay(self):
        simulator = Simulator()
        fired = []
        timer = Timer(simulator, lambda: fired.append(simulator.now))
        timer.start(2.0)
        simulator.run()
        assert fired == [2.0]

    def test_stop_prevents_firing(self):
        simulator = Simulator()
        fired = []
        timer = Timer(simulator, lambda: fired.append(True))
        timer.start(2.0)
        timer.stop()
        simulator.run()
        assert fired == []

    def test_restart_replaces_deadline(self):
        simulator = Simulator()
        fired = []
        timer = Timer(simulator, lambda: fired.append(simulator.now))
        timer.start(2.0)
        timer.start(5.0)
        simulator.run()
        assert fired == [5.0]

    def test_is_running_reflects_state(self):
        simulator = Simulator()
        timer = Timer(simulator, lambda: None)
        assert not timer.is_running
        timer.start(1.0)
        assert timer.is_running
        assert timer.deadline == 1.0
        simulator.run()
        assert not timer.is_running


class TestPeriodicTask:
    def test_fires_repeatedly_until_stopped(self):
        simulator = Simulator()
        fired = []
        task = PeriodicTask(simulator, 1.0, lambda: fired.append(simulator.now))
        task.start()
        simulator.run(until=3.5)
        task.stop()
        simulator.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            PeriodicTask(Simulator(), 0.0, lambda: None)

    def test_initial_delay_overrides_first_interval(self):
        simulator = Simulator()
        fired = []
        task = PeriodicTask(simulator, 5.0, lambda: fired.append(simulator.now))
        task.start(initial_delay=1.0)
        simulator.run(until=7.0)
        assert fired == [1.0, 6.0]
