"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulation


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulation(0)
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulation(0)
        order = []
        for label in "abc":
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulation(0)
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        sim = Simulation(0)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulation(0)
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulation(0)
        hits = []

        def chain(n):
            hits.append(sim.now)
            if n > 0:
                sim.schedule(1.0, chain, n - 1)

        sim.schedule(0.0, chain, 3)
        sim.run()
        assert hits == [0.0, 1.0, 2.0, 3.0]


class TestRunControl:
    def test_run_until_stops_clock_exactly(self):
        sim = Simulation(0)
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        end = sim.run(until=5.0)
        assert fired == [1]
        assert end == 5.0
        assert sim.pending_events == 1

    def test_run_resumes_after_until(self):
        sim = Simulation(0)
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 2)
        sim.run(until=5.0)
        sim.run()
        assert fired == [1, 2]

    def test_run_until_with_empty_calendar_advances_clock(self):
        sim = Simulation(0)
        assert sim.run(until=7.0) == 7.0

    def test_stop_halts_processing(self):
        sim = Simulation(0)
        fired = []

        def first():
            fired.append(1)
            sim.stop()

        sim.schedule(1.0, first)
        sim.schedule(2.0, fired.append, 2)
        sim.run()
        assert fired == [1]
        assert sim.pending_events == 1

    def test_reentrant_run_rejected(self):
        sim = Simulation(0)

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(RuntimeError):
            sim.run()


class TestRng:
    def test_same_seed_same_streams(self):
        a, b = Simulation(7), Simulation(7)
        assert a.spawn_rng().random() == b.spawn_rng().random()

    def test_spawned_streams_differ(self):
        sim = Simulation(7)
        assert sim.spawn_rng().random() != sim.spawn_rng().random()


class TestEventBudget:
    def _ticker(self, sim):
        def tick():
            sim.schedule(1.0, tick)
        sim.schedule(1.0, tick)

    def test_budget_exhaustion_raises_with_context(self):
        from repro.sim.engine import EventBudgetExceeded

        sim = Simulation(0)
        self._ticker(sim)
        with pytest.raises(EventBudgetExceeded) as ei:
            sim.run(max_events=5)
        assert ei.value.max_events == 5
        assert ei.value.now == 5.0
        assert "5 events" in str(ei.value)

    def test_budget_not_hit_is_identical_to_unbudgeted(self):
        done = []
        for max_events in (None, 100):
            sim = Simulation(3)
            order = []
            for delay in (3.0, 1.0, 2.0):
                sim.schedule(delay, order.append, delay)
            end = sim.run(max_events=max_events)
            done.append((order, end))
        assert done[0] == done[1]

    def test_budget_respects_until(self):
        sim = Simulation(0)
        self._ticker(sim)
        assert sim.run(until=3.5, max_events=100) == 3.5
        assert sim.now == 3.5

    def test_budget_exhaustion_is_deterministic(self):
        from repro.sim.engine import EventBudgetExceeded

        times = []
        for _ in range(2):
            sim = Simulation(9)
            self._ticker(sim)
            with pytest.raises(EventBudgetExceeded) as ei:
                sim.run(max_events=7)
            times.append((ei.value.now, sim.now))
        assert times[0] == times[1]

    def test_invalid_budget_rejected(self):
        sim = Simulation(0)
        with pytest.raises(ValueError):
            sim.run(max_events=0)

    def test_stop_inside_budgeted_loop(self):
        sim = Simulation(0)
        self._ticker(sim)
        sim.schedule(2.5, sim.stop)
        assert sim.run(max_events=100) == 2.5

    def test_budgeted_loop_with_invariants_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        sim = Simulation(4)
        self._ticker(sim)
        assert sim.run(until=4.5, max_events=50) == 4.5


class TestCalendarBackends:
    """The calendar queue replays a DES deployment exactly as the heap does."""

    @staticmethod
    def _request_log(calendar):
        from repro.queueing.distributions import Exponential
        from repro.sim.client import OpenLoopSource
        from repro.sim.network import ConstantLatency
        from repro.sim.topology import CloudDeployment

        sim = Simulation(7, calendar=calendar)
        deployment = CloudDeployment(
            sim,
            servers=10,
            latency=ConstantLatency.from_ms(24.0),
            service_dist=Exponential(1.0 / 13.0),
        )
        for i in range(5):
            OpenLoopSource(sim, deployment, Exponential(1.0 / 18.0), site=f"client-{i}",
                           stop_time=40.0)
        sim.run()
        assert sim.calendar_kind == calendar
        return deployment.log

    def test_calendar_matches_heap_on_deployment(self):
        heap, cal = self._request_log("heap"), self._request_log("calendar")
        assert len(heap) == len(cal) > 3000
        columns = ("site", "priority", "created", "arrived", "service_start",
                   "service_end", "completed", "service_time", "degraded")
        for name in columns:
            assert [getattr(r, name) for r in heap.requests] == [
                getattr(r, name) for r in cal.requests
            ], name
        # rids come from a process-wide counter: compare them per run.
        first = (min(r.rid for r in heap.requests), min(r.rid for r in cal.requests))
        assert [r.rid - first[0] for r in heap.requests] == [
            r.rid - first[1] for r in cal.requests
        ]
