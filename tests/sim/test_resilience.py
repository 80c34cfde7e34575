"""Tests for the request-level resilience layer.

Covers the policy objects (retry backoff, hedging, breaker sizing), the
circuit-breaker state machine in isolation, and the integrated
:class:`ResilientClient` behaviours: timeouts, retries after transient
loss and drops, hedging, failover, breaker trip/recovery, and
closed-loop population conservation through the client.
"""

import numpy as np
import pytest

from repro.queueing.distributions import Deterministic, Exponential
from repro.sim.client import ClosedLoopSource, OpenLoopSource
from repro.sim.engine import Simulation
from repro.sim.network import ConstantLatency, LossyLatency
from repro.sim.request import Request
from repro.sim.resilience import (
    BreakerConfig,
    CircuitBreaker,
    HedgePolicy,
    ResilientClient,
    RetryPolicy,
)
from repro.sim.topology import CloudDeployment, EdgeDeployment, EdgeSite


def _edge(sim, service=None, sites=1, servers=1,
          queue_capacity=None, latency=None):
    service = Deterministic(0.1) if service is None else service
    built = [
        EdgeSite(
            sim, f"s{i}", servers,
            latency if latency is not None else ConstantLatency.from_ms(1.0),
            service, queue_capacity=queue_capacity,
        )
        for i in range(sites)
    ]
    return EdgeDeployment(sim, built)


def _cloud(sim, service=None, servers=4):
    service = Deterministic(0.1) if service is None else service
    return CloudDeployment(
        sim, servers=servers, latency=ConstantLatency.from_ms(24.0),
        service_dist=service,
    )


def _submit(sim, client, at=0.0, site="s0"):
    request = Request(next(sim.rids), site=site, created=at)
    sim.schedule_at(at, client.submit, request)
    return request


class TestPolicies:
    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)

    def test_backoff_full_jitter_bounds(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.1, backoff_cap=0.3)
        rng = np.random.default_rng(0)
        assert policy.backoff(1, rng) == 0.0
        for attempt, cap in ((2, 0.1), (3, 0.2), (4, 0.3), (5, 0.3)):
            draws = [policy.backoff(attempt, rng) for _ in range(200)]
            assert all(0.0 <= d <= cap for d in draws)
            assert max(draws) > 0.5 * cap  # jitter actually spreads

    def test_hedge_policy_validation(self):
        with pytest.raises(ValueError):
            HedgePolicy(delay=-0.1)
        with pytest.raises(ValueError):
            HedgePolicy(quantile=1.0)
        with pytest.raises(ValueError):
            HedgePolicy(max_hedges=0)

    def test_breaker_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(window=0)
        with pytest.raises(ValueError):
            BreakerConfig(failure_threshold=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(reset_timeout=0.0)

    def test_client_validation(self):
        sim = Simulation(0)
        edge = _edge(sim)
        with pytest.raises(ValueError):
            ResilientClient(sim, edge, timeout=0.0)
        with pytest.raises(ValueError):
            ResilientClient(sim, edge, slo_deadline=-1.0)
        with pytest.raises(ValueError):
            ResilientClient(sim, edge, saturation_threshold=0)


class TestCircuitBreaker:
    CFG = BreakerConfig(window=10, failure_threshold=0.5, min_calls=4, reset_timeout=5.0)

    def test_stays_closed_below_min_calls(self):
        b = CircuitBreaker(self.CFG)
        for _ in range(3):
            b.record_failure(0.0)
        assert b.state == "closed" and b.opens == 0

    def test_trips_at_failure_threshold(self):
        b = CircuitBreaker(self.CFG)
        b.record_success(0.0)
        b.record_success(0.0)
        b.record_failure(0.0)
        assert b.state == "closed"
        b.record_failure(0.0)  # 2 of 4 = threshold
        assert b.state == "open" and b.opens == 1
        assert not b.allow(1.0)

    def _tripped(self):
        b = CircuitBreaker(self.CFG)
        for _ in range(4):
            b.record_failure(0.0)
        assert b.state == "open"
        return b

    def test_half_open_single_probe(self):
        b = self._tripped()
        assert b.allow(5.0)  # reset_timeout elapsed: one probe
        assert b.state == "half_open"
        assert not b.allow(5.0)  # only one probe at a time

    def test_probe_success_closes(self):
        b = self._tripped()
        assert b.allow(6.0)
        b.record_success(6.1)
        assert b.state == "closed"
        assert b.allow(6.2)

    def test_probe_failure_reopens(self):
        b = self._tripped()
        assert b.allow(6.0)
        b.record_failure(6.1)
        assert b.state == "open" and b.opens == 2
        assert not b.allow(10.0)  # reopened: wait another reset_timeout
        assert b.allow(11.2)

    def test_abandoned_probe_releases_slot(self):
        b = self._tripped()
        assert b.allow(6.0)
        b.record_abandoned()
        assert b.allow(6.1)  # slot free again


class TestClientBasics:
    def test_success_passthrough(self):
        sim = Simulation(1)
        edge = _edge(sim)
        client = ResilientClient(sim, edge, timeout=5.0, slo_deadline=2.0)
        done = []
        client.on_complete = lambda r: done.append(r)
        origin = _submit(sim, client)
        sim.run()
        assert [r.rid for r in done] == [origin.rid]
        assert origin.outcome == "ok"
        assert origin.deadline == pytest.approx(2.0)
        assert len(client.log) == 1
        assert client.log.breakdown().end_to_end[0] == pytest.approx(0.101)
        assert (client.operations, client.successes, client.attempts) == (1, 1, 1)
        assert client.slo_hits == 1

    def test_timeout_exhausts_attempts(self):
        sim = Simulation(1)
        edge = _edge(sim, service=Deterministic(10.0))
        client = ResilientClient(
            sim, edge, timeout=0.2,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01, backoff_cap=0.01),
        )
        done = []
        client.on_complete = lambda r: done.append(r)
        origin = _submit(sim, client)
        sim.run(until=5.0)
        assert origin.outcome == "exhausted"
        assert client.timeouts == 2 and client.retries == 1
        assert client.failures == 1 and client.successes == 0
        assert done == [origin]
        assert len(client.log) == 0  # failures never pollute the latency log

    def test_deadline_bounds_operation(self):
        sim = Simulation(1)
        edge = _edge(sim, service=Deterministic(10.0))
        client = ResilientClient(sim, edge, slo_deadline=0.5)
        origin = _submit(sim, client)
        sim.run(until=5.0)
        assert origin.outcome in ("deadline", "exhausted")
        assert origin.completed == pytest.approx(0.5)

    def test_cancel_on_timeout_reclaims_queue(self):
        sim = Simulation(1)
        edge = _edge(sim, service=Deterministic(10.0))
        client = ResilientClient(sim, edge, timeout=0.5)
        _submit(sim, client, at=0.0)
        _submit(sim, client, at=0.01)  # queued behind the first
        sim.run(until=3.0)
        assert edge.sites[0].station.cancellations >= 1

    def test_zombie_completion_ignored(self):
        # cancel_on_timeout=False: the attempt times out, the server
        # still finishes it later; that completion must not resurrect
        # the already-failed operation.
        sim = Simulation(1)
        edge = _edge(sim, service=Deterministic(1.0))
        client = ResilientClient(sim, edge, timeout=0.2, cancel_on_timeout=False)
        origin = _submit(sim, client)
        sim.run()
        assert origin.outcome == "exhausted"
        assert edge.sites[0].station.completions == 1  # zombie finished
        assert client.successes == 0 and client.failures == 1


class TestRetryRecovery:
    def test_retry_recovers_from_transient_link_loss(self):
        sim = Simulation(2)
        lossy = LossyLatency(ConstantLatency.from_ms(1.0), outages=[(0.0, 0.25)])
        edge = _edge(sim, latency=lossy)
        client = ResilientClient(
            sim, edge, timeout=0.2,
            retry=RetryPolicy(max_attempts=5, backoff_base=0.1, backoff_cap=0.2),
        )
        origin = _submit(sim, client)
        sim.run()
        assert origin.outcome == "ok"
        assert client.retries >= 1 and client.timeouts >= 1
        assert lossy.lost >= 1

    def test_retry_recovers_from_drop(self):
        sim = Simulation(3)
        edge = _edge(sim, service=Deterministic(0.3), queue_capacity=0)
        client = ResilientClient(
            sim, edge,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.2, backoff_cap=0.4),
        )
        _submit(sim, client, at=0.0)
        _submit(sim, client, at=0.01)  # no queue room: dropped, then retried
        sim.run()
        assert client.drops >= 1
        assert client.successes == 2 and client.failures == 0

    def test_drop_without_retry_on_drop_fails_operation(self):
        sim = Simulation(3)
        edge = _edge(sim, service=Deterministic(0.3), queue_capacity=0)
        client = ResilientClient(
            sim, edge,
            retry=RetryPolicy(max_attempts=4, retry_on_drop=False),
        )
        _submit(sim, client, at=0.0)
        second = _submit(sim, client, at=0.01)
        sim.run()
        assert second.outcome == "dropped"
        assert client.successes == 1 and client.failures == 1


class TestServerRefusals:
    def test_admission_reject_counted_and_retried(self):
        from repro.mitigation.admission import AdaptiveAdmission, StaticConcurrencyLimit

        sim = Simulation(5)
        site = EdgeSite(
            sim, "s0", 1, ConstantLatency.from_ms(1.0), Deterministic(0.3),
            admission=AdaptiveAdmission(StaticConcurrencyLimit(1.0)),
        )
        edge = EdgeDeployment(sim, [site])
        client = ResilientClient(
            sim, edge,
            retry=RetryPolicy(max_attempts=4, backoff_base=0.2, backoff_cap=0.4),
        )
        _submit(sim, client, at=0.0)
        _submit(sim, client, at=0.01)  # refused at the admission door
        sim.run()
        assert client.server_rejects >= 1
        assert client.drops == 0 and client.sheds == 0
        assert client.successes == 2  # the reject was retried to success
        assert client.summary(2.0).rejects == client.server_rejects

    def test_discipline_shed_counted_and_retried(self):
        from repro.sim.overload import CoDelDiscipline

        sim = Simulation(6)
        site = EdgeSite(
            sim, "s0", 1, ConstantLatency.from_ms(1.0), Deterministic(1.0),
            discipline=CoDelDiscipline(target=0.1, interval=0.2),
        )
        edge = EdgeDeployment(sim, [site])
        client = ResilientClient(
            sim, edge,
            retry=RetryPolicy(max_attempts=4, backoff_base=1.0, backoff_cap=2.0),
        )
        for i in range(5):
            _submit(sim, client, at=0.01 * i)
        sim.run()
        assert client.sheds >= 1
        assert client.server_rejects == 0
        assert client.summary(10.0).sheds == client.sheds


class TestHedging:
    def test_hedge_rescues_black_holed_attempt(self):
        sim = Simulation(4)
        lossy = LossyLatency(ConstantLatency.from_ms(1.0), outages=[(0.0, 1e9)])
        edge = _edge(sim, latency=lossy)
        cloud = _cloud(sim)
        client = ResilientClient(
            sim, edge, cloud, slo_deadline=5.0,
            hedge=HedgePolicy(delay=0.1, to_fallback=True),
        )
        origin = _submit(sim, client)
        sim.run()
        assert origin.outcome == "ok"
        assert client.hedges == 1
        # Won via the hedge: 0.1 hedge delay + 24 ms cloud RTT + service.
        assert client.log.breakdown().end_to_end[0] == pytest.approx(0.224, abs=1e-3)

    def test_no_hedge_when_first_attempt_is_fast(self):
        sim = Simulation(4)
        edge = _edge(sim)
        cloud = _cloud(sim)
        client = ResilientClient(sim, edge, cloud, hedge=HedgePolicy(delay=1.0))
        _submit(sim, client)
        sim.run()
        assert client.hedges == 0 and client.successes == 1

    def test_adaptive_hedge_waits_for_samples(self):
        sim = Simulation(5)
        edge = _edge(sim, service=Exponential(1.0 / 10.0), servers=4)
        cloud = _cloud(sim, service=Exponential(1.0 / 10.0))
        client = ResilientClient(
            sim, edge, cloud,
            hedge=HedgePolicy(quantile=0.9, min_samples=20, max_hedges=1),
        )
        OpenLoopSource(sim, client, Exponential(1.0 / 20.0), site="s0", stop_time=20.0)
        sim.run()
        assert client.successes == client.operations
        assert client.hedges > 0  # adapted threshold eventually armed
        # Amplification stays bounded: at most one hedge per operation.
        assert client.attempts / client.operations < 1.5


class TestBreakerAndFailover:
    def test_failover_when_home_site_down(self):
        sim = Simulation(6)
        edge = _edge(sim)
        cloud = _cloud(sim)
        client = ResilientClient(sim, edge, cloud, timeout=1.0)
        edge.sites[0].station.fail()
        origin = _submit(sim, client)
        sim.run()
        assert origin.outcome == "ok"
        assert client.failovers == 1
        assert cloud.log.breakdown().end_to_end.size == 1

    def test_failover_when_home_site_saturated(self):
        sim = Simulation(6)
        edge = _edge(sim, service=Deterministic(1.0))
        cloud = _cloud(sim)
        client = ResilientClient(sim, edge, cloud, saturation_threshold=2)
        for i in range(5):
            _submit(sim, client, at=0.001 * i)
        sim.run()
        assert client.failovers == 3  # beyond 2 in system, the rest divert
        assert client.successes == 5

    def test_breaker_trips_and_fast_fails_without_fallback(self):
        sim = Simulation(7)
        lossy = LossyLatency(ConstantLatency.from_ms(1.0), outages=[(0.0, 1e9)])
        edge = _edge(sim, latency=lossy)
        client = ResilientClient(
            sim, edge, timeout=0.1,
            breaker=BreakerConfig(window=10, failure_threshold=0.5,
                                  min_calls=3, reset_timeout=50.0),
        )
        for i in range(10):
            _submit(sim, client, at=0.5 * i)
        sim.run()
        assert client.breakers["s0"].state == "open"
        assert client.breaker_opens == 1
        assert client.rejected > 0  # later ops fast-failed locally
        assert client.successes == 0

    def test_breaker_diverts_to_fallback_and_recovers(self):
        sim = Simulation(8)
        lossy = LossyLatency(ConstantLatency.from_ms(1.0), outages=[(0.0, 3.0)])
        edge = _edge(sim, latency=lossy)
        cloud = _cloud(sim)
        client = ResilientClient(
            sim, edge, cloud, timeout=0.2, slo_deadline=2.0,
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01, backoff_cap=0.05),
            breaker=BreakerConfig(window=10, failure_threshold=0.5,
                                  min_calls=3, reset_timeout=1.0),
        )
        for i in range(40):
            _submit(sim, client, at=0.25 * i)
        sim.run()
        assert client.breaker_opens >= 1
        assert client.failovers > 0
        # After the outage window + a probe, traffic returns to the edge
        # and the breaker closes again.
        assert client.breakers["s0"].state == "closed"
        assert client.failures <= 2  # at most the earliest detections
        assert client.successes >= 38


class TestClosedLoopThroughClient:
    def test_population_conserved_under_failures(self):
        sim = Simulation(9)
        lossy = LossyLatency(ConstantLatency.from_ms(1.0), loss_prob=0.2)
        edge = _edge(sim, service=Exponential(0.2), servers=2, latency=lossy)
        client = ResilientClient(
            sim, edge, timeout=0.5, slo_deadline=2.0,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.05, backoff_cap=0.1),
        )
        source = ClosedLoopSource(
            sim, client, users=5, think=Exponential(1.0 / 5.0),
            site="s0", stop_time=100.0,
        )
        sim.run()
        # Every issued request came back (ok or failed): no stuck users.
        assert source.outstanding == 0
        assert source.generated == client.operations
        assert client.successes + client.failures == client.operations
        assert source.failed_responses == client.failures
        assert client.failures > 0  # the loss rate actually bit


class TestDeterminism:
    def _run(self):
        sim = Simulation(42)
        lossy = LossyLatency(ConstantLatency.from_ms(1.0), loss_prob=0.05)
        edge = _edge(sim, service=Exponential(0.2), servers=2, latency=lossy)
        cloud = _cloud(sim, service=Exponential(0.2))
        client = ResilientClient(
            sim, edge, cloud, timeout=0.5, slo_deadline=3.0,
            retry=RetryPolicy(max_attempts=3),
            breaker=BreakerConfig(min_calls=3),
        )
        OpenLoopSource(sim, client, Exponential(1.0 / 8.0), site="s0", stop_time=50.0)
        sim.run()
        return client

    def test_identical_seeds_identical_outcomes(self):
        a, b = self._run(), self._run()
        for attr in ("operations", "successes", "attempts", "retries",
                     "failovers", "timeouts", "breaker_opens"):
            assert getattr(a, attr) == getattr(b, attr)
        np.testing.assert_array_equal(
            a.log.breakdown().end_to_end, b.log.breakdown().end_to_end
        )

    def test_summary_consistency(self):
        client = self._run()
        s = client.summary(50.0)
        assert s.operations == client.operations
        assert s.operations == s.successes + s.failures
        assert 0.0 <= s.slo_attainment <= 1.0
        assert s.retry_amplification >= 1.0
        assert s.goodput == pytest.approx(s.slo_hits / 50.0)
