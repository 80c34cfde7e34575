"""Request-level resilience: deadlines, retries, hedging, breakers, failover.

The paper's comparison assumes every request is served by its first
target, but edge sites are operationally fragile (Section 5: single
machines, no N+1).  This module adds the client half of that story — a
:class:`ResilientClient` that sits between workload sources and
deployments and implements the standard production repertoire:

* **deadlines** — every logical operation carries an absolute SLO
  deadline; attempts carry timeout timers clamped to it, so lost or
  stranded requests are detected instead of hanging forever;
* **retries** — failed attempts are re-issued with exponentially
  growing, fully jittered backoff (:class:`RetryPolicy`), up to a cap;
* **hedging** — an optional speculative duplicate fired once the first
  attempt is slower than a configured (or observed-quantile) delay,
  first response wins (:class:`HedgePolicy`);
* **circuit breaking** — a per-site closed/open/half-open breaker over
  a sliding outcome window (:class:`CircuitBreaker`) stops hammering a
  dead or drowning site;
* **failover** — when the home edge site is down, saturated or its
  breaker is open, attempts route to a fallback deployment (the cloud).

The client is deliberately *deployment-shaped*: it exposes ``submit``,
``on_complete`` and ``log``, so every existing source (open-loop,
closed-loop, trace) drives it unchanged, and analysis code reads its
operation-level log exactly like a deployment's request log.

Two regimes matter for the paper's inversion result and are exercised
by ``benchmarks/test_extension_resilience.py``: aggressive retries
*amplify* load on the small edge queues and move the edge/cloud
crossover to lower utilization (a retry storm), while breakers plus
edge→cloud failover recover most of the edge's advantage under
injected outages.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.sim.engine import Simulation
from repro.sim.request import Request
from repro.sim.tracing import RequestLog
from repro.stats.refusals import RefusalCounts
from repro.stats.resilience import ResilienceSummary, summarize_resilience

__all__ = ["RetryPolicy", "HedgePolicy", "BreakerConfig", "CircuitBreaker", "ResilientClient"]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with full jitter (AWS-style).

    The delay before attempt ``n`` (n ≥ 2) is drawn uniformly from
    ``[0, min(backoff_cap, backoff_base · 2^(n-2))]`` — full jitter
    decorrelates retry waves, which matters when many clients time out
    together (the synchronized-retry spike that turns an outage blip
    into a storm).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    retry_on_drop: bool = True

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")

    def backoff(self, attempt: int, rng: np.random.Generator) -> float:
        """Jittered delay before issuing attempt number ``attempt``."""
        if attempt < 2:
            return 0.0
        cap = min(self.backoff_cap, self.backoff_base * 2.0 ** (attempt - 2))
        return float(rng.uniform(0.0, cap))


@dataclass(frozen=True)
class HedgePolicy:
    """Speculative duplicate requests after a latency threshold.

    With ``delay`` set, the hedge fires that many seconds after the
    first attempt; with ``delay=None`` the client adapts, hedging at the
    ``quantile`` of recently observed attempt latencies (no hedges until
    ``min_samples`` completions have been seen).  ``to_fallback`` sends
    the hedge to the fallback deployment when one is configured —
    hedging across *independent* infrastructure is what makes the
    duplicate useful during a site brown-out.
    """

    delay: float | None = None
    quantile: float = 0.95
    window: int = 512
    min_samples: int = 30
    to_fallback: bool = True
    max_hedges: int = 1

    def __post_init__(self):
        if self.delay is not None and self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {self.quantile}")
        if self.window < 1 or self.min_samples < 1 or self.max_hedges < 1:
            raise ValueError("window, min_samples and max_hedges must be >= 1")


@dataclass(frozen=True)
class BreakerConfig:
    """Sizing of the per-site circuit breakers.

    A breaker trips open when, among the last ``window`` attempt
    outcomes (with at least ``min_calls`` recorded), the failure
    fraction reaches ``failure_threshold``.  After ``reset_timeout``
    seconds it goes half-open and admits a single probe: success closes
    the breaker, failure re-opens it.
    """

    window: int = 20
    failure_threshold: float = 0.5
    min_calls: int = 5
    reset_timeout: float = 10.0

    def __post_init__(self):
        if self.window < 1 or self.min_calls < 1:
            raise ValueError("window and min_calls must be >= 1")
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ValueError(f"failure_threshold must be in (0, 1], got {self.failure_threshold}")
        if self.reset_timeout <= 0:
            raise ValueError(f"reset_timeout must be > 0, got {self.reset_timeout}")


class CircuitBreaker:
    """Closed / open / half-open breaker over a sliding outcome window."""

    def __init__(self, config: BreakerConfig):
        self.config = config
        self.state = "closed"
        self.opens = 0
        self._events: deque[int] = deque(maxlen=config.window)  # 1 = failure
        self._open_until = 0.0
        self._probe_in_flight = False

    def allow(self, now: float) -> bool:
        """Whether a new attempt may be sent at virtual time ``now``.

        In the half-open state exactly one probe is admitted; the caller
        must later report its outcome (or :meth:`record_abandoned` it).
        """
        if self.state == "closed":
            return True
        if self.state == "open":
            if now < self._open_until:
                return False
            self.state = "half_open"
            self._probe_in_flight = False
        if self._probe_in_flight:
            return False
        self._probe_in_flight = True
        return True

    def record_success(self, now: float) -> None:
        if self.state == "half_open":
            self.state = "closed"
            self._events.clear()
            self._probe_in_flight = False
            return
        self._events.append(0)

    def record_failure(self, now: float) -> None:
        if self.state == "half_open":
            self._trip(now)
            return
        self._events.append(1)
        if (
            self.state == "closed"
            and len(self._events) >= self.config.min_calls
            and sum(self._events) >= self.config.failure_threshold * len(self._events)
        ):
            self._trip(now)

    def record_abandoned(self) -> None:
        """Release the half-open probe slot when its attempt was superseded."""
        if self.state == "half_open":
            self._probe_in_flight = False

    def _trip(self, now: float) -> None:
        self.state = "open"
        self.opens += 1
        self._open_until = now + self.config.reset_timeout
        self._probe_in_flight = False
        self._events.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircuitBreaker(state={self.state!r}, opens={self.opens})"


class _Operation:
    """One logical request from a source, across all its attempts."""

    __slots__ = ("request", "deadline", "attempts", "hedges", "live", "done")

    def __init__(self, request: Request, deadline: float):
        self.request = request
        self.deadline = deadline
        self.attempts = 0  # non-hedge attempts issued (incl. fast-fails)
        self.hedges = 0
        # rid -> (attempt, target, breaker-or-None) for in-flight attempts
        self.live: dict[int, tuple] = {}
        self.done = False


class ResilientClient:
    """Deadline/retry/hedge/breaker/failover wrapper around deployments.

    Parameters
    ----------
    sim:
        Owning simulation.
    primary:
        Deployment receiving first attempts (typically the edge).
    fallback:
        Optional second deployment (typically the cloud) used for
        failover and cross-infrastructure hedges.
    timeout:
        Per-attempt timeout in seconds (``None`` = attempts are bounded
        only by the operation deadline).  On timeout the attempt is
        abandoned; with ``cancel_on_timeout`` its queued work is also
        reclaimed at the station.
    slo_deadline:
        Operation deadline relative to submission (``None`` = no
        deadline; a request arriving with a finite ``deadline`` field
        keeps it).
    retry:
        :class:`RetryPolicy` (``None`` disables retries).
    hedge:
        :class:`HedgePolicy` (``None`` disables hedging).
    breaker:
        :class:`BreakerConfig`; a breaker is created per home site
        (``None`` disables circuit breaking).
    saturation_threshold:
        Fail over when the home site holds at least this many requests
        (``None`` disables the saturation check).  Like the geo-LB, the
        client is assumed to see health-check state, not to divine it.
    cancel_on_timeout:
        Reclaim queued work on timeout.  ``False`` models the classic
        storm ingredient: the server cannot observe client abandonment
        and burns capacity on answers nobody is waiting for.
    """

    def __init__(
        self,
        sim: Simulation,
        primary,
        fallback=None,
        *,
        timeout: float | None = None,
        slo_deadline: float | None = None,
        retry: RetryPolicy | None = None,
        hedge: HedgePolicy | None = None,
        breaker: BreakerConfig | None = None,
        saturation_threshold: int | None = None,
        cancel_on_timeout: bool = True,
        name: str = "resilient",
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        if slo_deadline is not None and slo_deadline <= 0:
            raise ValueError(f"slo_deadline must be > 0, got {slo_deadline}")
        if saturation_threshold is not None and saturation_threshold < 1:
            raise ValueError(f"saturation_threshold must be >= 1, got {saturation_threshold}")
        self.sim = sim
        self.primary = primary
        self.fallback = fallback
        self.timeout = timeout
        self.slo_deadline = slo_deadline
        self.retry = retry
        self.hedge = hedge
        self.breaker_config = breaker
        self.saturation_threshold = saturation_threshold
        self.cancel_on_timeout = cancel_on_timeout
        self.name = name
        self.log = RequestLog()  # successful operations, client-perceived timing
        self.failed: list[Request] = []  # operations that gave up
        self.on_complete = None  # hook: every resolved operation (ok or failed)
        self.breakers: dict[str, CircuitBreaker] = {}
        # counters
        self.operations = 0
        self.successes = 0
        self.slo_hits = 0
        self.attempts = 0
        self.retries = 0
        self.hedges = 0
        self.failovers = 0
        self.timeouts = 0
        self.drops = 0
        self.sheds = 0  # server shed the attempt (queue discipline / overload)
        self.server_rejects = 0  # server admission control refused the attempt
        self.rejected = 0  # fast-fails: breaker open, no fallback
        self._rng = sim.spawn_rng()
        self._tel = sim.telemetry
        if self._tel is not None:
            self._tel.register_client(self)
        self._attempt_index: dict[int, _Operation] = {}
        self._latency_window: deque[float] = deque(maxlen=hedge.window if hedge else 1)
        self._hedge_cache: float | None = hedge.delay if hedge else None
        self._hedge_dirty = 0
        self._hook(primary)
        if fallback is not None and fallback is not primary:
            self._hook(fallback)

    # -- wiring ----------------------------------------------------------
    def _hook(self, deployment) -> None:
        prev = getattr(deployment, "on_complete", None)

        def hook(request: Request) -> None:
            if prev is not None:
                prev(request)
            self._attempt_complete(request)

        deployment.on_complete = hook

    # -- submission ------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Accept a logical operation from a source and run it to a verdict."""
        now = self.sim.now
        if math.isnan(request.created):
            request.created = now
        deadline = request.deadline
        if math.isinf(deadline) and self.slo_deadline is not None:
            deadline = now + self.slo_deadline
            request.deadline = deadline
        op = _Operation(request, deadline)
        self.operations += 1
        self._launch(op)

    def _launch(self, op: _Operation, is_hedge: bool = False, force_fallback: bool = False) -> None:
        now = self.sim.now
        site = op.request.site
        target = self.primary
        breaker = self._breaker_for(site)
        routed_breaker = breaker
        if self.fallback is not None:
            go_fallback = force_fallback
            if not go_fallback and not self._primary_available(site):
                go_fallback = True
            if not go_fallback and breaker is not None and not breaker.allow(now):
                go_fallback = True
            if go_fallback:
                target = self.fallback
                routed_breaker = None
                if not is_hedge:
                    self.failovers += 1
        elif breaker is not None and not breaker.allow(now):
            # Breaker open and nowhere to fail over: fast-fail locally
            # without burning a network round trip.
            op.attempts += 1
            self.attempts += 1
            self.rejected += 1
            if self._tel is not None:
                self._tel.record_attempt(
                    op.request,
                    "first" if op.attempts == 1 else "retry",
                    "breaker_open",
                    target="primary",
                    start=now,
                )
            self._after_attempt_failure(op)
            return

        attempt = Request(
            next(self.sim.rids),
            site=site,
            created=now,
            service_time=op.request.service_time,
            deadline=op.deadline,
        )
        attempt.op_id = op.request.rid
        if is_hedge:
            op.hedges += 1
            self.hedges += 1
            kind = "hedge"
        else:
            op.attempts += 1
            if op.attempts > 1:
                self.retries += 1
            kind = "first" if op.attempts == 1 else "retry"
        attempt.attempt = op.attempts + op.hedges
        self.attempts += 1
        op.live[attempt.rid] = (attempt, target, routed_breaker, kind)
        self._attempt_index[attempt.rid] = op
        expiry = op.deadline
        if self.timeout is not None:
            expiry = min(expiry, now + self.timeout)
        if math.isfinite(expiry):
            self.sim.schedule(max(0.0, expiry - now), self._on_timeout, attempt.rid)
        if (
            self.hedge is not None
            and not is_hedge
            and op.attempts == 1
            and op.hedges < self.hedge.max_hedges
        ):
            delay = self._hedge_delay()
            if delay is not None and now + delay < op.deadline:
                self.sim.schedule(delay, self._maybe_hedge, op)
        target.submit(attempt)

    # -- routing helpers -------------------------------------------------
    def _breaker_for(self, site: str | None) -> CircuitBreaker | None:
        if self.breaker_config is None:
            return None
        key = site if site is not None else "__default__"
        breaker = self.breakers.get(key)
        if breaker is None:
            breaker = self.breakers[key] = CircuitBreaker(self.breaker_config)
        return breaker

    def _home_station(self, site: str | None):
        by_name = getattr(self.primary, "by_name", None)
        if by_name is None or site is None:
            return None
        home = by_name.get(site)
        return None if home is None else home.station

    def _primary_available(self, site: str | None) -> bool:
        station = self._home_station(site)
        if station is None:
            return True
        if station.failed:
            return False
        if (
            self.saturation_threshold is not None
            and station.in_system >= self.saturation_threshold
        ):
            return False
        return True

    def _hedge_delay(self) -> float | None:
        hedge = self.hedge
        if hedge.delay is not None:
            return hedge.delay
        if len(self._latency_window) < hedge.min_samples:
            return None
        if self._hedge_cache is None or self._hedge_dirty >= 32:
            self._hedge_cache = float(
                np.quantile(np.asarray(self._latency_window), hedge.quantile)
            )
            self._hedge_dirty = 0
        return self._hedge_cache

    def _maybe_hedge(self, op: _Operation) -> None:
        if op.done or not op.live or op.attempts != 1:
            return  # resolved, already retried, or nothing left to hedge
        if op.hedges >= self.hedge.max_hedges:
            return
        force = self.hedge.to_fallback and self.fallback is not None
        self._launch(op, is_hedge=True, force_fallback=force)

    # -- attempt resolution ----------------------------------------------
    def _on_timeout(self, rid: int) -> None:
        op = self._attempt_index.pop(rid, None)
        if op is None or op.done:
            return
        entry = op.live.pop(rid, None)
        if entry is None:
            return
        attempt, target, breaker, kind = entry
        attempt.outcome = "timeout"
        self.timeouts += 1
        if self.cancel_on_timeout:
            attempt.canceled = True
            cancel = getattr(target, "cancel", None)
            if cancel is not None:
                cancel(attempt)
        if breaker is not None:
            breaker.record_failure(self.sim.now)
        if self._tel is not None:
            self._tel.record_attempt(attempt, kind, "timeout", self._target_label(target))
        self._after_attempt_failure(op)

    def _attempt_complete(self, attempt: Request) -> None:
        op = self._attempt_index.pop(attempt.rid, None)
        if op is None or op.done:
            return  # a zombie (timed out earlier) or foreign traffic
        _, target, breaker, kind = op.live.pop(attempt.rid)
        now = self.sim.now
        if attempt.outcome in ("dropped", "shed", "rejected"):
            # All three server refusals (bounded queue, discipline shed,
            # admission reject) are fast failures to the client and count
            # against the breaker the same way.
            if attempt.outcome == "shed":
                self.sheds += 1
            elif attempt.outcome == "rejected":
                self.server_rejects += 1
            else:
                self.drops += 1
            if breaker is not None:
                breaker.record_failure(now)
            if self._tel is not None:
                self._tel.record_attempt(attempt, kind, attempt.outcome, self._target_label(target))
            if self.retry is not None and not self.retry.retry_on_drop:
                if not op.live:
                    self._fail_op(op, "dropped")
                return
            self._after_attempt_failure(op)
            return
        if breaker is not None:
            breaker.record_success(now)
        if self._tel is not None:
            self._tel.record_attempt(attempt, kind, "ok", self._target_label(target))
        self._record_latency(now - attempt.created)
        for sibling_rid, (sibling, starget, sbreaker, skind) in list(op.live.items()):
            self._attempt_index.pop(sibling_rid, None)
            sibling.outcome = "superseded"
            sibling.canceled = True
            cancel = getattr(starget, "cancel", None)
            if cancel is not None:
                cancel(sibling)
            if sbreaker is not None:
                sbreaker.record_abandoned()
            if self._tel is not None:
                self._tel.record_attempt(sibling, skind, "superseded", self._target_label(starget))
        op.live.clear()
        op.done = True
        origin = op.request
        origin.arrived = attempt.arrived
        origin.service_start = attempt.service_start
        origin.service_end = attempt.service_end
        origin.service_time = attempt.service_time
        origin.site = attempt.site
        origin.attempt = op.attempts + op.hedges
        origin.completed = now
        origin.outcome = "ok"
        self.successes += 1
        if now <= op.deadline:
            self.slo_hits += 1
        self.log.add(origin)
        if self.on_complete is not None:
            self.on_complete(origin)

    def _after_attempt_failure(self, op: _Operation) -> None:
        if op.done or op.live:
            return  # a hedge sibling is still in flight
        now = self.sim.now
        if now >= op.deadline:
            self._fail_op(op, "deadline")
            return
        if self.retry is None or op.attempts >= max(1, getattr(self.retry, "max_attempts", 1)):
            self._fail_op(op, "exhausted")
            return
        delay = self.retry.backoff(op.attempts + 1, self._rng)
        if math.isfinite(op.deadline):
            delay = min(delay, max(0.0, (op.deadline - now) * 0.5))
        self.sim.schedule(delay, self._retry_fire, op)

    def _retry_fire(self, op: _Operation) -> None:
        if op.done or op.live:
            return
        if self.sim.now >= op.deadline:
            self._fail_op(op, "deadline")
            return
        self._launch(op)

    def _fail_op(self, op: _Operation, outcome: str) -> None:
        op.done = True
        origin = op.request
        origin.completed = self.sim.now
        origin.outcome = outcome
        origin.attempt = op.attempts + op.hedges
        self.failed.append(origin)
        if self._tel is not None:
            self._tel.record_failed_operation(origin)
        if self.on_complete is not None:
            self.on_complete(origin)

    def _target_label(self, target) -> str:
        """Which deployment an attempt went to, for span attributes."""
        if self.fallback is not None and target is self.fallback and target is not self.primary:
            return "fallback"
        return "primary"

    def _record_latency(self, latency: float) -> None:
        if self.hedge is not None and self.hedge.delay is None:
            self._latency_window.append(latency)
            self._hedge_dirty += 1

    # -- reporting -------------------------------------------------------
    @property
    def failures(self) -> int:
        """Operations that gave up (deadline exceeded / attempts exhausted)."""
        return len(self.failed)

    @property
    def breaker_opens(self) -> int:
        """Open transitions summed over all per-site breakers."""
        return sum(b.opens for b in self.breakers.values())

    @property
    def refusal_counts(self) -> RefusalCounts:
        """Server refusals observed across this client's attempts."""
        return RefusalCounts.from_client(self)

    def summary(self, duration: float | None = None) -> ResilienceSummary:
        """Operation-level metrics over ``duration`` (default: now)."""
        horizon = self.sim.now if duration is None else float(duration)
        latencies = self.log.breakdown().end_to_end if len(self.log) else None
        return summarize_resilience(
            duration=horizon,
            successes=self.successes,
            failures=self.failures,
            slo_hits=self.slo_hits,
            attempts=self.attempts,
            retries=self.retries,
            hedges=self.hedges,
            failovers=self.failovers,
            timeouts=self.timeouts,
            drops=self.drops,
            sheds=self.sheds,
            rejects=self.server_rejects,
            breaker_opens=self.breaker_opens,
            latencies=latencies,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResilientClient(name={self.name!r}, ops={self.operations}, "
            f"ok={self.successes}, failed={self.failures})"
        )
