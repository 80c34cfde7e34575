"""Supervised task execution: timeouts, retries, salvage and journaling.

The plain pool (:mod:`repro.parallel.pool`) is all-or-nothing: one
worker crash in a 500-point sweep raises and discards every completed
result.  This module is the fault-tolerant alternative that
``run_tasks`` switches to when the caller asks for any supervision
feature (``timeout=`` / ``retries=`` / ``salvage=`` / ``journal=``):

* **Process-per-task supervision.**  Each attempt runs in its own
  ``multiprocessing.Process`` with a dedicated pipe; the supervisor
  multiplexes completions with ``connection.wait`` and keeps a sliding
  window of ``workers`` attempts in flight.  A crashed worker (EOF on
  the pipe, nonzero exit) or a blown deadline (terminate + join) costs
  exactly one task, never the batch.
* **Deterministic retries.**  Backoff jitter is drawn from
  ``derive_rng(base_seed, _RETRY_STREAM, index, attempt)`` so a retry
  *schedule* is as reproducible as the results themselves — and because
  every task is a deterministic function of its arguments, a retry can
  only ever re-produce the result the first attempt would have returned.
* **:class:`TaskOutcome` envelopes.**  ``salvage=True`` returns one
  outcome per task (ok / failed / timed-out, traceback attached,
  attempt count, replay provenance) instead of raising, so a campaign
  keeps the 499 finished points when point 500 dies.
* **Journal integration.**  With a journal attached (duck-typed —
  :class:`repro.experiments.store.RunJournal` in practice; this module
  deliberately does not import ``repro.experiments``), completed tasks
  are replayed from disk before any process is spawned and fresh results
  are durably appended as they arrive, making any run killed at an
  arbitrary point resumable bit-identically.

``workers=1`` keeps sequential semantics: tasks run in-process, in
order, with retries and journaling but no preemption (a per-task
``timeout`` cannot be enforced without a worker process and is warned
about).  See ``docs/robustness.md``.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
import warnings
from dataclasses import dataclass
from multiprocessing import Pipe, Process
from multiprocessing.connection import Connection, wait as _conn_wait
from collections.abc import Callable, Sequence
from typing import Any

from repro.parallel.chaos import chaos_point
from repro.parallel.seeding import derive_rng, derive_seed

__all__ = [
    "ParallelTaskError",
    "RetryPolicy",
    "SupervisionStats",
    "TaskOutcome",
    "run_supervised",
    "supervision_stats",
]

#: Set in worker processes so nested ``run_tasks`` calls stay serial.
_IN_WORKER_ENV = "REPRO_IN_WORKER"

#: Seed-derivation stream reserved for retry backoff jitter; disjoint
#: from task-index streams, so retrying never perturbs task seeds.
_RETRY_STREAM = 0x5EED

#: Characters of ``repr(args)`` carried in error messages and outcomes.
_ARGS_REPR_LIMIT = 200


def _truncate(text: str, limit: int = _ARGS_REPR_LIMIT) -> str:
    if len(text) <= limit:
        return text
    return text[: limit - 3] + "..."


def _task_context(label: str, index: int, args: tuple, base_seed: int | None) -> str:
    """``"sweep point #3 (args=(9.5, 3), seed=...)"`` — enough to rerun it."""
    ctx = f"{label} #{index} (args={_truncate(repr(args))}"
    if base_seed is not None:
        ctx += f", seed=derive_seed({base_seed}, ...)={derive_seed(base_seed, index)}"
    return ctx + ")"


class ParallelTaskError(RuntimeError):
    """One task of a parallel batch failed.

    The message names the failing task (label and index), carries the
    truncated args repr and — when the caller passed ``base_seed=`` —
    the task's derived seed, so a crashed sweep point is reproducible
    from the error text alone.  The worker-side traceback is embedded;
    the original exception is chained as ``__cause__`` on in-process
    paths (worker processes can only ship the formatted text).

    Structured fields (``task_index``, ``label``, ``args_repr``,
    ``seed``) are available when raised by the supervised path; they
    default to ``None`` on messages that crossed a process boundary.
    """

    def __init__(
        self,
        message: str,
        *,
        task_index: int | None = None,
        label: str | None = None,
        args_repr: str | None = None,
        seed: int | None = None,
    ):
        super().__init__(message)
        self.task_index = task_index
        self.label = label
        self.args_repr = args_repr
        self.seed = seed


@dataclass
class TaskOutcome:
    """What happened to one task under supervision.

    ``result`` is meaningful only when ``status == "ok"``; ``error`` is
    a one-line ``"ExcType: message"`` (or a crash/timeout description)
    and ``traceback`` the full worker-side text when one exists.
    """

    index: int
    label: str
    status: str  # "ok" | "failed" | "timed-out"
    result: Any = None
    error: str | None = None
    traceback: str | None = None
    attempts: int = 1
    from_journal: bool = False
    seed: int | None = None
    args_repr: str = "()"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def retried(self) -> int:
        """How many retries this task consumed (0 = first attempt stood)."""
        return max(0, self.attempts - 1)

    def to_error(self, base_seed: int | None = None) -> ParallelTaskError:
        """The enriched exception this (non-ok) outcome corresponds to."""
        ctx = f"{self.label} #{self.index} (args={self.args_repr}"
        if self.seed is not None:
            ctx += f", seed=derive_seed({base_seed}, ...)={self.seed}"
        ctx += ")"
        noun = "timed out" if self.status == "timed-out" else "failed"
        msg = f"{ctx} {noun} after {self.attempts} attempt(s): {self.error}"
        if self.traceback:
            msg += "\n" + self.traceback
        return ParallelTaskError(
            msg,
            task_index=self.index,
            label=self.label,
            args_repr=self.args_repr,
            seed=self.seed,
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministically-jittered exponential backoff.

    ``delay(base_seed, index, attempt)`` for attempt ``n`` (1-based) is
    ``backoff * backoff_factor**(n-1)`` capped at ``max_backoff`` and
    stretched by up to ``jitter`` (uniform), with the jitter drawn from
    a :func:`repro.parallel.seeding.derive_rng` stream keyed by
    ``(base_seed, _RETRY_STREAM, index, attempt)`` — the schedule is a
    pure function of the experiment's seed, never of wall-clock state.
    """

    retries: int = 0
    timeout: float | None = None
    backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 5.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.backoff < 0 or self.max_backoff < 0 or self.jitter < 0:
            raise ValueError("backoff, max_backoff and jitter must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def delay(self, base_seed: int | None, index: int, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1 = first retry)."""
        base = min(self.max_backoff, self.backoff * self.backoff_factor ** (attempt - 1))
        if base <= 0 or self.jitter <= 0:
            return base
        rng = derive_rng(
            0 if base_seed is None else base_seed, _RETRY_STREAM, index, attempt
        )
        return base * (1.0 + self.jitter * float(rng.random()))


@dataclass
class SupervisionStats:
    """Process-wide counters for the supervised executor.

    Conforms to the ``observables()`` protocol (rule RPR004), so the
    live telemetry layer can export the counters as gauges:
    ``telemetry.register_observables("parallel", supervision_stats())``.
    """

    completed: int = 0
    failures: int = 0
    timeouts: int = 0
    crashes: int = 0
    retries: int = 0
    journal_hits: int = 0
    salvaged: int = 0

    def observables(self) -> dict[str, Callable[[], int]]:
        return {
            "completed": lambda: self.completed,
            "failures": lambda: self.failures,
            "timeouts": lambda: self.timeouts,
            "crashes": lambda: self.crashes,
            "retries": lambda: self.retries,
            "journal_hits": lambda: self.journal_hits,
            "salvaged": lambda: self.salvaged,
        }

    def snapshot(self) -> dict[str, int]:
        return {name: reader() for name, reader in self.observables().items()}

    def reset(self) -> None:
        for name in self.snapshot():
            setattr(self, name, 0)


_STATS = SupervisionStats()


def supervision_stats() -> SupervisionStats:
    """The process-wide :class:`SupervisionStats` singleton."""
    return _STATS


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _worker_main(conn: Connection, index: int, fn: Callable, args: tuple) -> None:
    """Run one task attempt in a dedicated process; ship the outcome."""
    # Ctrl-C is the *supervisor's* signal: it terminates workers
    # deliberately during cleanup.  Letting SIGINT hit workers directly
    # would race that shutdown and corrupt in-flight pipe messages.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.environ[_IN_WORKER_ENV] = "1"
    from repro.obs import provider

    provider.uninstall()
    chaos_point(index)
    try:
        result = fn(*args)
    except BaseException as exc:  # ship *any* failure, incl. SystemExit
        conn.send(
            ("error", type(exc).__name__, str(exc), traceback.format_exc())
        )
    else:
        try:
            conn.send(("ok", result))
        except Exception as exc:
            conn.send(
                (
                    "error",
                    type(exc).__name__,
                    f"task result is not picklable: {exc}",
                    traceback.format_exc(),
                )
            )
    conn.close()


@dataclass
class _InFlight:
    index: int
    attempt: int
    process: Process
    conn: Connection
    deadline: float | None


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------

def run_supervised(
    fn: Callable,
    tasks: Sequence[tuple],
    *,
    workers: int,
    policy: RetryPolicy,
    label: str = "task",
    base_seed: int | None = None,
    journal: Any = None,
    fail_fast: bool = True,
    on_result: Callable[[TaskOutcome], None] | None = None,
) -> list[TaskOutcome]:
    """Run every task under supervision; return one outcome per task.

    ``journal`` is duck-typed: anything with ``key(label=, index=,
    args=, fn=)``, ``get(key) -> (hit, result)`` and ``put(key, result,
    label=, index=, args=)`` — completed tasks replay from it, fresh
    results are appended to it the moment they arrive (before the next
    dispatch), so an interrupt at any point leaves it resumable.

    With ``fail_fast=True`` the first task to exhaust its attempts
    raises its :meth:`TaskOutcome.to_error`; with ``fail_fast=False``
    (``salvage=``) failures are returned in their envelopes instead.

    ``on_result`` (optional) is invoked in the supervisor process with
    each task's final :class:`TaskOutcome` as it settles — journal
    replays first, then live completions/failures in completion order.
    Per-attempt events (retries in flight) are not reported; a task
    settles exactly once.
    """
    tasks = [tuple(t) for t in tasks]
    outcomes: list[TaskOutcome | None] = [None] * len(tasks)
    keys: list[str | None] = [None] * len(tasks)
    todo: list[int] = []
    for i, args in enumerate(tasks):
        if journal is not None:
            keys[i] = journal.key(label=label, index=i, args=args, fn=fn)
            hit, result = journal.get(keys[i])
            if hit:
                outcomes[i] = _outcome(i, label, args, base_seed, "ok",
                                       result=result, from_journal=True)
                _STATS.journal_hits += 1
                if on_result is not None:
                    on_result(outcomes[i])
                continue
        todo.append(i)

    if workers > 1 and len(todo) > 1:
        _run_parallel(fn, tasks, todo, keys, outcomes, workers=workers,
                      policy=policy, label=label, base_seed=base_seed,
                      journal=journal, fail_fast=fail_fast,
                      on_result=on_result)
    else:
        _run_serial(fn, tasks, todo, keys, outcomes, policy=policy,
                    label=label, base_seed=base_seed, journal=journal,
                    fail_fast=fail_fast, on_result=on_result)

    if not fail_fast:
        _STATS.salvaged += sum(
            1 for o in outcomes if o is not None and not o.ok
        )
    return [o for o in outcomes if o is not None]


def _outcome(
    index: int,
    label: str,
    args: tuple,
    base_seed: int | None,
    status: str,
    *,
    result: Any = None,
    error: str | None = None,
    tb: str | None = None,
    attempts: int = 1,
    from_journal: bool = False,
) -> TaskOutcome:
    return TaskOutcome(
        index=index,
        label=label,
        status=status,
        result=result,
        error=error,
        traceback=tb,
        attempts=attempts,
        from_journal=from_journal,
        seed=None if base_seed is None else derive_seed(base_seed, index),
        args_repr=_truncate(repr(args)),
    )


def _record_ok(outcomes, keys, journal, tasks, label, base_seed, index,
               result, attempts, on_result=None) -> None:
    """Journal first (durability), then publish the outcome."""
    if journal is not None:
        journal.put(keys[index], result, label=label, index=index,
                    args=tasks[index])
    outcomes[index] = _outcome(index, label, tasks[index], base_seed, "ok",
                               result=result, attempts=attempts)
    _STATS.completed += 1
    if on_result is not None:
        on_result(outcomes[index])


def _run_serial(fn, tasks, todo, keys, outcomes, *, policy, label,
                base_seed, journal, fail_fast, on_result=None) -> None:
    """In-process, in-order execution: retries + journal, no preemption."""
    if policy.timeout is not None:
        warnings.warn(
            "run_tasks: per-task timeout is not enforced with workers=1 "
            "(there is no worker process to terminate); use workers >= 2 "
            "for timeout supervision",
            RuntimeWarning,
            stacklevel=4,
        )
    for i in todo:
        attempt = 1
        while True:
            chaos_point(i)
            try:
                result = fn(*tasks[i])
            except Exception as exc:
                if attempt <= policy.retries:
                    _STATS.retries += 1
                    time.sleep(policy.delay(base_seed, i, attempt))
                    attempt += 1
                    continue
                _STATS.failures += 1
                outcomes[i] = _outcome(
                    i, label, tasks[i], base_seed, "failed",
                    error=f"{type(exc).__name__}: {exc}",
                    tb=traceback.format_exc(), attempts=attempt,
                )
                if on_result is not None:
                    on_result(outcomes[i])
                if fail_fast:
                    raise outcomes[i].to_error(base_seed) from exc
                break
            else:
                _record_ok(outcomes, keys, journal, tasks, label, base_seed,
                           i, result, attempt, on_result)
                break


def _spawn(fn, tasks, index, attempt, policy, now) -> _InFlight:
    recv_end, send_end = Pipe(duplex=False)
    proc = Process(
        target=_worker_main, args=(send_end, index, fn, tasks[index]),
        daemon=True,
    )
    # Mask SIGINT across the fork.  A Ctrl-C landing mid-``start()``
    # raises KeyboardInterrupt inside an ``os.register_at_fork``
    # callback (e.g. logging's lock release), where CPython reports it
    # as "Exception ignored" and DROPS it — the interrupt is silently
    # lost and the run completes as if never signalled.  Deferring
    # delivery until the mask is restored lands it in the supervisor
    # loop, whose cleanup path terminates workers and re-raises.
    if hasattr(signal, "pthread_sigmask"):
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            proc.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    else:  # pragma: no cover - Windows: no fork, no at-fork window
        proc.start()
    # Close the parent's copy of the write end so a dead child reads as
    # EOF on recv_end instead of a hang.
    send_end.close()
    deadline = None if policy.timeout is None else now + policy.timeout
    return _InFlight(index, attempt, proc, recv_end, deadline)


def _reap(flight: _InFlight) -> None:
    flight.process.join()
    flight.conn.close()


def _run_parallel(fn, tasks, todo, keys, outcomes, *, workers, policy,
                  label, base_seed, journal, fail_fast,
                  on_result=None) -> None:
    """Sliding-window process-per-task supervisor."""
    # (index, attempt, not_before): attempts waiting to be dispatched.
    pending: list[tuple[int, int, float]] = [(i, 1, 0.0) for i in todo]
    running: dict[Connection, _InFlight] = {}

    def finalize(flight: _InFlight, status: str, error: str,
                 tb: str | None) -> None:
        """Retry if attempts remain, else record (and maybe raise) failure."""
        now = time.monotonic()  # repro: noqa[RPR001] -- supervision deadlines are wall-clock, not simulation time
        if flight.attempt <= policy.retries:
            _STATS.retries += 1
            backoff = policy.delay(base_seed, flight.index, flight.attempt)
            pending.append((flight.index, flight.attempt + 1, now + backoff))
            return
        _STATS.failures += 1
        outcomes[flight.index] = _outcome(
            flight.index, label, tasks[flight.index], base_seed, status,
            error=error, tb=tb, attempts=flight.attempt,
        )
        if on_result is not None:
            on_result(outcomes[flight.index])
        if fail_fast:
            raise outcomes[flight.index].to_error(base_seed)

    try:
        while pending or running:
            now = time.monotonic()  # repro: noqa[RPR001] -- supervision deadlines are wall-clock, not simulation time
            # Dispatch every eligible pending attempt into free slots.
            while len(running) < workers:
                slot = next(
                    (k for k, (_, _, nb) in enumerate(pending) if nb <= now),
                    None,
                )
                if slot is None:
                    break
                index, attempt, _ = pending.pop(slot)
                flight = _spawn(fn, tasks, index, attempt, policy, now)
                running[flight.conn] = flight
            if not running:
                # Every remaining attempt is backing off; sleep to the
                # earliest eligibility.
                time.sleep(max(0.0, min(nb for _, _, nb in pending) - now))
                continue
            # Block until a worker reports, a deadline expires, or a
            # backed-off retry becomes dispatchable.
            wakeups = [f.deadline for f in running.values()
                       if f.deadline is not None]
            # Only *future* eligibility counts: an already-eligible retry
            # is waiting on a slot, which only a completion can free.
            wakeups += [nb for _, _, nb in pending if nb > now]
            timeout = None if not wakeups else max(0.0, min(wakeups) - now)
            ready = _conn_wait(list(running), timeout=timeout)
            for conn in ready:
                flight = running.pop(conn)
                try:
                    message = conn.recv()
                except EOFError:
                    _reap(flight)
                    _STATS.crashes += 1
                    finalize(
                        flight, "failed",
                        "worker crashed (killed or exited) with exit code "
                        f"{flight.process.exitcode}", None,
                    )
                    continue
                _reap(flight)
                if message[0] == "ok":
                    _record_ok(outcomes, keys, journal, tasks, label,
                               base_seed, flight.index, message[1],
                               flight.attempt, on_result)
                else:
                    _, etype, emsg, tb = message
                    finalize(flight, "failed", f"{etype}: {emsg}", tb)
            # Enforce deadlines on whatever is still in flight.
            now = time.monotonic()  # repro: noqa[RPR001] -- supervision deadlines are wall-clock, not simulation time
            for conn, flight in list(running.items()):
                if flight.deadline is None or now < flight.deadline:
                    continue
                del running[conn]
                flight.process.terminate()
                _reap(flight)
                _STATS.timeouts += 1
                finalize(
                    flight, "timed-out",
                    f"exceeded per-task timeout of {policy.timeout}s", None,
                )
    except BaseException:
        # Fail-fast error, KeyboardInterrupt, anything: leave no orphans.
        # Journaled results are already durable, so the run is resumable.
        for flight in running.values():
            flight.process.terminate()
        for flight in running.values():
            _reap(flight)
        raise
