"""The kill-safe work-stealing scheduler for campaign trial matrices.

This is the execution half of the declarative layer in
:mod:`repro.campaign.spec`: a :class:`~repro.campaign.spec.TrialMatrix`
in, a complete, durably journalled result set out -- surviving the
death of any worker *or the coordinator itself* at any instant.

Architecture (one coordinator process, ``workers`` forked workers):

* **work stealing** -- tasks are never pre-partitioned; every idle
  worker is handed the next due task (overdue retries first, then fresh
  trials), so stragglers and heterogeneous trial costs balance
  themselves and a dying fleet just runs slower instead of stranding a
  partition.
* **leases with heartbeat liveness** -- each dispatch writes a ``LEASE``
  record and starts a liveness clock; workers heartbeat from a side
  thread every ``heartbeat_every`` seconds even while a trial computes.
  A worker that stops beating for ``lease_ttl`` is presumed dead,
  SIGKILLed, and its trial reclaimed -- the same path as an observed
  death (closed result pipe), so silent hangs cannot wedge a campaign.
* **environmental vs deterministic failure** -- a worker death is
  environmental: the trial is requeued with capped exponential backoff
  up to ``max_trial_retries`` times and only then recorded as
  ``"crashed"``, carrying its full per-attempt log.  A trial that
  overruns ``trial_timeout`` is *deterministic* (trials are pure
  functions of their seed): it is recorded as ``"timeout"`` once, never
  retried.
* **graceful degradation** -- a dead worker slot is respawned up to
  ``respawn_limit`` times, after which the fan-out shrinks; if every
  slot is gone the coordinator finishes the remaining trials serially
  in-process.  Throughout, a partial stamped artifact is streamed to
  the store directory every ``partial_every`` results.
* **durability and resume** -- all journalling happens in the
  coordinator (single writer).  A ``RESULT`` is flushed to the kernel
  before it is surfaced, so ``kill -9`` of the coordinator loses at
  most in-flight trials -- and those are deterministic.  ``resume=True``
  verifies the stamped ``meta.json`` against the matrix digest, replays
  the journal (results kept, orphaned leases requeued, retry budgets
  restored), and continues; because every hashed artifact field is a
  pure function of ``(spec, trial_id)``, the resumed run's final
  artifact carries the bit-identical content hash of an uninterrupted
  one.  :mod:`repro.campaign.chaos` turns that claim into a self-test.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import asdict, dataclass
from multiprocessing.connection import wait as connection_wait

from repro.campaign.journal import (
    CampaignJournal,
    journal_exists,
    replay_journal,
    verify_campaign_meta,
    write_campaign_meta,
    write_partial_artifact,
)
from repro.campaign.spec import TrialMatrix, TrialTask
from repro.campaign.stats import matrix_artifact
from repro.campaign.trial import CampaignSpec, TrialResult, run_trial

TrialFn = Callable[[CampaignSpec, int], TrialResult]
#: Test/chaos hook run in the *worker* before each attempt; may
#: ``os._exit`` (environmental death) or sleep (hang) -- that is its
#: entire purpose.  Must be deterministic in ``(task_id, attempt)`` so
#: chaos schedules replay.
ChaosFn = Callable[[int, int], None]


def default_trial_fn(spec: CampaignSpec, trial_id: int) -> TrialResult:
    return run_trial(spec, trial_id)


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class SchedulerConfig:
    """The scheduler's full robustness policy surface."""

    workers: int = 1
    #: Wall-clock budget per attempt; overrun = deterministic timeout.
    trial_timeout: float | None = None
    #: Environmental deaths tolerated per trial before ``"crashed"``.
    max_trial_retries: int = 2
    #: First requeue backoff; doubles per death, capped below.
    retry_backoff: float = 0.2
    backoff_cap: float = 5.0
    #: Worker liveness cadence and the lease expiry that polices it.
    heartbeat_every: float = 0.25
    lease_ttl: float = 3.0
    #: Respawns per worker slot before the fan-out shrinks for good.
    respawn_limit: int = 3
    #: Stream a partial stamped artifact every N fresh results (0=off;
    #: needs a store directory).
    partial_every: int = 0
    poll_interval: float = 0.05


@dataclass
class SchedStats:
    """Execution incidents (volatile: excluded from artifact hashes)."""

    requeues: int = 0
    lease_reclaims: int = 0
    worker_deaths: int = 0
    respawns: int = 0
    timeouts: int = 0
    crashes: int = 0
    resumed_results: int = 0
    serial_fallback_tasks: int = 0
    partials_written: int = 0
    #: bytes of the journal found at opening: its valid prefix, the rest
    journal_kept_bytes: int = 0
    journal_discarded_bytes: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class MatrixRun:
    """A completed matrix execution: every task's result, in task order."""

    matrix: TrialMatrix
    results: list[TrialResult]
    stats: SchedStats
    wall_seconds: float

    def artifact(self) -> dict:
        return matrix_artifact(
            self.matrix,
            self.results,
            self.wall_seconds,
            execution=self.stats.as_dict(),
        )


def _failed_result(
    trial_id: int, outcome: str, wall: float, detail: str
) -> TrialResult:
    return TrialResult(
        trial_id=trial_id,
        outcome=outcome,
        steps=0,
        latency=None,
        wall_seconds=wall,
        wall_latency=None,
        entries=0,
        faults=0,
        me1_after_horizon=0,
        digest="",
        detail=detail,
    )


# ---------------------------------------------------------------------------
# The worker side
# ---------------------------------------------------------------------------


def _worker_main(
    slot_id: int,
    cmd,
    res,
    inherited,
    configs: dict[str, CampaignSpec],
    trial_fn: TrialFn,
    chaos_fn: ChaosFn | None,
    heartbeat_every: float,
) -> None:
    """One persistent worker: recv task, run trial, send result, repeat.

    A daemon thread heartbeats on the result pipe even while the main
    thread computes, so the coordinator can tell "slow" from "gone".
    Any pipe failure means the coordinator died or moved on -- exit
    immediately rather than computing for nobody.
    """
    # The fork copied every pipe end the coordinator had open -- the
    # parent-side ends of this worker's own pipes and every sibling
    # slot's ends.  Close them now: a retained write end of our own cmd
    # pipe would keep recv() below from ever seeing EOF after the
    # coordinator dies, stranding the worker forever.
    for conn in inherited:
        try:
            conn.close()
        except OSError:
            pass
    send_lock = threading.Lock()
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_every):
            try:
                with send_lock:
                    res.send(("hb", slot_id))
            except (BrokenPipeError, OSError):
                os._exit(0)

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            try:
                message = cmd.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            task_id, config, trial_id, attempt = message
            if chaos_fn is not None:
                chaos_fn(task_id, attempt)
            result = trial_fn(configs[config], trial_id)
            try:
                with send_lock:
                    res.send(("done", task_id, attempt, result))
            except (BrokenPipeError, OSError):
                break  # coordinator is gone; nobody wants the result
    finally:
        stop.set()
        res.close()


class _Lease:
    """One in-flight dispatch: who runs what, since when, until when."""

    __slots__ = ("task_id", "attempt", "started", "deadline")

    def __init__(self, task_id: int, attempt: int, deadline: float | None):
        self.task_id = task_id
        self.attempt = attempt
        self.started = time.monotonic()
        self.deadline = deadline


class _Slot:
    """One worker slot: the live process, its pipes, its lease."""

    __slots__ = ("slot_id", "proc", "cmd", "res", "spawns", "last_beat", "lease")

    def __init__(self, slot_id: int):
        self.slot_id = slot_id
        self.proc = None
        self.cmd = None
        self.res = None
        self.spawns = 0
        self.last_beat = 0.0
        self.lease: _Lease | None = None

    def close(self, kill: bool = False) -> None:
        if self.proc is not None:
            if kill and self.proc.is_alive():
                self.proc.kill()
            if self.cmd is not None:
                self.cmd.close()
            if self.res is not None:
                self.res.close()
            self.proc.join()
            self.proc = None


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


class _Coordinator:
    def __init__(
        self,
        matrix: TrialMatrix,
        config: SchedulerConfig,
        *,
        store_dir: str | None,
        resume: bool,
        trial_fn: TrialFn,
        chaos_fn: ChaosFn | None,
        on_result: Callable[[TrialResult], None] | None,
    ):
        self.matrix = matrix
        self.config = config
        self.store_dir = store_dir
        self.trial_fn = trial_fn
        self.chaos_fn = chaos_fn
        self.on_result = on_result
        self.stats = SchedStats()
        self.results: dict[int, TrialResult] = {}
        self.attempts: dict[int, int] = {}
        self.history: dict[int, list[str]] = {}
        self.retry: list[tuple[float, int]] = []  # heap (ready_at, task_id)
        self.fresh_done = 0
        self.started = time.perf_counter()
        self.journal: CampaignJournal | None = None

        if store_dir is not None:
            if resume:
                verify_campaign_meta(store_dir, matrix)
                state = replay_journal(store_dir)
                self.results.update(state.results)
                self.stats.resumed_results = len(state.results)
                for task_id, log in state.attempt_log.items():
                    self.attempts[task_id] = len(log)
                    self.history[task_id] = [
                        f"attempt {entry['attempt']}: {entry['kind']} "
                        f"(exitcode {entry['exitcode']}), "
                        f"backoff {entry['backoff']:g}s"
                        for entry in log
                    ]
            else:
                if journal_exists(store_dir):
                    raise ValueError(
                        f"{store_dir}: already holds a campaign journal; "
                        "pass resume=True to continue it or use a fresh "
                        "store dir"
                    )
                write_campaign_meta(store_dir, matrix)
            self.journal = CampaignJournal(store_dir)
            self.stats.journal_kept_bytes = self.journal.kept
            self.stats.journal_discarded_bytes = self.journal.discarded

        self.pending = deque(
            task.task_id
            for task in matrix.tasks
            if task.task_id not in self.results
        )

    # -- shared plumbing ---------------------------------------------------

    def task(self, task_id: int) -> TrialTask:
        return self.matrix.tasks[task_id]

    def finish(self, task_id: int, attempt: int, result: TrialResult) -> None:
        """Record a task's final result: journal first, then surface."""
        if self.journal is not None:
            self.journal.result(task_id, attempt, result)
        self.results[task_id] = result
        self.fresh_done += 1
        if self.on_result is not None:
            self.on_result(result)
        if (
            self.store_dir is not None
            and self.config.partial_every
            and self.fresh_done % self.config.partial_every == 0
        ):
            self.stream_partial()

    def stream_partial(self) -> None:
        rows = [
            self.results.get(i) for i in range(len(self.matrix.tasks))
        ]
        payload = matrix_artifact(
            self.matrix,
            rows,
            time.perf_counter() - self.started,
            execution=self.stats.as_dict(),
            partial=True,
        )
        write_partial_artifact(self.store_dir, payload)
        self.stats.partials_written += 1

    def requeue_death(
        self, task_id: int, attempt: int, kind: str, exitcode: object
    ) -> None:
        """An environmental death: backoff-requeue, or crash out with
        the full attempt log (the log also lands in the journal)."""
        deaths = self.attempts.get(task_id, 0) + 1
        self.attempts[task_id] = deaths
        log = self.history.setdefault(task_id, [])
        if deaths <= self.config.max_trial_retries:
            backoff = min(
                self.config.backoff_cap,
                self.config.retry_backoff * (2 ** (deaths - 1)),
            )
            self.stats.requeues += 1
            if self.journal is not None:
                self.journal.requeue(
                    task_id, attempt, kind,
                    exitcode if isinstance(exitcode, int) else None,
                    backoff,
                )
            log.append(
                f"attempt {attempt}: {kind} (exitcode {exitcode}), "
                f"backoff {backoff:g}s"
            )
            heapq.heappush(
                self.retry, (time.monotonic() + backoff, task_id)
            )
            return
        log.append(f"attempt {attempt}: {kind} (exitcode {exitcode})")
        self.stats.crashes += 1
        detail = (
            f"worker {kind} (exitcode {exitcode}) after {deaths} attempts; "
            + "; ".join(log)
        )
        result = _failed_result(
            self.task(task_id).trial_id, "crashed", 0.0, detail
        )
        self.finish(task_id, attempt, result)

    def next_task(self, now: float) -> int | None:
        if self.retry and self.retry[0][0] <= now:
            return heapq.heappop(self.retry)[1]
        if self.pending:
            return self.pending.popleft()
        return None

    def outstanding(self) -> list[int]:
        """Every unfinished task id, in task order (for serial fallback)."""
        queued = set(self.pending) | {tid for _at, tid in self.retry}
        return sorted(queued)

    # -- serial execution (workers<=1, degraded mode, tiny remainders) ----

    def run_serial(self, task_ids: list[int], degraded: bool = False) -> None:
        for task_id in task_ids:
            task = self.task(task_id)
            attempt = self.attempts.get(task_id, 0)
            if self.journal is not None:
                self.journal.lease(task_id, attempt, worker=-1)
            result = self.trial_fn(task.spec, task.trial_id)
            if degraded:
                self.stats.serial_fallback_tasks += 1
            self.finish(task_id, attempt, result)

    # -- parallel execution ------------------------------------------------

    def spawn(self, slot: _Slot, ctx, slots: dict[int, _Slot]) -> None:
        cmd_recv, cmd_send = ctx.Pipe(duplex=False)
        res_recv, res_send = ctx.Pipe(duplex=False)
        inherited = [cmd_send, res_recv]
        for other in slots.values():
            if other is slot:
                continue
            inherited.extend(
                c for c in (other.cmd, other.res) if c is not None
            )
        proc = ctx.Process(
            target=_worker_main,
            args=(
                slot.slot_id,
                cmd_recv,
                res_send,
                inherited,
                self.matrix.config_specs(),
                self.trial_fn,
                self.chaos_fn,
                self.config.heartbeat_every,
            ),
        )
        proc.start()
        cmd_recv.close()
        res_send.close()
        slot.proc = proc
        slot.cmd = cmd_send
        slot.res = res_recv
        slot.spawns += 1
        slot.last_beat = time.monotonic()
        slot.lease = None

    def slot_down(
        self, slot: _Slot, slots: dict[int, _Slot], ctx,
        kind: str, kill: bool = False,
    ) -> None:
        """A worker is gone (observed death, expired lease, or timeout
        kill): reclaim its lease, then respawn or shrink the fan-out."""
        exitcode = None
        if slot.proc is not None:
            if kill and slot.proc.is_alive():
                slot.proc.kill()
            slot.proc.join()
            exitcode = slot.proc.exitcode
        lease = slot.lease
        slot.lease = None
        slot.close()
        self.stats.worker_deaths += 1
        if lease is not None and lease.task_id not in self.results:
            self.requeue_death(lease.task_id, lease.attempt, kind, exitcode)
        if slot.spawns <= self.config.respawn_limit:
            self.stats.respawns += 1
            self.spawn(slot, ctx, slots)
        else:
            del slots[slot.slot_id]

    def dispatch(self, slot: _Slot, task_id: int) -> bool:
        """Lease a task to an idle worker; False if the send found it
        dead (the caller handles the death path)."""
        attempt = self.attempts.get(task_id, 0)
        if self.journal is not None:
            self.journal.lease(task_id, attempt, slot.slot_id)
        deadline = (
            time.monotonic() + self.config.trial_timeout
            if self.config.trial_timeout is not None
            else None
        )
        slot.lease = _Lease(task_id, attempt, deadline)
        task = self.task(task_id)
        try:
            slot.cmd.send((task_id, task.config, task.trial_id, attempt))
        except (BrokenPipeError, OSError):
            return False
        return True

    def run_parallel(self) -> None:
        ctx = multiprocessing.get_context("fork")
        total = len(self.matrix.tasks)
        slots: dict[int, _Slot] = {}
        for slot_id in range(self.config.workers):
            slot = _Slot(slot_id)
            self.spawn(slot, ctx, slots)
            slots[slot_id] = slot
        try:
            while len(self.results) < total:
                now = time.monotonic()
                # 1. police deadlines and liveness
                for slot in list(slots.values()):
                    lease = slot.lease
                    if lease is None:
                        continue
                    if lease.deadline is not None and now > lease.deadline:
                        # Deterministic overrun: record once, no retry.
                        self.stats.timeouts += 1
                        task = self.task(lease.task_id)
                        self.finish(
                            lease.task_id,
                            lease.attempt,
                            _failed_result(
                                task.trial_id,
                                "timeout",
                                self.config.trial_timeout or 0.0,
                                "exceeded trial_timeout="
                                f"{self.config.trial_timeout}s",
                            ),
                        )
                        slot.lease = None
                        self.slot_down(slots[slot.slot_id], slots, ctx,
                                       "timed out", kill=True)
                    elif now - slot.last_beat > self.config.lease_ttl:
                        self.stats.lease_reclaims += 1
                        self.slot_down(slot, slots, ctx,
                                       "lease expired", kill=True)
                # 2. steal work onto every idle slot
                for slot in list(slots.values()):
                    if slot.lease is not None:
                        continue
                    task_id = self.next_task(now)
                    if task_id is None:
                        break
                    if not self.dispatch(slot, task_id):
                        self.slot_down(slot, slots, ctx, "died at dispatch")
                # 3. fleet gone entirely: degrade to in-process serial
                if not slots:
                    self.run_serial(self.outstanding(), degraded=True)
                    return
                # 4. collect heartbeats, results, and observed deaths
                conns = {id(s.res): s for s in slots.values()}
                ready = connection_wait(
                    [s.res for s in slots.values()],
                    self.config.poll_interval,
                )
                now = time.monotonic()
                for conn in ready:
                    slot = conns[id(conn)]
                    if slot is not slots.get(slot.slot_id):
                        continue  # already recycled this round
                    try:
                        while slot.proc is not None and slot.res.poll():
                            message = slot.res.recv()
                            if message[0] == "hb":
                                slot.last_beat = now
                            elif message[0] == "done":
                                _kind, task_id, attempt, result = message
                                slot.last_beat = now
                                slot.lease = None
                                if task_id not in self.results:
                                    self.finish(task_id, attempt, result)
                    except (EOFError, OSError):
                        self.slot_down(slot, slots, ctx, "died")
        finally:
            for slot in list(slots.values()):
                try:
                    if slot.cmd is not None:
                        slot.cmd.send(None)
                except (BrokenPipeError, OSError):
                    pass
                slot.close(kill=True)

    # -- entry point -------------------------------------------------------

    def run(self) -> MatrixRun:
        total = len(self.matrix.tasks)
        remaining = total - len(self.results)
        try:
            if (
                self.config.workers <= 1
                or remaining <= 1
                or not fork_available()
            ):
                self.run_serial(
                    [
                        task.task_id
                        for task in self.matrix.tasks
                        if task.task_id not in self.results
                    ]
                )
            else:
                self.run_parallel()
        finally:
            if self.journal is not None:
                self.journal.close()
        ordered = [self.results[i] for i in range(total)]
        return MatrixRun(
            matrix=self.matrix,
            results=ordered,
            stats=self.stats,
            wall_seconds=time.perf_counter() - self.started,
        )


def run_matrix(
    matrix: TrialMatrix,
    config: SchedulerConfig | None = None,
    *,
    store_dir: str | None = None,
    resume: bool = False,
    trial_fn: TrialFn | None = None,
    chaos_fn: ChaosFn | None = None,
    on_result: Callable[[TrialResult], None] | None = None,
) -> MatrixRun:
    """Execute a trial matrix to completion; results in task order.

    ``store_dir`` journals every lease/result/requeue durably and
    enables ``resume=True`` after *any* crash -- including the
    coordinator's.  ``on_result`` streams freshly computed results in
    completion order (resumed results are already surfaced by the run
    that computed them).  ``trial_fn`` and ``chaos_fn`` exist for tests
    and the chaos self-test; campaigns run
    :func:`repro.campaign.trial.run_trial`.
    """
    if config is None:
        config = SchedulerConfig()
    coordinator = _Coordinator(
        matrix,
        config,
        store_dir=store_dir,
        resume=resume,
        trial_fn=trial_fn or default_trial_fn,
        chaos_fn=chaos_fn,
        on_result=on_result,
    )
    return coordinator.run()
