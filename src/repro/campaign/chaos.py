"""The built-in chaos self-test: kill everything, resume, compare bits.

The scheduler's headline claim -- ``kill -9`` of any worker *or the
coordinator*, followed by ``--resume``, yields an artifact whose content
hash is bit-identical to an uninterrupted run's -- is exactly the kind
of claim that rots silently.  This module keeps it honest:

1. run the matrix cleanly, in-process, and take the stamped artifact's
   content hash as the reference;
2. run the same matrix through a *child* coordinator against a journal
   directory, with a seeded chaos hook murdering workers mid-trial, and
   SIGKILL the coordinator itself at seeded random delays;
3. resume (new child, same store) until a round survives to completion;
4. replay the journal in-process one last time (a resume with nothing
   left to do) and demand hash equality with the reference.

Every random choice -- which worker attempts die, when the coordinator
dies -- derives from one seed through the campaign's own hierarchical
seed tree (:func:`repro.campaign.seeds.derive_seed`), so a failing
chaos schedule is a reproducible bug report, not an anecdote.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

from repro.campaign.seeds import derive_seed
from repro.campaign.sched import (
    ChaosFn,
    MatrixRun,
    SchedulerConfig,
    TrialFn,
    run_matrix,
)
from repro.campaign.spec import TrialMatrix
from repro.durable import META_NAME


def make_chaos_fn(
    seed: int, kill_rate: float, max_trial_retries: int
) -> ChaosFn:
    """A seeded worker-killing hook, deterministic in (task, attempt).

    Rolls an independent derived stream per ``(task_id, attempt)`` --
    location-independent, like trial seeds, so a resumed run facing the
    same attempt makes the same life-or-death call.  Attempts at or past
    the retry budget are always spared: chaos must perturb *scheduling*,
    never push a trial into a deterministic ``"crashed"`` outcome, or
    the digest comparison would be testing the chaos, not the recovery.
    """

    def chaos(task_id: int, attempt: int) -> None:
        if attempt >= max_trial_retries:
            return
        rng = random.Random(derive_seed(seed, "chaos", task_id, attempt))
        if rng.random() < kill_rate:
            os._exit(42)

    return chaos


@dataclass
class ChaosReport:
    """What the self-test did and what it proved."""

    rounds: int
    coordinator_kills: int
    reference_hash: str
    resumed_hash: str
    resumed_results: int
    tasks: int

    @property
    def digests_match(self) -> bool:
        return self.reference_hash == self.resumed_hash


def _coordinator_round(
    matrix: TrialMatrix,
    config: SchedulerConfig,
    store_dir: str,
    resume: bool,
    chaos_seed: int,
    kill_rate: float,
    trial_fn: TrialFn | None,
) -> None:
    """One coordinator lifetime (runs in a forked child)."""
    run_matrix(
        matrix,
        config,
        store_dir=store_dir,
        resume=resume,
        trial_fn=trial_fn,
        chaos_fn=make_chaos_fn(
            chaos_seed, kill_rate, config.max_trial_retries
        ),
    )


def run_chaos_selftest(
    matrix: TrialMatrix,
    store_dir: str | Path,
    *,
    workers: int = 2,
    seed: int = 0,
    kill_rate: float = 0.2,
    coordinator_kills: int = 2,
    kill_window: tuple[float, float] = (0.05, 0.8),
    trial_fn: TrialFn | None = None,
    config: SchedulerConfig | None = None,
    max_rounds: int | None = None,
) -> ChaosReport:
    """Prove kill/resume digest stability for ``matrix``; see module doc.

    ``store_dir`` must not already hold a journal.  ``trial_timeout``
    must stay unset (timeouts are wall-clock judgements, so they are the
    one outcome a clean and a chaos run may legitimately disagree on).
    Raises ``AssertionError`` if the resumed hash diverges from the
    clean reference -- this *is* the self-test failing.
    """
    if config is None:
        config = SchedulerConfig(workers=workers)
    if config.trial_timeout is not None:
        raise ValueError(
            "chaos self-test forbids trial_timeout: timeouts are "
            "wall-clock judgements and would make the digest flaky"
        )
    store = str(store_dir)
    if max_rounds is None:
        max_rounds = coordinator_kills + 5

    reference = run_matrix(matrix, config, trial_fn=trial_fn)
    reference_hash = reference.artifact()["content_hash"]

    ctx = get_context("fork")
    rng = random.Random(derive_seed(seed, "chaos", "coordinator"))
    kills_delivered = 0
    rounds = 0
    while True:
        if rounds >= max_rounds:
            raise AssertionError(
                f"chaos self-test did not complete within {max_rounds} "
                "coordinator rounds"
            )
        resume = (Path(store) / META_NAME).exists()
        child = ctx.Process(
            target=_coordinator_round,
            args=(matrix, config, store, resume, seed, kill_rate, trial_fn),
        )
        child.start()
        rounds += 1
        if kills_delivered < coordinator_kills:
            delay = rng.uniform(*kill_window)
            deadline = time.monotonic() + delay
            while time.monotonic() < deadline and child.is_alive():
                time.sleep(0.01)
            if child.is_alive():
                os.kill(child.pid, signal.SIGKILL)
                child.join()
                kills_delivered += 1
                continue
        child.join()
        if child.exitcode == 0:
            break
        raise AssertionError(
            f"chaos coordinator round {rounds} exited "
            f"{child.exitcode} without being killed"
        )

    final: MatrixRun = run_matrix(
        matrix, config, store_dir=store, resume=True, trial_fn=trial_fn
    )
    resumed_hash = final.artifact()["content_hash"]
    report = ChaosReport(
        rounds=rounds,
        coordinator_kills=kills_delivered,
        reference_hash=reference_hash,
        resumed_hash=resumed_hash,
        resumed_results=final.stats.resumed_results,
        tasks=len(matrix),
    )
    if not report.digests_match:
        raise AssertionError(
            "chaos self-test digest divergence: clean run stamped "
            f"{reference_hash} but kill/resume stamped {resumed_hash}"
        )
    return report
