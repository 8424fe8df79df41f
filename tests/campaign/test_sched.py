"""The work-stealing scheduler: failure paths, leases, resume parity.

Every failure-path test injects a *deterministic* kill function
(``chaos_fn`` rolls on ``(task_id, attempt)`` alone), so the assertions
pin exact requeue counts and attempt logs rather than sampling luck.
"""

import multiprocessing
import os
import time

import pytest

from repro.campaign import (
    CampaignJournal,
    CampaignSpec,
    ExperimentSpec,
    SchedulerConfig,
    replay_journal,
    run_matrix,
    run_trial,
    single_spec_matrix,
)
from repro.campaign.journal import (
    JOURNAL_NAME,
    REC_RESULT,
    write_campaign_meta,
)
from repro.durable import FRAME_OVERHEAD, iter_records

SPEC = CampaignSpec(
    algorithm="ra",
    n=3,
    root_seed=5,
    fault_start=10,
    fault_stop=40,
    confirm_window=80,
    max_steps=600,
)

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="campaign fan-out requires the fork start method",
)

FAST = {"retry_backoff": 0.01, "heartbeat_every": 0.05}


def content_hash(run) -> str:
    return run.artifact()["content_hash"]


@fork_only
class TestWorkerDeathRequeue:
    def test_death_requeues_with_backoff_then_succeeds(self, tmp_path):
        def die_twice(task_id, attempt):
            if task_id == 1 and attempt < 2:
                os._exit(23)

        run = run_matrix(
            single_spec_matrix(SPEC, 3),
            SchedulerConfig(workers=2, **FAST),
            store_dir=str(tmp_path),
            chaos_fn=die_twice,
        )
        assert run.results[1].outcome == "converged"
        assert run.results[1].digest == run_trial(SPEC, 1).digest
        assert run.stats.requeues == 2
        assert run.stats.worker_deaths == 2

        # The journal carries the full per-attempt history, backoff
        # doubling from the base.
        log = replay_journal(tmp_path).attempt_log[1]
        assert [entry["attempt"] for entry in log] == [0, 1]
        assert log[0]["exitcode"] == 23
        assert log[1]["backoff"] == pytest.approx(2 * log[0]["backoff"])

    def test_backoff_is_capped(self):
        def die_often(task_id, attempt):
            if task_id == 0 and attempt < 4:
                os._exit(9)

        run = run_matrix(
            single_spec_matrix(SPEC, 2),
            SchedulerConfig(
                workers=2,
                max_trial_retries=4,
                retry_backoff=0.02,
                backoff_cap=0.05,
                heartbeat_every=0.05,
            ),
            chaos_fn=die_often,
        )
        assert run.results[0].outcome == "converged"
        assert run.stats.requeues == 4


@fork_only
class TestRetryExhaustion:
    def test_crashed_result_carries_attempt_log(self):
        def doomed(task_id, attempt):
            if task_id == 1:
                os._exit(17)

        run = run_matrix(
            single_spec_matrix(SPEC, 3),
            SchedulerConfig(workers=2, max_trial_retries=2, **FAST),
            chaos_fn=doomed,
        )
        detail = run.results[1].detail
        assert run.results[1].outcome == "crashed"
        assert "after 3 attempts" in detail
        assert "attempt 0" in detail and "attempt 1" in detail
        assert "exitcode 17" in detail
        assert "backoff" in detail
        assert run.stats.crashes == 1
        assert all(
            r.outcome == "converged"
            for r in (run.results[0], run.results[2])
        )


@fork_only
class TestTimeout:
    def test_timeout_records_once_never_retries(self):
        def sleepy(spec, trial_id):
            if trial_id == 0:
                time.sleep(60)
            return run_trial(spec, trial_id)

        started = time.monotonic()
        run = run_matrix(
            single_spec_matrix(SPEC, 2),
            SchedulerConfig(workers=2, trial_timeout=1.0, **FAST),
            trial_fn=sleepy,
        )
        assert time.monotonic() - started < 30
        assert run.results[0].outcome == "timeout"
        assert run.results[1].outcome == "converged"
        assert run.stats.timeouts == 1
        assert run.stats.requeues == 0  # deterministic: no retry


@fork_only
class TestDigestParityUnderKills:
    def test_injected_kills_preserve_serial_parity(self, tmp_path):
        """The headline invariant at unit scale: a campaign riddled with
        worker deaths stamps the same content hash as workers=1."""

        def chaotic(task_id, attempt):
            if attempt == 0 and task_id % 3 == 1:
                os._exit(5)

        serial = run_matrix(
            single_spec_matrix(SPEC, 6), SchedulerConfig(workers=1)
        )
        killed = run_matrix(
            single_spec_matrix(SPEC, 6),
            SchedulerConfig(workers=3, **FAST),
            store_dir=str(tmp_path),
            chaos_fn=chaotic,
        )
        assert killed.stats.worker_deaths == 2
        assert content_hash(killed) == content_hash(serial)

        resumed = run_matrix(
            single_spec_matrix(SPEC, 6),
            SchedulerConfig(workers=3, **FAST),
            store_dir=str(tmp_path),
            resume=True,
        )
        assert resumed.stats.resumed_results == 6
        assert content_hash(resumed) == content_hash(serial)


@fork_only
class TestGracefulDegradation:
    def test_fleet_death_degrades_to_serial_and_completes(self):
        """When every slot exhausts its respawn budget, the coordinator
        finishes the campaign in-process rather than stranding it."""

        def massacre(task_id, attempt):
            os._exit(3)

        run = run_matrix(
            single_spec_matrix(SPEC, 3),
            SchedulerConfig(
                workers=2,
                max_trial_retries=20,
                respawn_limit=1,
                **FAST,
            ),
            chaos_fn=massacre,
        )
        assert all(r.outcome == "converged" for r in run.results)
        assert run.stats.serial_fallback_tasks >= 1
        # two slots, one respawn each: exactly four deaths, then serial
        assert run.stats.worker_deaths == 4
        assert run.stats.respawns == 2


class TestResume:
    def test_orphaned_lease_is_rerun(self, tmp_path):
        """A lease with no result (the coordinator died mid-trial) is
        exactly the work a resumed run redoes."""
        matrix = single_spec_matrix(SPEC, 3)
        write_campaign_meta(tmp_path, matrix)
        journal = CampaignJournal(tmp_path)
        journal.result(0, 0, run_trial(SPEC, 0))
        journal.lease(1, 0, worker=0)  # orphaned: no result follows
        journal.close()

        run = run_matrix(
            matrix,
            SchedulerConfig(workers=1),
            store_dir=str(tmp_path),
            resume=True,
        )
        assert run.stats.resumed_results == 1
        assert [r.outcome for r in run.results] == ["converged"] * 3
        clean = run_matrix(matrix, SchedulerConfig(workers=1))
        assert content_hash(run) == content_hash(clean)

    def test_resume_restores_retry_budget(self, tmp_path):
        """Journalled requeues survive a coordinator crash: the resumed
        run charges them against max_trial_retries."""
        matrix = single_spec_matrix(SPEC, 2)
        write_campaign_meta(tmp_path, matrix)
        journal = CampaignJournal(tmp_path)
        journal.requeue(0, 0, "died", 11, 0.01)
        journal.requeue(0, 1, "died", 11, 0.02)
        journal.close()

        run = run_matrix(
            matrix,
            SchedulerConfig(workers=1, max_trial_retries=2),
            store_dir=str(tmp_path),
            resume=True,
        )
        # Serial execution succeeds, but the history is preserved.
        assert run.results[0].outcome == "converged"
        log = replay_journal(tmp_path).attempt_log[0]
        assert len(log) == 2

    def test_bit_flipped_result_resumes_to_the_clean_hash(self, tmp_path):
        """One flipped bit in a journalled digit (``"steps":120`` ->
        ``130``) used to be surfaced as the trial's result; now its
        frame ends the valid prefix and the trials behind it run again."""
        matrix = single_spec_matrix(SPEC, 4)
        clean = run_matrix(
            matrix, SchedulerConfig(workers=1), store_dir=str(tmp_path)
        )
        path = tmp_path / JOURNAL_NAME
        raw = bytearray(path.read_bytes())
        offset = 0
        for tag, task_id, _attempt, payload in iter_records(path):
            if tag == REC_RESULT and task_id == 1:
                tens = payload.index(b'"steps":') + len(b'"steps":') + 1
                raw[offset + FRAME_OVERHEAD + tens] ^= 1
                break
            offset += FRAME_OVERHEAD + len(payload)
        path.write_bytes(raw)

        run = run_matrix(
            matrix,
            SchedulerConfig(workers=1),
            store_dir=str(tmp_path),
            resume=True,
        )
        assert run.stats.resumed_results == 1  # task 0, ahead of the flip
        assert run.stats.journal_kept_bytes == offset
        assert run.stats.journal_discarded_bytes == len(raw) - offset
        assert [r.steps for r in run.results] == [
            r.steps for r in clean.results
        ]
        assert content_hash(run) == content_hash(clean)

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        matrix = single_spec_matrix(SPEC, 2)
        run_matrix(
            matrix, SchedulerConfig(workers=1), store_dir=str(tmp_path)
        )
        with pytest.raises(ValueError, match="resume=True"):
            run_matrix(
                matrix, SchedulerConfig(workers=1), store_dir=str(tmp_path)
            )

    def test_resume_rejects_different_matrix(self, tmp_path):
        run_matrix(
            single_spec_matrix(SPEC, 2),
            SchedulerConfig(workers=1),
            store_dir=str(tmp_path),
        )
        with pytest.raises(ValueError, match="different experiment"):
            run_matrix(
                single_spec_matrix(SPEC, 3),
                SchedulerConfig(workers=1),
                store_dir=str(tmp_path),
                resume=True,
            )


@fork_only
class TestMultiConfigMatrix:
    def test_axes_matrix_runs_all_configs(self):
        matrix = ExperimentSpec(
            name="sweep",
            trials=2,
            base={
                "algorithm": "ra",
                "n": 3,
                "fault_start": 10,
                "fault_stop": 40,
                "confirm_window": 80,
                "max_steps": 600,
            },
            axes={"fault_scale": [0.5, 1.0]},
        ).expand()
        run = run_matrix(matrix, SchedulerConfig(workers=2, **FAST))
        assert len(run.results) == 4
        payload = run.artifact()
        assert payload["completed"] == 4
        assert set(payload["configs"]) == {
            "fault_scale=0.5",
            "fault_scale=1.0",
        }
        # Sibling configs draw independent seed streams: rows differ.
        a, b = (
            payload["configs"][name]["trials"]
            for name in sorted(payload["configs"])
        )
        assert [r["digest"] for r in a] != [r["digest"] for r in b]


class TestPartialStreaming:
    def test_partial_artifact_streams_during_run(self, tmp_path):
        run = run_matrix(
            single_spec_matrix(SPEC, 4),
            SchedulerConfig(workers=1, partial_every=2),
            store_dir=str(tmp_path),
        )
        assert run.stats.partials_written == 2
        import json

        from repro.campaign import verify_stamp

        payload = json.loads((tmp_path / "partial.json").read_text())
        verify_stamp(payload)
        assert payload["partial"] is True
