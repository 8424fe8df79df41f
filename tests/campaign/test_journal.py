"""The durable campaign journal: round-trips, torn tails, meta stamps."""

import json

import pytest

from repro.campaign import (
    CampaignJournal,
    CampaignSpec,
    replay_journal,
    run_trial,
    single_spec_matrix,
)
from repro.campaign.journal import (
    JOURNAL_NAME,
    decode_result,
    encode_result,
    journal_exists,
    verify_campaign_meta,
    write_campaign_meta,
    write_partial_artifact,
)

SPEC = CampaignSpec(
    algorithm="ra",
    n=3,
    root_seed=5,
    fault_start=10,
    fault_stop=40,
    confirm_window=80,
    max_steps=600,
)


class TestResultCodec:
    def test_round_trip_preserves_every_field_but_decisions(self):
        original = run_trial(SPEC, 0, keep_decisions="always")
        decoded = decode_result(encode_result(original))
        assert decoded.decisions is None
        import dataclasses

        assert dataclasses.replace(original, decisions=None) == decoded

    def test_round_trip_of_churned_result(self):
        import dataclasses

        from repro.campaign import ChurnRates
        from repro.recovery import RecoveryConfig

        churned = dataclasses.replace(
            SPEC, churn=ChurnRates(), recovery=RecoveryConfig()
        )
        original = run_trial(churned, 1)
        decoded = decode_result(encode_result(original))
        assert dataclasses.replace(original, decisions=None) == decoded
        assert decoded.recovery_stages == original.recovery_stages


class TestJournalReplay:
    def test_lease_result_requeue_round_trip(self, tmp_path):
        result = run_trial(SPEC, 0)
        journal = CampaignJournal(tmp_path)
        journal.lease(0, 0, worker=1)
        journal.result(0, 0, result)
        journal.lease(1, 0, worker=0)
        journal.requeue(1, 0, "died", 137, 0.2)
        journal.lease(1, 1, worker=0)
        journal.close()

        state = replay_journal(tmp_path)
        assert state.results[0].digest == result.digest
        assert state.orphaned == {1}
        assert state.attempts(1) == 1
        assert state.attempt_log[1][0]["exitcode"] == 137
        assert state.attempt_log[1][0]["backoff"] == 0.2

    def test_empty_store_replays_empty(self, tmp_path):
        state = replay_journal(tmp_path)
        assert state.results == {} and state.records == 0

    def test_torn_tail_dropped_on_replay_and_reopen(self, tmp_path):
        result = run_trial(SPEC, 0)
        journal = CampaignJournal(tmp_path)
        journal.result(0, 0, result)
        journal.close()
        path = tmp_path / JOURNAL_NAME
        intact = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b"\x52\x01")  # half a header: a torn final record

        state = replay_journal(tmp_path)
        assert list(state.results) == [0]

        # Reopening truncates the torn tail before appending.
        journal = CampaignJournal(tmp_path)
        journal.close()
        assert path.stat().st_size == intact

    def test_exploration_journal_fails_loudly(self, tmp_path):
        # The two journals share a frame; a misfiled one must not be
        # skipped record by record into an empty, plausible state.
        import shutil

        from repro.explore import GlobalSimulatorSpace, explore
        from repro.explore.shard import JOURNAL_NAME as EXPLORE_JOURNAL
        from repro.tme import ClientConfig, tme_programs

        space = GlobalSimulatorSpace(
            tme_programs("ra", 2, ClientConfig(think_delay=1, eat_delay=1))
        )
        explore(space, max_depth=3, store_dir=str(tmp_path / "explore"))
        shutil.copy(
            tmp_path / "explore" / EXPLORE_JOURNAL, tmp_path / JOURNAL_NAME
        )
        with pytest.raises(ValueError, match="not a campaign journal") as err:
            replay_journal(tmp_path)
        assert str(tmp_path / JOURNAL_NAME) in str(err.value)
        assert "'A'" in str(err.value)


class TestCampaignMeta:
    def test_write_then_verify(self, tmp_path):
        matrix = single_spec_matrix(SPEC, 3)
        write_campaign_meta(tmp_path, matrix)
        payload = verify_campaign_meta(tmp_path, matrix)
        assert payload["matrix_digest"] == matrix.matrix_digest

    def test_different_matrix_rejected(self, tmp_path):
        write_campaign_meta(tmp_path, single_spec_matrix(SPEC, 3))
        with pytest.raises(ValueError, match="different experiment"):
            verify_campaign_meta(tmp_path, single_spec_matrix(SPEC, 4))

    def test_tampered_meta_rejected(self, tmp_path):
        matrix = single_spec_matrix(SPEC, 3)
        write_campaign_meta(tmp_path, matrix)
        meta = tmp_path / "meta.json"
        payload = json.loads(meta.read_text())
        payload["tasks"] = 9999
        meta.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="hash mismatch"):
            verify_campaign_meta(tmp_path, matrix)

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to resume"):
            verify_campaign_meta(tmp_path, single_spec_matrix(SPEC, 3))


class TestPartialArtifact:
    def test_atomic_publish(self, tmp_path):
        write_partial_artifact(tmp_path, {"a": 1})
        write_partial_artifact(tmp_path, {"a": 2})
        assert json.loads((tmp_path / "partial.json").read_text()) == {
            "a": 2
        }
        assert not (tmp_path / "partial.json.tmp").exists()

    def test_journal_exists(self, tmp_path):
        assert not journal_exists(tmp_path)
        CampaignJournal(tmp_path).close()
        assert journal_exists(tmp_path)
