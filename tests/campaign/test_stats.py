"""Statistics and artifacts: quantiles, summaries, JSON round-trip."""

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    artifact,
    ecdf,
    quantile,
    run_campaign,
    summarize,
    write_artifact,
)
from repro.campaign.runner import _failed
from repro.campaign.stats import LatencySummary

SPEC = CampaignSpec(
    algorithm="ra",
    n=3,
    root_seed=9,
    fault_start=10,
    fault_stop=40,
    confirm_window=80,
    max_steps=600,
)


class TestQuantile:
    def test_median_of_odd_sample(self):
        assert quantile([3, 1, 2], 0.5) == 2

    def test_interpolates(self):
        assert quantile([0, 10], 0.25) == 2.5

    def test_extremes(self):
        values = [5, 1, 9, 3]
        assert quantile(values, 0.0) == 1
        assert quantile(values, 1.0) == 9

    def test_singleton(self):
        assert quantile([7], 0.95) == 7.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quantile([1], 1.5)


class TestEcdf:
    def test_monotone_and_spans_sample(self):
        points = ecdf([4, 2, 8, 6], points=5)
        values = [v for v, _p in points]
        probs = [p for _v, p in points]
        assert values == sorted(values)
        assert probs == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert values[0] == 2 and values[-1] == 8

    def test_empty(self):
        assert ecdf([]) == []


class TestSummarize:
    def test_full_convergence(self):
        results = run_campaign(SPEC, 5)
        summary = summarize(results, wall_seconds=2.0)
        assert summary.trials == 5
        assert summary.convergence_rate == 1.0
        assert summary.outcomes == {"converged": 5}
        assert summary.latency.count == 5
        assert summary.trials_per_second == 2.5
        assert "convergence: 100.0%" in summary.describe()

    def test_mixed_outcomes(self):
        results = list(run_campaign(SPEC, 2))
        results.append(_failed(2, "crashed", 0.0, "boom"))
        summary = summarize(results, wall_seconds=1.0)
        assert summary.convergence_rate == pytest.approx(2 / 3)
        assert summary.outcomes["crashed"] == 1
        assert summary.latency.count == 2

    def test_empty_campaign(self):
        summary = summarize([], wall_seconds=0.0)
        assert summary.trials == 0
        assert summary.convergence_rate == 0.0
        assert summary.latency == LatencySummary.of([])


class TestArtifact:
    def test_json_round_trip(self, tmp_path):
        results = run_campaign(SPEC, 3)
        summary = summarize(results, wall_seconds=1.0)
        payload = artifact(SPEC, results, summary)
        path = tmp_path / "BENCH_campaign.json"
        write_artifact(path, payload)
        loaded = json.loads(path.read_text())
        assert loaded == payload
        assert loaded["spec"]["algorithm"] == "ra"
        assert loaded["spec"]["rates"]["loss"] == SPEC.rates.loss
        assert len(loaded["trials"]) == 3
        assert all(t["digest"] for t in loaded["trials"])
        assert loaded["summary"]["convergence_rate"] == 1.0

    def test_artifact_is_stamped_and_verifiable(self):
        from repro.campaign.stats import CAMPAIGN_SCHEMA_VERSION
        from repro.durable import verify_stamp

        results = run_campaign(SPEC, 2)
        payload = artifact(SPEC, results, summarize(results, 1.0))
        verify_stamp(payload, expected_schema=CAMPAIGN_SCHEMA_VERSION)

    def test_content_hash_ignores_wall_clock_and_requeues(self):
        """The volatile sections exist so an interrupted-and-resumed
        campaign stamps the identical content hash: only timing and
        execution may differ between bit-identical runs."""
        results = run_campaign(SPEC, 2)
        fast = artifact(
            SPEC,
            results,
            summarize(results, wall_seconds=1.0),
            execution={"requeues": 0},
        )
        slow = artifact(
            SPEC,
            results,
            summarize(results, wall_seconds=99.0, requeues=7),
            execution={"requeues": 7, "worker_deaths": 7},
        )
        assert fast["timing"] != slow["timing"]
        assert fast["content_hash"] == slow["content_hash"]

    def test_content_hash_tracks_deterministic_fields(self):
        results = run_campaign(SPEC, 2)
        base = artifact(SPEC, results, summarize(results, 1.0))
        fewer = artifact(SPEC, results[:1], summarize(results[:1], 1.0))
        assert base["content_hash"] != fewer["content_hash"]

    def test_volatile_excludes_list_is_tamper_evident(self):
        from repro.durable import verify_stamp

        results = run_campaign(SPEC, 2)
        payload = artifact(SPEC, results, summarize(results, 1.0))
        tampered = dict(payload)
        # Widening the excludes to hide a field must break the stamp.
        tampered["content_hash_excludes"] = sorted(
            [*payload["content_hash_excludes"], "summary"]
        )
        with pytest.raises(ValueError, match="hash mismatch"):
            verify_stamp(tampered)


class TestMatrixArtifact:
    def test_per_config_sections_and_stamp(self):
        from repro.campaign import ExperimentSpec, matrix_artifact, run_matrix
        from repro.durable import verify_stamp

        matrix = ExperimentSpec(
            name="mx",
            trials=2,
            base={
                "algorithm": "ra",
                "n": 3,
                "fault_start": 10,
                "fault_stop": 40,
                "confirm_window": 80,
                "max_steps": 600,
            },
            configs={"a": {}, "b": {}},
        ).expand()
        run = run_matrix(matrix)
        payload = matrix_artifact(matrix, run.results, 1.0)
        verify_stamp(payload)
        assert payload["matrix_digest"] == matrix.matrix_digest
        assert payload["completed"] == 4 and not payload["partial"]
        assert set(payload["configs"]) == {"a", "b"}
        for section in payload["configs"].values():
            assert len(section["trials"]) == 2
            assert section["summary"]["trials"] == 2

    def test_final_artifact_rejects_missing_tasks(self):
        from repro.campaign import matrix_artifact, single_spec_matrix

        matrix = single_spec_matrix(SPEC, 2)
        with pytest.raises(ValueError, match="missing task"):
            matrix_artifact(matrix, [None, None], 1.0)

    def test_partial_artifact_allows_missing_tasks(self):
        from repro.campaign import (
            matrix_artifact,
            run_trial,
            single_spec_matrix,
        )

        matrix = single_spec_matrix(SPEC, 2)
        payload = matrix_artifact(
            matrix, [run_trial(SPEC, 0), None], 1.0, partial=True
        )
        assert payload["partial"] and payload["completed"] == 1


class TestExperimentArtifact:
    def test_stamped_rows_round_trip(self):
        from repro.campaign.stats import (
            EXPERIMENT_SCHEMA_VERSION,
            experiment_artifact,
        )
        from repro.durable import verify_stamp

        payload = experiment_artifact(
            "E16", "campaign", [{"n": 3, "latency_mean": 4.5}]
        )
        verify_stamp(
            json.loads(json.dumps(payload)),
            expected_schema=EXPERIMENT_SCHEMA_VERSION,
        )
        assert payload["rows"][0]["n"] == 3


class TestArtifactStamp:
    def test_stamp_then_verify(self):
        from repro.durable import stamp_artifact, verify_stamp

        stamped = stamp_artifact({"kind": "loadgen", "grants": 42}, 1)
        assert stamped["schema_version"] == 1
        assert stamped["content_hash"].startswith("sha256:")
        verify_stamp(stamped, expected_schema=1)

    def test_stamp_survives_json_round_trip(self):
        from repro.durable import stamp_artifact, verify_stamp

        stamped = stamp_artifact({"nested": {"a": [1, 2]}, "x": 1.5}, 3)
        verify_stamp(json.loads(json.dumps(stamped)), expected_schema=3)

    def test_tamper_detected(self):
        from repro.durable import stamp_artifact, verify_stamp

        stamped = stamp_artifact({"grants": 42}, 1)
        stamped["grants"] = 9000
        with pytest.raises(ValueError, match="hash mismatch"):
            verify_stamp(stamped)

    def test_schema_mismatch_detected(self):
        from repro.durable import stamp_artifact, verify_stamp

        stamped = stamp_artifact({"grants": 1}, 1)
        with pytest.raises(ValueError, match="schema_version"):
            verify_stamp(stamped, expected_schema=2)

    def test_unstamped_rejected(self):
        from repro.durable import verify_stamp

        with pytest.raises(ValueError):
            verify_stamp({"grants": 1})
