"""``repro.durable`` sits below both journals: the import graph, and the
one ``meta.json`` verifier as each journal meets it."""

import json
import os
import subprocess
import sys

import pytest

from repro.campaign import (
    CampaignSpec,
    SchedulerConfig,
    run_matrix,
    single_spec_matrix,
)
from repro.durable import META_NAME, stamp_artifact, verify_meta, write_meta
from repro.explore import GlobalSimulatorSpace, explore
from repro.tme import ClientConfig, tme_programs

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

SPEC = CampaignSpec(
    algorithm="ra",
    n=3,
    root_seed=5,
    fault_start=10,
    fault_stop=40,
    confirm_window=80,
    max_steps=600,
)


def imported_by(module: str) -> set[str]:
    """The ``repro.*`` modules a fresh interpreter holds after importing
    ``module``."""
    script = (
        f"import sys, {module}\n"
        "print(*sorted(m for m in sys.modules if m.startswith('repro.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    return set(done.stdout.split())


class TestImportGraph:
    def test_durable_pulls_in_neither_package(self):
        assert imported_by("repro.durable") == {"repro.durable"}

    def test_campaign_leaves_explore_out(self):
        loaded = imported_by("repro.campaign")
        assert "repro.durable" in loaded
        assert not {m for m in loaded if m.startswith("repro.explore")}


def run_campaign_in(store_dir, resume=False):
    return run_matrix(
        single_spec_matrix(SPEC, 2),
        SchedulerConfig(workers=1),
        store_dir=str(store_dir),
        resume=resume,
    )


def run_exploration_in(store_dir, resume=False):
    space = GlobalSimulatorSpace(
        tme_programs("ra", 2, ClientConfig(think_delay=1, eat_delay=1))
    )
    return explore(space, max_depth=4, store_dir=str(store_dir), resume=resume)


def edit_meta(store_dir, edit):
    path = store_dir / META_NAME
    meta = json.loads(path.read_text())
    path.write_text(json.dumps(edit(meta)))


def unstamped(meta: dict) -> dict:
    stamp = ("schema_version", "content_hash")
    return {k: v for k, v in meta.items() if k not in stamp}


def restamped(meta: dict, schema: int | None = None, **changes) -> dict:
    return stamp_artifact(
        {**unstamped(meta), **changes}, schema or meta["schema_version"]
    )


@pytest.mark.parametrize("run_in", [run_campaign_in, run_exploration_in])
class TestOneVerifierUnderBothJournals:
    def test_written_meta_resumes(self, tmp_path, run_in):
        run_in(tmp_path)
        run_in(tmp_path, resume=True)

    def test_hand_edited_meta_is_refused(self, tmp_path, run_in):
        run_in(tmp_path)
        edit_meta(tmp_path, lambda meta: {**meta, "note": "edited"})
        with pytest.raises(ValueError, match="hash mismatch") as err:
            run_in(tmp_path, resume=True)
        assert str(tmp_path / META_NAME) in str(err.value)

    def test_unstamped_meta_beside_a_journal_is_refused(self, tmp_path, run_in):
        run_in(tmp_path)
        edit_meta(tmp_path, unstamped)
        with pytest.raises(ValueError, match="meta.json"):
            run_in(tmp_path, resume=True)

    def test_other_journals_directory_is_refused(self, tmp_path, run_in):
        run_in(tmp_path)
        edit_meta(tmp_path, lambda meta: restamped(meta, kind="some-journal"))
        with pytest.raises(ValueError, match="'kind': 'some-journal'"):
            run_in(tmp_path, resume=True)

    def test_parent_commit_format_is_refused(self, tmp_path, run_in):
        run_in(tmp_path)
        edit_meta(
            tmp_path,
            lambda meta: restamped(meta, meta["schema_version"] - 1),
        )
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            run_in(tmp_path, resume=True)


class TestMeta:
    def test_identity_mismatch_names_the_field(self, tmp_path):
        write_meta(tmp_path, 1, {"a": 1, "b": 2})
        assert verify_meta(tmp_path, 1, {"a": 1, "b": 2})["b"] == 2
        with pytest.raises(ValueError, match="'b': 2.* != .*'b': 3"):
            verify_meta(tmp_path, 1, {"a": 1, "b": 3})
