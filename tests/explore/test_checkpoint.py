"""Tests for checkpointed exploration: journal, resume, kill-safety.

``explore(store_dir=...)`` runs the same loop as plain ``explore`` over
a journalled digest store, so a durable run equals the in-memory one on
the visited set, the content digest *and every counter*.
"""

import os
import random
import shutil
import signal
import subprocess
import sys
import time

import pytest

from repro.durable import (
    FRAME_OVERHEAD,
    META_NAME,
    AppendLog,
    iter_records,
    prefix_len,
)
from repro.explore import DFS, GlobalSimulatorSpace, explore
from repro.explore.shard import JOURNAL_NAME
from repro.explore.wire import REC_ADMIT, REC_COMMIT, REC_MEMBER
from repro.tme import ClientConfig, tme_programs

CLIENT = ClientConfig(think_delay=1, eat_delay=1)

COUNTERS = (
    "states",
    "expansions",
    "transitions",
    "dedup_hits",
    "orbit_reductions",
    "peak_frontier",
    "depth_reached",
    "depth_limited",
    "truncated",
    "truncation_cause",
)


def space(algo="ra", n=2, symmetry=None):
    return GlobalSimulatorSpace(
        tme_programs(algo, n, CLIENT), symmetry=symmetry
    )


def journal(run_dir):
    return os.path.join(run_dir, JOURNAL_NAME)


def commits(run_dir):
    """``(end offset, depth, size)`` of every COMMIT record, in order."""
    out, offset = [], 0
    for tag, depth, _aux, payload in iter_records(journal(run_dir)):
        offset += FRAME_OVERHEAD + len(payload)
        if tag == REC_COMMIT:
            out.append((offset, depth, int.from_bytes(payload, "little")))
    return out


def committed_level(run_dir):
    if not os.path.exists(journal(run_dir)):
        return -1
    return max((depth for _end, depth, _size in commits(run_dir)), default=-1)


def assert_same_run(durable, serial):
    assert durable.visited == serial.visited
    assert durable.content_digest() == serial.content_digest()
    for name in COUNTERS:
        assert getattr(durable.stats, name) == getattr(serial.stats, name)


class TestCrossAlgorithmParity:
    """Durable = serial, bit for bit: visited set, digest, counters."""

    @pytest.mark.parametrize("algo", ["ra", "ra-count", "lamport", "token"])
    @pytest.mark.parametrize("n,depth", [(2, 6), (3, 4)])
    def test_exact_parity(self, algo, n, depth, tmp_path):
        serial = explore(space(algo, n), max_depth=depth)
        durable = explore(
            space(algo, n), max_depth=depth, store_dir=str(tmp_path)
        )
        assert_same_run(durable, serial)

    @pytest.mark.parametrize("algo", ["ra", "ra-count", "lamport", "token"])
    @pytest.mark.parametrize("n,depth", [(2, 6), (3, 4)])
    def test_symmetric_parity(self, algo, n, depth, tmp_path):
        sym = "ring" if algo == "token" else "full"
        serial = explore(space(algo, n, sym), max_depth=depth)
        durable = explore(
            space(algo, n, sym), max_depth=depth, store_dir=str(tmp_path)
        )
        assert_same_run(durable, serial)


class TestSameLoop:
    """What the durable path inherits from ``search`` by being it."""

    @pytest.mark.parametrize(
        "n,symmetry,max_states",
        [
            (3, None, 4),  # cut mid-level
            (3, "full", 7),
            (3, None, 1),  # cut at level 1
        ],
    )
    def test_max_states_cut_matches_serial(
        self, n, symmetry, max_states, tmp_path
    ):
        bounds = {"max_depth": 6, "max_states": max_states}
        serial = explore(space("ra", n, symmetry), **bounds)
        durable = explore(
            space("ra", n, symmetry), store_dir=str(tmp_path), **bounds
        )
        assert serial.stats.truncated
        assert_same_run(durable, serial)

    def test_on_visit_sees_the_serial_visit_order(self, tmp_path):
        serial_order, durable_order = [], []
        explore(
            space(n=3, symmetry="full"),
            max_depth=5,
            on_visit=lambda key, depth: serial_order.append((key, depth)),
        )
        explore(
            space(n=3, symmetry="full"),
            max_depth=5,
            store_dir=str(tmp_path),
            on_visit=lambda key, depth: durable_order.append((key, depth)),
        )
        assert durable_order == serial_order

    def test_profile_under_store_dir(self, tmp_path):
        durable = explore(
            space(n=3, symmetry="full"),
            max_depth=5,
            profile=True,
            store_dir=str(tmp_path),
        )
        assert durable.stats.profile.expand_seconds > 0.0

    def test_store_dir_requires_bfs(self, tmp_path):
        with pytest.raises(ValueError, match="BFS") as excinfo:
            explore(space(), strategy=DFS, store_dir=str(tmp_path))
        assert "parallel" not in str(excinfo.value)


class TestStoreDir:
    def test_spilled_run_matches_serial(self, tmp_path):
        run_dir = str(tmp_path / "run")
        serial = explore(space(n=3, symmetry="full"), max_depth=6)
        spilled = explore(
            space(n=3, symmetry="full"), max_depth=6, store_dir=run_dir
        )
        assert spilled.stats.spill_bytes > 0
        assert serial.visited == spilled.visited
        assert serial.content_digest() == spilled.content_digest()
        # One loop, one journal.
        assert sorted(os.listdir(run_dir)) == [JOURNAL_NAME, META_NAME]

    def test_membership_probe_on_spilled_view(self, tmp_path):
        spilled = explore(
            space(), max_depth=6, store_dir=str(tmp_path / "run")
        )
        some = next(iter(spilled.visited))
        assert some in spilled
        assert "not-a-state" not in spilled

    def test_exact_space_spills_out_of_core(self, tmp_path):
        serial = explore(space(n=3), max_depth=5)
        spilled = explore(
            space(n=3), max_depth=5, store_dir=str(tmp_path / "r")
        )
        assert spilled.stats.spill_bytes > 0
        assert serial.content_digest() == spilled.content_digest()

    def test_fresh_run_resets_directory(self, tmp_path):
        # Without resume=True an existing run directory is truncated,
        # not appended to: the journals of two identical fresh runs are
        # byte-for-byte the same size, and the second run's view is
        # still exact.
        run_dir = str(tmp_path / "run")
        explore(space(), max_depth=6, store_dir=run_dir)
        size = os.path.getsize(journal(run_dir))
        again = explore(space(), max_depth=6, store_dir=run_dir)
        assert os.path.getsize(journal(run_dir)) == size
        serial = explore(space(), max_depth=6)
        assert again.content_digest() == serial.content_digest()

    def test_mismatched_space_rejected(self, tmp_path):
        run_dir = str(tmp_path / "run")
        explore(space(n=2), max_depth=5, store_dir=run_dir)
        with pytest.raises(ValueError, match="different"):
            explore(space(n=3), max_depth=5, store_dir=run_dir)

    def test_resume_without_store_dir_rejected(self):
        with pytest.raises(ValueError, match="store_dir"):
            explore(space(), max_depth=4, resume=True)

    @pytest.mark.parametrize("resume", [False, True])
    @pytest.mark.parametrize("content", ["", "{}"])
    def test_torn_meta_without_journal_is_an_empty_directory(
        self, tmp_path, resume, content
    ):
        # A kill between open(meta.json, "w") and the write used to
        # brick the directory with a raw JSONDecodeError.
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / META_NAME).write_text(content)
        serial = explore(space(), max_depth=6)
        durable = explore(
            space(), max_depth=6, store_dir=str(run_dir), resume=resume
        )
        assert durable.stats.resumed_states == 0
        assert durable.content_digest() == serial.content_digest()
        assert sorted(os.listdir(run_dir)) == [JOURNAL_NAME, META_NAME]

    @pytest.mark.parametrize("resume", [False, True])
    def test_unreadable_meta_beside_a_journal_is_rejected(
        self, tmp_path, resume
    ):
        run_dir = str(tmp_path / "run")
        explore(space(), max_depth=6, store_dir=run_dir)
        meta_path = os.path.join(run_dir, META_NAME)
        with open(meta_path, "w") as fh:
            fh.write('{"format": 3, "sig')
        with pytest.raises(ValueError, match="meta.json") as excinfo:
            explore(space(), max_depth=6, store_dir=run_dir, resume=resume)
        assert meta_path in str(excinfo.value)

    def test_fleet_era_directory_is_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / META_NAME).write_text('{"format": 2, "signature": "x"}\n')
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            explore(space(), max_depth=4, store_dir=str(run_dir), resume=True)

    def test_pre_checksum_directory_is_refused(self, tmp_path):
        # What the last unchecksummed build left: an unstamped meta that
        # says format 3, beside a journal of 13-byte headers.
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / META_NAME).write_text('{"format": 3, "signature": "x"}\n')
        (run_dir / JOURNAL_NAME).write_bytes(b"A" + bytes(12))
        with pytest.raises(ValueError, match="unsupported checkpoint format 3"):
            explore(space(), max_depth=4, store_dir=str(run_dir), resume=True)

    def test_foreign_journal_fails_loudly(self, tmp_path):
        # Record tags are coordinated across consumers so that a journal
        # misfiled into the wrong reader is an error, not a replay.
        run_dir = str(tmp_path / "run")
        explore(space(), max_depth=3, store_dir=run_dir)
        log = AppendLog(journal(run_dir), prefix_len(journal(run_dir)))
        log.append(ord("L"), 0, 0, b"7")
        log.append(REC_COMMIT, 5, 0, (0).to_bytes(8, "little"))
        log.close()
        with pytest.raises(ValueError, match="not an exploration journal"):
            explore(space(), max_depth=3, store_dir=run_dir, resume=True)


class TestResume:
    def test_resume_of_completed_run_is_identical(self, tmp_path):
        run_dir = str(tmp_path / "run")
        first = explore(
            space(n=3, symmetry="full"), max_depth=6, store_dir=run_dir
        )
        resumed = explore(
            space(n=3, symmetry="full"),
            max_depth=6,
            store_dir=run_dir,
            resume=True,
        )
        assert resumed.stats.resumed_states == first.stats.states
        assert resumed.stats.states == first.stats.states
        assert resumed.stats.expansions == 0
        assert resumed.content_digest() == first.content_digest()
        assert resumed.visited == first.visited

    def test_resume_of_exhausted_run_re_expands_nothing(self, tmp_path):
        # No depth bound stops the token ring at n=2: the frontier runs
        # dry, and the final empty level says so to the resume.
        run_dir = str(tmp_path / "run")
        first = explore(space("token", 2), store_dir=run_dir)
        assert not first.stats.depth_limited
        resumed = explore(space("token", 2), store_dir=run_dir, resume=True)
        assert resumed.stats.resumed_states == first.stats.states
        assert resumed.stats.expansions == resumed.stats.reexpansions == 0
        assert resumed.visited == first.visited
        assert os.path.getsize(journal(run_dir)) == first.stats.spill_bytes

    def test_resume_on_empty_directory_is_a_fresh_run(self, tmp_path):
        run_dir = str(tmp_path / "run")
        serial = explore(space(), max_depth=6)
        resumed = explore(
            space(), max_depth=6, store_dir=run_dir, resume=True
        )
        assert resumed.stats.resumed_states == 0
        assert resumed.content_digest() == serial.content_digest()

    def test_truncated_run_resumes_to_the_same_cut_then_the_full_set(
        self, tmp_path
    ):
        run_dir = str(tmp_path / "run")
        bounds = {"max_depth": 6, "max_states": 40}
        serial_cut = explore(space(n=3, symmetry="full"), **bounds)
        assert serial_cut.stats.truncated
        cut = explore(space(n=3, symmetry="full"), store_dir=run_dir, **bounds)
        assert cut.visited == serial_cut.visited
        # The partial level is in the result but was never committed.
        assert sum(size for _e, _d, size in commits(run_dir)) < cut.states
        again = explore(
            space(n=3, symmetry="full"),
            store_dir=run_dir,
            resume=True,
            **bounds,
        )
        assert 0 < again.stats.resumed_states < again.states
        assert again.visited == serial_cut.visited
        assert again.content_digest() == serial_cut.content_digest()
        full = explore(
            space(n=3, symmetry="full"),
            max_depth=6,
            store_dir=run_dir,
            resume=True,
        )
        serial = explore(space(n=3, symmetry="full"), max_depth=6)
        assert not full.stats.truncated
        assert full.visited == serial.visited
        assert full.content_digest() == serial.content_digest()

    def test_kill9_midflight_then_resume_is_bit_identical(self, tmp_path):
        """The acceptance test: SIGKILL a journalled run mid-flight,
        resume from its journal, and land on the exact serial visited
        set."""
        run_dir = str(tmp_path / "run")
        script = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.explore import GlobalSimulatorSpace, explore\n"
            "from repro.tme import ClientConfig, tme_programs\n"
            "space = GlobalSimulatorSpace(\n"
            "    tme_programs('ra', 4, ClientConfig(think_delay=1,"
            " eat_delay=1)),\n"
            "    symmetry='full')\n"
            "print('READY', flush=True)\n"
            f"explore(space, max_depth=11, store_dir={run_dir!r})\n"
        )
        repo_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=repo_root,
            stdout=subprocess.PIPE,
        )
        try:
            assert child.stdout.readline().strip() == b"READY"
            # Let it get genuinely mid-run, then kill it abruptly.
            deadline = time.time() + 60
            while time.time() < deadline:
                if committed_level(run_dir) >= 5:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("journalled run never committed level 5")
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.wait()

        killed_at = committed_level(run_dir)
        resumed = explore(
            space("ra", 4, "full"),
            max_depth=11,
            store_dir=run_dir,
            resume=True,
        )
        reference = explore(space("ra", 4, "full"), max_depth=11)
        assert resumed.stats.resumed_states > 0
        assert resumed.stats.states == reference.stats.states
        assert resumed.content_digest() == reference.content_digest()
        assert resumed.visited == reference.visited
        # The resume genuinely continued (did not restart from scratch).
        assert killed_at >= 5


class TestCutAnywhere:
    """The property the SIGKILL test samples once: wherever the journal
    ends -- on any record boundary, inside any record -- a resume lands
    on the serial run, having replayed exactly the levels committed
    before the cut."""

    def test_resume_from_every_cut_is_bit_identical(self, tmp_path):
        def ra3():
            return space("ra", 3, "full")

        serial = explore(ra3(), max_depth=6)
        full_dir = str(tmp_path / "full")
        explore(ra3(), max_depth=6, store_dir=full_dir)
        boundaries, offset = [0], 0
        for _tag, _d, _a, payload in iter_records(journal(full_dir)):
            offset += FRAME_OVERHEAD + len(payload)
            boundaries.append(offset)
        assert offset == os.path.getsize(journal(full_dir))
        rng = random.Random(2025)
        torn = [
            rng.randrange(lo + 1, hi)
            for lo, hi in rng.sample(
                list(zip(boundaries, boundaries[1:], strict=False)), 25
            )
        ]
        committed = commits(full_dir)
        cut_dir = str(tmp_path / "cut")
        for cut in boundaries + torn:
            shutil.rmtree(cut_dir, ignore_errors=True)
            shutil.copytree(full_dir, cut_dir)
            os.truncate(journal(cut_dir), cut)
            resumed = explore(
                ra3(), max_depth=6, store_dir=cut_dir, resume=True
            )
            assert resumed.stats.resumed_states == sum(
                size for end, _depth, size in committed if end <= cut
            ), cut
            assert resumed.stats.states == serial.stats.states, cut
            assert resumed.content_digest() == serial.content_digest(), cut
            assert resumed.visited == serial.visited, cut
            # Frame-aligned, and the journal it left replays cleanly.
            size = os.path.getsize(journal(cut_dir))
            assert prefix_len(journal(cut_dir)) == size, cut
            again = explore(
                ra3(), max_depth=6, store_dir=cut_dir, resume=True
            )
            assert again.stats.resumed_states == serial.stats.states, cut
            assert again.content_digest() == serial.content_digest(), cut
            assert os.path.getsize(journal(cut_dir)) == size, cut


class TestFlipAnywhere:
    """A flipped bit is a cut at its frame: the levels behind it are
    re-derived, and no digest ever changes.  (Unchecked, a flip inside an
    ADMIT digest resumed to the same 28 states under another digest.)"""

    def test_resume_from_a_flipped_bit_is_bit_identical(self, tmp_path):
        def ra3():
            return space("ra", 3, "full")

        serial = explore(ra3(), max_depth=6)
        full_dir = str(tmp_path / "full")
        explore(ra3(), max_depth=6, store_dir=full_dir)
        first: dict[int, tuple[int, int]] = {}  # tag -> (start, payload len)
        offset = 0
        for tag, _d, _a, payload in iter_records(journal(full_dir)):
            if len(payload) > 0:
                first.setdefault(tag, (offset, len(payload)))
            offset += FRAME_OVERHEAD + len(payload)
        admit, member, commit = (
            first[REC_ADMIT][0],
            first[REC_MEMBER][0],
            first[REC_COMMIT][0],
        )
        flips = {
            "admit digest": admit + FRAME_OVERHEAD + 3,
            "member blob": member + FRAME_OVERHEAD + first[REC_MEMBER][1] // 2,
            "commit count": commit + FRAME_OVERHEAD,
            "header length": member + 9,
            "header tag": commit,
            "checksum": admit + FRAME_OVERHEAD - 1,
        }
        committed = commits(full_dir)
        cut_dir = str(tmp_path / "cut")
        for what, at in flips.items():
            shutil.rmtree(cut_dir, ignore_errors=True)
            shutil.copytree(full_dir, cut_dir)
            with open(journal(cut_dir), "rb+") as fh:
                fh.seek(at)
                byte = fh.read(1)[0]
                fh.seek(at)
                fh.write(bytes([byte ^ 0x04]))
            resumed = explore(
                ra3(), max_depth=6, store_dir=cut_dir, resume=True
            )
            kept = max((end for end, _d, _s in committed if end <= at), default=0)
            assert resumed.stats.journal_kept_bytes == kept, what
            assert resumed.stats.journal_discarded_bytes == offset - kept, what
            assert resumed.stats.resumed_states == sum(
                size for end, _depth, size in committed if end <= at
            ), what
            assert resumed.stats.states == serial.stats.states, what
            assert resumed.content_digest() == serial.content_digest(), what
            assert resumed.visited == serial.visited, what
            size = os.path.getsize(journal(cut_dir))
            assert prefix_len(journal(cut_dir)) == size, what
