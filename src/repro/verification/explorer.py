"""Bounded state-space exploration: the graybox-vs-whitebox cost experiment.

Section 1 argues that whitebox stabilization does not scale because "the
complexity of calculating the invariant of large implementations may be
exorbitant": the whitebox designer reasons over the *global* state space
(the product of all process states and channel contents), while the graybox
designer discharges *per-process* obligations against local specifications
(Theorem 4 reduces ``[C => A]`` to ``forall i : [C_i => A_i]``).

This module makes that asymmetry measurable:

* :func:`explore_global` -- breadth-first enumeration of the distinct
  *global* states reachable within a step bound (the object a whitebox
  invariant must cover);
* :func:`explore_local` -- breadth-first enumeration of one process's
  *local* states under every possible received message from a bounded
  alphabet (the object a graybox per-process check covers; the system-wide
  graybox cost is the *sum*, not the *product*, over processes).

E7 sweeps ``n`` and reports both counts.

Both functions are thin wrappers over the unified exploration engine
(:mod:`repro.explore`): global expansion evaluates each distinct local
valuation once and patches snapshots (so even the whitebox count is *paid
for* per local state -- ``local_evaluations``), optionally across a
process pool, and every result carries the engine's
:class:`~repro.explore.ExplorationStats`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.clocks.timestamps import Timestamp
from repro.dsl.program import ProcessProgram
from repro.explore import (
    ExplorationStats,
    GlobalSimulatorSpace,
    LocalProcessSpace,
    explore,
)


@dataclass(frozen=True)
class ExplorationResult:
    """How many distinct states a bounded exploration visited.

    ``stats`` carries the engine's full instrumentation (throughput,
    dedup hit-rate, peak frontier, truncation cause); the three legacy
    fields remain for existing callers.  ``local_evaluations`` is the
    global space's ``(internal, deliver)`` count of distinct local
    evaluations behind those states (in-process global runs only).
    """

    label: str
    states: int
    frontier_truncated: bool
    depth_reached: int
    stats: ExplorationStats | None = None
    content_digest: str | None = None
    local_evaluations: tuple[int, int] | None = None


def explore_global(
    programs: Mapping[str, ProcessProgram],
    max_depth: int = 8,
    max_states: int = 200_000,
    max_seconds: float | None = None,
    workers: int = 1,
    symmetry: str | bool | None = None,
    profile: bool = False,
    store_dir: str | None = None,
    resume: bool = False,
    digest: bool = False,
) -> ExplorationResult:
    """All distinct global states reachable from proper initialization in at
    most ``max_depth`` steps (whitebox verification surface).

    ``workers > 1`` shards the frontier across forked worker processes
    (bit-identical visit set, wall-clock divided across cores);
    ``max_seconds`` adds a wall-time budget on top of the depth and
    state bounds.  ``symmetry`` (``"full"`` or ``"ring"``) counts one
    representative per process-permutation orbit instead of every
    renamed copy; see :mod:`repro.explore.canon` for which group is
    sound for which algorithm.  ``store_dir`` spills visited states to
    an on-disk journal (out-of-core exploration) and checkpoints every
    BFS level; ``resume=True`` continues a killed run from its last
    committed level instead of starting over.  ``profile=True``
    attaches the engine's per-phase timing breakdown to
    ``stats.profile``; ``digest=True`` adds the order-independent
    content digest of the visited set (always present for
    checkpointed/sharded runs, where it is precomputed).
    """
    space = GlobalSimulatorSpace(programs, symmetry=symmetry)
    result = explore(
        space,
        max_depth=max_depth,
        max_states=max_states,
        max_seconds=max_seconds,
        workers=workers,
        profile=profile,
        store_dir=store_dir,
        resume=resume,
    )
    return ExplorationResult(
        "global",
        result.states,
        result.stats.truncated,
        result.stats.depth_reached,
        stats=result.stats,
        content_digest=(
            result.content_digest()
            if digest or store_dir is not None or workers > 1
            else None
        ),
        # Shard workers evaluate in their own forked copies of the space.
        local_evaluations=(
            space.local_evaluations
            if workers == 1 and store_dir is None
            else None
        ),
    )


def default_message_alphabet(
    peers: Iterable[str], kinds: Iterable[str], max_clock: int
) -> list[tuple[str, str, Timestamp]]:
    """(sender, kind, payload) triples a process may receive."""
    return [
        (sender, kind, Timestamp(c, sender))
        for sender in peers
        for kind in kinds
        for c in range(max_clock + 1)
    ]


def explore_local(
    program: ProcessProgram,
    pid: str,
    all_pids: tuple[str, ...],
    kinds: Iterable[str],
    max_depth: int = 8,
    max_clock: int = 6,
    max_states: int = 200_000,
    max_seconds: float | None = None,
    symmetry: bool = False,
    profile: bool = False,
) -> ExplorationResult:
    """All distinct *local* states of one process reachable within
    ``max_depth`` of its own steps, under any receivable message from the
    bounded alphabet (graybox per-process verification surface).
    ``symmetry=True`` quotients under permutations of the peers;
    ``profile=True`` attaches per-phase timing to ``stats.profile``."""
    peers = tuple(p for p in all_pids if p != pid)
    space = LocalProcessSpace(
        program,
        pid,
        all_pids,
        default_message_alphabet(peers, kinds, max_clock),
        max_clock,
        symmetry=symmetry,
    )
    result = explore(
        space,
        max_depth=max_depth,
        max_states=max_states,
        max_seconds=max_seconds,
        profile=profile,
    )
    return ExplorationResult(
        "local",
        result.states,
        result.stats.truncated,
        result.stats.depth_reached,
        stats=result.stats,
    )
