"""Unified state-space exploration: one engine for every bounded search.

See :mod:`repro.explore.engine` for the engine and its instrumentation,
:mod:`repro.explore.spaces` for the adapters (transition-system graphs,
global simulator spaces, per-process local spaces),
:mod:`repro.explore.canon` for process-permutation symmetry reduction,
:mod:`repro.explore.store` for the interned packed visited store, and
:mod:`repro.explore.shard` for the journalled, resumable one.
"""

from repro.explore.canon import (
    canonical_global,
    canonical_local,
    full_symmetry,
    orbit_of,
    peer_symmetry,
    rename_global_state,
    rename_local_snapshot,
    rename_value,
    ring_rotations,
)
from repro.explore.engine import (
    BFS,
    DFS,
    TRUNCATED_BY_STATES,
    TRUNCATED_BY_TIME,
    Exploration,
    ExplorationStats,
    PhaseProfile,
    explore,
)
from repro.explore.packed import (
    CachedCanonicalizer,
    PackedGlobalCanonicalizer,
)
from repro.explore.spaces import (
    FULL_SYMMETRY,
    RING_SYMMETRY,
    GlobalSimulatorSpace,
    LocalProcessSpace,
    StateSpace,
    TransitionSystemSpace,
    default_message_alphabet,
)
from repro.explore.store import (
    GlobalStateCodec,
    InternedStateStore,
    Interner,
    PlainStateStore,
    StateCodec,
    make_visited_store,
    order_key,
)

__all__ = [
    "BFS",
    "DFS",
    "FULL_SYMMETRY",
    "RING_SYMMETRY",
    "TRUNCATED_BY_STATES",
    "TRUNCATED_BY_TIME",
    "CachedCanonicalizer",
    "Exploration",
    "ExplorationStats",
    "GlobalSimulatorSpace",
    "GlobalStateCodec",
    "InternedStateStore",
    "Interner",
    "LocalProcessSpace",
    "PackedGlobalCanonicalizer",
    "PhaseProfile",
    "PlainStateStore",
    "StateCodec",
    "StateSpace",
    "TransitionSystemSpace",
    "canonical_global",
    "canonical_local",
    "default_message_alphabet",
    "explore",
    "full_symmetry",
    "make_visited_store",
    "orbit_of",
    "order_key",
    "peer_symmetry",
    "rename_global_state",
    "rename_local_snapshot",
    "rename_value",
    "ring_rotations",
]
