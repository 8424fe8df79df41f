"""The trace digest: incremental rendering, identical bytes.

``TraceDigest`` keeps the last rendering of every variable and channel key
and assembles a state's text from them.  The references below render
everything from scratch -- ``reference_repr`` is the
definition ``canonical_repr`` has always had, ``ReferenceDigest`` hashes it
over the same tuples -- and every test drives both through the same run.
The golden digests were recorded on the commit before the digest became
incremental; artifacts, journals and the benchmark's pins hold thousands
more of the same kind.
"""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec, ChurnRates, replay_trial, run_trial
from repro.campaign.seeds import SCHEDULER_STREAM, spawn_rng
from repro.campaign.trial import (
    TraceDigest,
    build_trial_simulator,
    canonical_repr,
)
from repro.clocks.timestamps import Timestamp
from repro.recovery import RecoveryConfig
from repro.runtime import RandomScheduler
from repro.runtime.trace import StepRecord

SRC = Path(__file__).resolve().parents[2] / "src"


def reference_repr(obj):
    if isinstance(obj, (frozenset, set)):
        return "{" + ",".join(sorted(reference_repr(x) for x in obj)) + "}"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: reference_repr(kv[0]))
        return (
            "{"
            + ",".join(
                f"{reference_repr(k)}:{reference_repr(v)}" for k, v in items
            )
            + "}"
        )
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(reference_repr(x) for x in obj) + ")"
    return repr(obj)


class ReferenceDigest:
    def __init__(self):
        self._hash = hashlib.sha256()

    def update_step(self, record):
        self._hash.update(
            reference_repr(
                (
                    record.index,
                    record.kind,
                    record.pid,
                    record.action,
                    record.delivered_kind,
                    record.delivered_from,
                    record.sends,
                    record.faults,
                )
            ).encode()
        )

    def update_state(self, simulator):
        snapshot = simulator.snapshot()
        self._hash.update(
            reference_repr((snapshot.processes, snapshot.channels)).encode()
        )

    def hexdigest(self):
        return self._hash.hexdigest()


# -- canonical_repr against its definition -----------------------------------


class Pair(NamedTuple):
    left: object
    right: object


class Shout(str):
    def __repr__(self):
        return "SHOUT"


atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.builds(Timestamp, st.integers(0, 3), st.sampled_from(["p0", "p1"])),
    st.builds(Shout, st.text(max_size=2)),
)
hashables = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.builds(Pair, inner, inner),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=8,
)
values = st.recursive(
    hashables,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(hashables, inner, max_size=3),
        st.sets(hashables, max_size=3),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(value=values)
def test_canonical_repr_is_its_definition(value):
    assert canonical_repr(value) == reference_repr(value)


def test_canonical_repr_tells_equal_values_of_other_types_apart():
    assert canonical_repr((1, 0)) != canonical_repr((True, False))
    assert canonical_repr(("x",)) != canonical_repr((Shout("x"),))
    assert canonical_repr(Pair(1, 2)) == canonical_repr((1, 2)) == "(1,2)"


# -- TraceDigest against the reference, through one run ----------------------

PIDS = ("p0", "p1", "p2")
#: ``1 == True == 1.0`` and ``0 == False``: equal, rendered apart.
PUNS = (0, False, 1, True, 1.0)
OPS = (
    "step", "step", "step", "step", "state", "pun", "copy", "bag", "table",
    "crash", "cut", "heal",
)


def fresh_copy(value):
    """An equal object that is not the same object, where one exists."""
    if isinstance(value, tuple):
        return tuple(list(value))
    if isinstance(value, frozenset):
        return frozenset(set(value))
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, Timestamp):
        return Timestamp(value.clock, value.pid)
    if isinstance(value, int) and not isinstance(value, bool):
        return int(str(value))
    return value


def drive(ops, seed=0, algorithm="ra"):
    """Apply ``ops`` -- ``(name, a, b)`` triples -- to a wrapped n=3 system
    and feed every step and state to both digests.  Returns them."""
    spec = CampaignSpec(algorithm, n=3, root_seed=seed, fault_stop=0, fault_start=0)
    sim = build_trial_simulator(
        spec, RandomScheduler(spawn_rng(seed, 0, SCHEDULER_STREAM)), None
    )
    for pid, proc in sim.processes.items():
        proc.variables["flag"] = 0
        proc.variables["bag"] = frozenset({pid, "shared"})
        proc.variables["table"] = {"b": (1,), "a": frozenset({"y", "x"})}
    digest, reference = TraceDigest(), ReferenceDigest()

    def both(method, argument):
        getattr(digest, method)(argument)
        getattr(reference, method)(argument)
        assert digest.hexdigest() == reference.hexdigest(), (method, argument)

    both("update_state", sim)
    for name, a, b in ops:
        pid = PIDS[a % 3]
        proc = sim.processes[pid]
        if name == "step":
            both("update_step", sim.step())
        elif name == "state":
            both("update_state", sim)
        elif name == "crash":
            if sum(not p.is_live for p in sim.processes.values()) == 0:
                restart = dict(proc.variables, flag=PUNS[b % 5]) if b % 2 else None
                sim.crash_process(
                    pid, restart_at=sim.step_index + 1 + b % 4, restart_vars=restart
                )
        elif name == "cut":
            sim.network.cut_link(pid, PIDS[(a + 1 + b % 2) % 3], heal_at=None)
        elif name == "heal":
            sim.network.heal_all()
        elif proc.is_live:
            if name == "pun":
                proc.variables["flag"] = PUNS[b % 5]
            elif name == "copy":
                # an in-place corrupt to an equal, not identical, object
                victim = sorted(proc.variables)[b % len(proc.variables)]
                proc.corrupt({victim: fresh_copy(proc.variables[victim])})
            elif name == "bag":
                bag = proc.variables.get("bag", frozenset())
                proc.variables["bag"] = bag ^ {f"e{b % 4}", PUNS[b % 5]}
            elif name == "table":
                table = dict(proc.variables.get("table", {}))
                table[PUNS[b % 5]] = (b % 3, frozenset({pid}))
                proc.variables["table"] = table
    both("update_state", sim)
    return digest, reference


def seeded_ops(seed, count=160):
    rng = random.Random(seed)
    return [
        (rng.choice(OPS), rng.randrange(12), rng.randrange(60))
        for _ in range(count)
    ]


@pytest.mark.parametrize("algorithm", ["ra", "lamport"])
@pytest.mark.parametrize("seed", range(6))
def test_seeded_runs_match_the_reference(seed, algorithm):
    digest, reference = drive(seeded_ops(seed), seed, algorithm)
    assert digest.hexdigest() == reference.hexdigest()


def test_the_seeded_runs_reach_what_they_are_meant_to():
    """Crashed and restarted processes, cut links and queued messages are
    all present at some state digest of the seeded runs."""
    seen = set()
    original = ReferenceDigest.update_state

    def spying(self, simulator):
        snapshot = simulator.snapshot()
        statuses = {
            dict(variables).get("__status__") for _pid, variables in snapshot.processes
        }
        seen.update(s for s in statuses if s)
        if snapshot.down:
            seen.add("cut")
        if snapshot.messages_in_flight():
            seen.add("mail")
        for _pid, variables in snapshot.processes:
            flag = dict(variables).get("flag")
            seen.add(f"flag:{flag!r}")
        original(self, simulator)

    ReferenceDigest.update_state = spying
    try:
        for seed in range(6):
            drive(seeded_ops(seed), seed)
    finally:
        ReferenceDigest.update_state = original
    assert {"crashed", "recovering", "cut", "mail"} <= seen
    assert {"flag:0", "flag:False", "flag:1", "flag:True", "flag:1.0"} <= seen


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 11), st.integers(0, 59)),
        max_size=60,
    ),
    seed=st.integers(0, 2**16),
)
def test_random_runs_match_the_reference(ops, seed):
    digest, reference = drive(ops, seed)
    assert digest.hexdigest() == reference.hexdigest()


def test_equal_records_of_other_types_are_not_confused():
    """Equal records of other types render -- and digest -- apart, in
    whatever order they arrive."""
    plain = StepRecord(1, "deliver", "p0", "a", "k", "p1", (("k", "p1"),), ())
    for field, value in (
        ("sends", ((Shout("k"), "p1"),)),
        ("delivered_kind", Shout("k")),
        ("sends", [("k", "p1")]),
    ):
        odd = dataclasses.replace(plain, **{field: value})
        digest, reference = TraceDigest(), ReferenceDigest()
        for record in (plain, odd, plain, odd):
            digest.update_step(record)
            reference.update_step(record)
        assert digest.hexdigest() == reference.hexdigest(), field
    puns = [
        StepRecord(i, "internal", "p0", "a", sends=((kind, "p1"),))
        for i, kind in enumerate((1, True, 1.0, 0, False))
    ]
    digest, reference = TraceDigest(), ReferenceDigest()
    for record in puns + puns:
        digest.update_step(record)
        reference.update_step(record)
    assert digest.hexdigest() == reference.hexdigest()


def test_digests_do_not_depend_on_the_hash_seed():
    """Set and dict iteration order moves with ``PYTHONHASHSEED``; the
    bytes that are hashed may not."""
    script = (
        "from tests.campaign.test_digest import drive, seeded_ops\n"
        "for seed in (1, 4):\n"
        "    d, r = drive(seeded_ops(seed), seed)\n"
        "    print(d.hexdigest(), r.hexdigest())\n"
    )
    outputs = []
    for hash_seed in ("0", "7"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([str(SRC), str(SRC.parent)]),
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(done.stdout.split())
    assert outputs[0] == outputs[1]
    assert all(
        ours == theirs
        for ours, theirs in zip(outputs[0][::2], outputs[0][1::2])
    )
    here = [drive(seeded_ops(seed), seed)[0].hexdigest() for seed in (1, 4)]
    assert here == outputs[0][::2]


# -- whole trials: golden digests from before the digest was incremental -----

FAST = CampaignSpec(
    algorithm="ra",
    n=3,
    root_seed=11,
    fault_start=10,
    fault_stop=40,
    confirm_window=80,
    max_steps=600,
)
GOLDEN = {
    "RA n=4, churn + recovery": (
        CampaignSpec(
            algorithm="ra",
            n=4,
            root_seed=21,
            fault_start=10,
            fault_stop=60,
            confirm_window=120,
            max_steps=900,
            churn=ChurnRates(),
            recovery=RecoveryConfig(),
        ),
        {
            0: "280bfccb4f6c18beda31b74cf7d3182c6d5375635bdcd0812ca0f09287eea4c4",
            3: "18dc6db02d5ae8f6614593dc4df00d55926378f6838ffc61d2be8b65e8de11b1",
            5: "818787a1e4d970c03c9fba10fd481c210bcbf50fabf869f215bd01fb3dc85574",
        },
    ),
    "Lamport n=3": (
        dataclasses.replace(FAST, algorithm="lamport"),
        {
            0: "fa873f337b228ac3ecc0f87be3f3f961105cfc8cce71ccecd5fc1f2b476d8b94",
            1: "94d3f6f0eb8c61d0f563d131f3e03a74ba3f26c1c1a08fd8b52e39e24a434f9c",
        },
    ),
    "bare RA": (
        dataclasses.replace(FAST, theta=None),
        {
            0: "a3193de68a40d608629b82e07e4ab5628924f15f7fe67fd9f10f2cd31982c9e5",
            1: "d50bdf3dddc890cf77969feabba3795c2b1dd41afdd4f9bf24e2eee64ea99332",
        },
    ),
    "no state digests": (
        dataclasses.replace(FAST, digest_every=0),
        {
            0: "3fa1533459593aceea26951a00f67953a6ce839077da46d1f6d3127456832f92",
            1: "9154c53e4d3b5ff28f3e3ececce74a622a147493e5ae2e3229930010609bbcb7",
        },
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_trial_digests_and_replay(name):
    spec, expected = GOLDEN[name]
    for trial_id, golden in expected.items():
        free = run_trial(spec, trial_id, keep_decisions="always")
        assert free.digest == golden, (name, trial_id)
        scripted = replay_trial(spec, trial_id, free.decisions)
        assert scripted.digest == golden, (name, trial_id)
        assert (scripted.outcome, scripted.steps) == (free.outcome, free.steps)
