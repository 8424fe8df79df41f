"""TME scenarios, scramblers, and the simulation factory.

This module bundles everything an experiment needs to stand up a TME
system:

* :func:`build_simulation` -- RA / Lamport / token-ring, optionally wrapped,
  over ``n`` processes with a seeded scheduler;
* :func:`scramble_tme_state` -- the domain-respecting transient-corruption
  scrambler (the paper's state space is typed: a corrupted ``REQ_j`` is an
  arbitrary *timestamp*, not an arbitrary bit pattern -- arbitrary bytes
  belong to *message* corruption, where receivers discard garbage);
* :func:`local_domain` -- its enumerated twin: every corrupted protocol
  state of one process over a bounded clock domain;
* :func:`tme_message_corrupter` / :func:`garbage_channel_filler` -- message
  faults;
* :func:`standard_fault_campaign` -- the E2 fault burst (loss + duplication
  + corruption + state corruption in a step window, then silence);
* :func:`deadlock_overrides` -- the paper's Section-4 deadlock: both
  processes hungry, both request messages lost, mutual information stale.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.clocks.timestamps import Timestamp
from repro.dsl.program import ProcessProgram
from repro.faults.injector import Composite, FaultInjector, Windowed
from repro.faults.message_faults import (
    MessageCorruption,
    MessageDuplication,
    MessageLoss,
)
from repro.faults.state_faults import StateCorruption
from repro.runtime.messages import Message
from repro.runtime.scheduler import RandomScheduler, Scheduler
from repro.runtime.simulator import Simulator
from repro.tme.client import ClientConfig
from repro.tme.interfaces import (
    HUNGRY,
    PHASES,
    RELEASE,
    REPLY,
    REQUEST,
    tmap,
)
from repro.tme.lamport_me import lamport_programs
from repro.tme.ra_counting import ra_counting_programs
from repro.tme.ricart_agrawala import ra_programs
from repro.tme.token_ring import token_ring_programs
from repro.tme.wrapper import WrapperConfig, wrap_system

if TYPE_CHECKING:
    from repro.runtime.process import ProcessRuntime

ALGORITHMS = ("ra", "ra-count", "lamport", "token")

_BUILDERS = {
    "ra": ra_programs,
    "ra-count": ra_counting_programs,
    "lamport": lamport_programs,
    "token": token_ring_programs,
}


def pids_for(n: int) -> tuple[str, ...]:
    """Canonical process ids ``p0..p{n-1}``."""
    if n < 2:
        raise ValueError("TME needs at least two processes")
    return tuple(f"p{i}" for i in range(n))


def tme_programs(
    algorithm: str,
    n: int,
    client: ClientConfig | None = None,
    wrapper: WrapperConfig | None = None,
) -> dict[str, ProcessProgram]:
    """Programs for an ``n``-process TME system, optionally wrapped with W."""
    try:
        builder = _BUILDERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
        ) from None
    programs = builder(pids_for(n), client)
    if wrapper is not None:
        programs = wrap_system(programs, wrapper)
    return programs


def build_simulation(
    algorithm: str = "ra",
    n: int = 3,
    seed: int = 0,
    client: ClientConfig | None = None,
    wrapper: WrapperConfig | None = None,
    fault_hook: FaultInjector | None = None,
    scheduler: Scheduler | None = None,
    deliver_bias: float = 1.0,
    overrides: dict[str, dict] | None = None,
    record_states: bool = True,
) -> Simulator:
    """Stand up a ready-to-run TME simulation (seeded, reproducible)."""
    programs = tme_programs(algorithm, n, client, wrapper)
    sched = scheduler or RandomScheduler(
        random.Random(seed), deliver_bias=deliver_bias
    )
    return Simulator(
        programs,
        sched,
        fault_hook=fault_hook,
        overrides=overrides,
        record_states=record_states,
    )


# ---------------------------------------------------------------------------
# State scrambling (transient corruption within the typed state space)
# ---------------------------------------------------------------------------

_MAX_CLOCK = 40


def _random_ts(rng: random.Random, pid: str) -> Timestamp:
    return Timestamp(rng.randint(0, _MAX_CLOCK), pid)


def scramble_tme_state(
    proc: "ProcessRuntime", rng: random.Random
) -> dict[str, object]:
    """Corrupt a random non-empty subset of the process's protocol state.

    Client workload counters are left alone: Client Spec is assumed
    everywhere-implemented (Section 3.2), so the client's bookkeeping is not
    part of the corruptible protocol state.
    """
    pid = proc.pid
    peers = proc.peers
    variables = proc.variables
    candidates: dict[str, object] = {
        "phase": rng.choice(PHASES),
        "lc": rng.randint(0, _MAX_CLOCK),
        "req": _random_ts(rng, pid),
    }
    if "req_of" in variables:
        candidates["req_of"] = tmap({k: _random_ts(rng, k) for k in peers})
    if "received" in variables:
        candidates["received"] = tmap(
            {k: rng.random() < 0.5 for k in peers}
        )
    if "queue" in variables:
        entries = [
            _random_ts(rng, k) for k in peers if rng.random() < 0.5
        ]
        candidates["queue"] = tuple(sorted(entries))
    if "grant" in variables:
        candidates["grant"] = tmap({k: rng.random() < 0.5 for k in peers})
    if "tokens" in variables:
        candidates["tokens"] = rng.randint(0, 2)
    for set_var in ("awaiting", "deferred"):
        if set_var in variables:
            candidates[set_var] = frozenset(
                k for k in peers if rng.random() < 0.5
            )
    if "w_timer" in variables:
        candidates["w_timer"] = rng.randint(0, 3 * _MAX_CLOCK)
    names = sorted(candidates)
    chosen = rng.sample(names, rng.randint(1, len(names)))
    return {name: candidates[name] for name in chosen}


def local_domain(
    algorithm: str, pid: str, pids: tuple[str, ...], max_clock: int
) -> Iterator[dict[str, object]]:
    """Every corrupted protocol state of ``pid`` with clocks ``<= max_clock``:
    the enumerated twin of :func:`scramble_tme_state`, which samples the
    same typed variables.  Each item is an ``overrides`` mapping over the
    program's initial valuation (the client's bookkeeping is not part of
    the corruptible state):

    * ``ra``: phase x lc x REQ x (j.REQ_k, received_k) per peer;
    * ``lamport``: phase x lc x REQ x a queue holding at most one entry per
      process x grant_k per peer.
    """
    peers = tuple(k for k in pids if k != pid)
    clocks = range(max_clock + 1)
    if algorithm == "ra":
        copies = list(itertools.product(clocks, (False, True)))
        rest = [
            {
                "req_of": tmap(
                    {k: Timestamp(c, k) for k, (c, _) in zip(peers, choice)}
                ),
                "received": tmap(
                    {k: flag for k, (_, flag) in zip(peers, choice)}
                ),
            }
            for choice in itertools.product(copies, repeat=len(peers))
        ]
    elif algorithm == "lamport":
        slots = [(None, *(Timestamp(c, k) for c in clocks)) for k in pids]
        rest = [
            {
                "queue": tuple(sorted(e for e in entries if e is not None)),
                "grant": tmap(dict(zip(peers, grants))),
            }
            for entries in itertools.product(*slots)
            for grants in itertools.product((False, True), repeat=len(peers))
        ]
    else:
        raise ValueError(f"no local domain for algorithm {algorithm!r}")
    for phase, lc, req in itertools.product(PHASES, clocks, clocks):
        for extra in rest:
            yield {"phase": phase, "lc": lc, "req": Timestamp(req, pid), **extra}


# ---------------------------------------------------------------------------
# Message corruption / garbage injection
# ---------------------------------------------------------------------------

_TME_KINDS = (REQUEST, REPLY, RELEASE)


def tme_message_corrupter(
    msg: Message, rng: random.Random, new_uid: int
) -> Message:
    """Corrupt a TME message: scramble its timestamp, flip its kind, or turn
    the payload to unparseable garbage."""
    roll = rng.random()
    if roll < 0.5:
        return msg.corrupted(new_uid, payload=_random_ts(rng, msg.sender))
    if roll < 0.8:
        return msg.corrupted(new_uid, kind=rng.choice(_TME_KINDS))
    return msg.corrupted(new_uid, payload="<garbage>")


def garbage_channel_filler(
    src: str, dst: str, rng: random.Random, max_messages: int = 2
):
    """Improper channel initialization: preload forged TME messages."""
    count = rng.randint(0, max_messages)
    out = []
    for i in range(count):
        out.append(
            Message(
                uid=-(1000 + i),
                kind=rng.choice(_TME_KINDS),
                sender=src,
                receiver=dst,
                payload=_random_ts(rng, src),
                send_event_uid=None,
            )
        )
    return out


# ---------------------------------------------------------------------------
# The standard E2 campaign: a finite burst of everything
# ---------------------------------------------------------------------------


def standard_fault_campaign(
    seed: int,
    start: int,
    stop: int,
    loss: float = 0.15,
    duplication: float = 0.1,
    corruption: float = 0.1,
    state_corruption: float = 0.05,
) -> FaultInjector:
    """Loss + duplication + corruption + state corruption inside
    ``[start, stop)``; silence outside -- the paper's "finite number of
    faults" followed by the convergence phase."""
    rng = random.Random(seed)
    burst = Composite(
        [
            MessageLoss(rng, loss),
            MessageDuplication(rng, duplication),
            MessageCorruption(rng, corruption, tme_message_corrupter),
            StateCorruption(rng, state_corruption, scramble_tme_state),
        ]
    )
    return Windowed(burst, start, stop)


# ---------------------------------------------------------------------------
# The Section-4 deadlock scenario
# ---------------------------------------------------------------------------


def deadlock_overrides(algorithm: str, pids: tuple[str, str]) -> dict[str, dict]:
    """The paper's deadlock (Section 4): ``j`` and ``k`` both requested,
    both request messages were dropped, and each holds stale information
    about the other: ``j.REQ_k lt REQ_j  /\\  k.REQ_j lt REQ_k``.

    Returns the ``overrides`` mapping for :func:`build_simulation`; the
    channels start empty, so nothing in the unwrapped system can ever fire.
    """
    j, k = pids
    req_j = Timestamp(5, j)
    req_k = Timestamp(4, k)
    if algorithm == "ra":
        return {
            j: {
                "phase": HUNGRY,
                "lc": 5,
                "req": req_j,
                "req_of": tmap({k: Timestamp(3, k)}),
                "received": tmap({k: False}),
            },
            k: {
                "phase": HUNGRY,
                "lc": 4,
                "req": req_k,
                "req_of": tmap({j: Timestamp(2, j)}),
                "received": tmap({j: False}),
            },
        }
    if algorithm == "lamport":
        return {
            j: {
                "phase": HUNGRY,
                "lc": 5,
                "req": req_j,
                "queue": (req_j,),
                "grant": tmap({k: False}),
            },
            k: {
                "phase": HUNGRY,
                "lc": 4,
                "req": req_k,
                "queue": (req_k,),
                "grant": tmap({j: False}),
            },
        }
    raise ValueError(f"no deadlock scenario for algorithm {algorithm!r}")
