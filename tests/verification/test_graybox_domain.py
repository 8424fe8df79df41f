"""The enumerated corrupted domain and the graybox space's moves.

:func:`repro.tme.scenarios.local_domain` is the state set Theorems 9/10's
exhaustive check judges and E7's L column counts;
:meth:`repro.explore.LocalProcessSpace.moves` is its transition relation.
These tests hold the domain to the product enumerations it replaced, the
moves to what the real runtime does from the same states, and E8b's
triples to their published values.
"""

import itertools
import random

import pytest

from repro.clocks.timestamps import Timestamp
from repro.dsl import GuardedAction, ProcessProgram
from repro.explore import LocalProcessSpace, default_message_alphabet
from repro.runtime import RandomScheduler, Simulator
from repro.tme import ClientConfig, ricart_agrawala, tme_programs
from repro.tme.interfaces import HUNGRY, PHASES, RELEASE, REPLY, REQUEST, tmap
from repro.tme.scenarios import local_domain
from repro.verification import count_local_states, exhaustive_lspec_check
from repro.verification.refinement import MAX_WITNESSES

PIDS = ("p0", "p1")
KINDS = {"ra": (REQUEST, REPLY), "lamport": (REQUEST, REPLY, RELEASE)}
#: E8's client: no think/eat delay, unbounded sessions.
CLIENT = ClientConfig(think_delay=0, eat_delay=0)


# -- the oracle: the two product enumerations local_domain replaced ----------


def oracle_ra(pid, peer, max_clock):
    clocks = range(max_clock + 1)
    for phase, lc, req_c, req_of_c, recv in itertools.product(
        PHASES, clocks, clocks, clocks, (False, True)
    ):
        yield {
            "phase": phase,
            "lc": lc,
            "req": Timestamp(req_c, pid),
            "req_of": tmap({peer: Timestamp(req_of_c, peer)}),
            "received": tmap({peer: recv}),
            "think_timer": 0,
            "eat_timer": 0,
            "sessions_left": -1,
        }


def oracle_lamport(pid, peer, max_clock):
    clocks = range(max_clock + 1)
    queue_options = [()]
    queue_options += [(Timestamp(c, pid),) for c in clocks]
    queue_options += [(Timestamp(c, peer),) for c in clocks]
    queue_options += [
        tuple(sorted((Timestamp(a, pid), Timestamp(b, peer))))
        for a in clocks
        for b in clocks
    ]
    for phase, lc, req_c, queue, grant in itertools.product(
        PHASES, clocks, clocks, queue_options, (False, True)
    ):
        yield {
            "phase": phase,
            "lc": lc,
            "req": Timestamp(req_c, pid),
            "queue": queue,
            "grant": tmap({peer: grant}),
            "think_timer": 0,
            "eat_timer": 0,
            "sessions_left": -1,
        }


ORACLES = {"ra": oracle_ra, "lamport": oracle_lamport}


def frozen(valuations):
    return {tuple(sorted(v.items())) for v in valuations}


class TestDomain:
    @pytest.mark.parametrize("algorithm", ["ra", "lamport"])
    @pytest.mark.parametrize("max_clock", [1, 2, 3])
    def test_equals_the_product_enumeration(self, algorithm, max_clock):
        initial = tme_programs(algorithm, 2, CLIENT)["p0"].initial_vars
        ours = [
            {**initial, **overrides}
            for overrides in local_domain(algorithm, "p0", PIDS, max_clock)
        ]
        oracle = list(ORACLES[algorithm]("p0", "p1", max_clock))
        assert len(ours) == len(oracle)
        assert frozen(ours) == frozen(oracle)

    def test_sizes_are_e7s_local_column(self):
        sizes = [count_local_states("ra", n=n, max_clock=2) for n in (2, 3, 4, 5)]
        assert sizes == [162, 972, 5_832, 34_992]
        lamport = list(local_domain("lamport", "p0", PIDS, 2))
        assert len(lamport) == len(frozen(lamport)) == 864

    def test_every_peer_is_corrupted_independently(self):
        pids = ("p0", "p1", "p2")
        ra = list(local_domain("ra", "p1", pids, 1))
        assert len(ra) == len(frozen(ra)) == 3 * 2 * 2 * (2 * 2) ** 2
        for overrides in ra:
            assert [k for k, _ in overrides["req_of"]] == ["p0", "p2"]
        lamport = list(local_domain("lamport", "p1", pids, 1))
        # a queue slot per process (empty or one of two clocks) and a grant
        # bit per peer
        assert len(lamport) == len(frozen(lamport)) == 3 * 2 * 2 * 3**3 * 2**2
        for overrides in lamport:
            owners = [entry.pid for entry in overrides["queue"]]
            assert len(owners) == len(set(owners))
            assert list(overrides["queue"]) == sorted(overrides["queue"])

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            list(local_domain("token", "p0", PIDS, 2))


# -- the moves against the runtime ---------------------------------------------


def metadata_free(message):
    """Does the delivery merge the receiver's clock as its payload alone
    would?  The local space's alphabet carries no piggybacked send clock
    (a snapshot holds none), so only such deliveries are its moves."""
    return (
        message.sender_clock is None
        or message.sender_clock <= message.payload.clock
    )


@pytest.mark.parametrize("algorithm", ["ra", "lamport"])
def test_runtime_steps_are_moves(algorithm):
    """Seeded 2-process simulations from domain states with garbage
    channels: every p0 program step that runs an internal action or
    delivers an alphabet message lands on one of ``moves(pre)``; from the
    same states ``successors`` is exactly the in-bound moves, in order."""
    k = 2
    programs = tme_programs(algorithm, 2, CLIENT)
    alphabet = default_message_alphabet(("p1",), KINDS[algorithm], k)
    space = LocalProcessSpace(programs["p0"], "p0", PIDS, alphabet, k)
    acceptable = set(alphabet)
    domains = {pid: list(local_domain(algorithm, pid, PIDS, k)) for pid in PIDS}
    rng = random.Random(26)
    judged = delivered = 0
    for run in range(20):
        sim = Simulator(
            programs,
            RandomScheduler(random.Random(run)),
            overrides={pid: rng.choice(domains[pid]) for pid in PIDS},
        )
        for src, dst in (("p0", "p1"), ("p1", "p0")):
            for _ in range(rng.randint(2, 5)):
                kind = rng.choice((REQUEST, REPLY, RELEASE))
                sim.network.send(kind, src, dst, Timestamp(rng.randint(0, k), src))
        for _ in range(40):
            pre = sim.processes["p0"].snapshot()
            head = sim.network.channel("p1", "p0").peek()
            record = sim.step()
            if record.pid != "p0":
                continue
            if record.kind == "deliver":
                if (head.sender, head.kind, head.payload) not in acceptable:
                    continue
                if not metadata_free(head):
                    continue
                delivered += 1
            moves = [snapshot for _label, snapshot in space.moves(pre)]
            assert sim.processes["p0"].snapshot() in moves
            in_bound = [s for s in moves if dict(s)["lc"] <= k]
            assert list(space.successors(pre)) == in_bound
            judged += 1
    assert judged > 150 and delivered > 50, (judged, delivered)


# -- E8b ---------------------------------------------------------------------


class TestE8b:
    @pytest.mark.parametrize(
        "algorithm, triple",
        [("ra", (162, 1_116, 0)), ("lamport", (864, 8_460, 0))],
    )
    def test_published_triples(self, algorithm, triple):
        result = exhaustive_lspec_check(algorithm, max_clock=2)
        assert (
            result.states_checked,
            result.transitions_checked,
            result.violation_count,
        ) == triple
        assert result.ok and result.violations == ()

    def test_counts_every_violating_edge(self, monkeypatch):
        """An RA whose grant ignores ``req_of`` enters the CS from every
        hungry state whose REQ is not below the peer's copy.  At the
        default ``max_clock=3`` those are 4 values of lc x 6 (REQ, j.REQ_k)
        clock pairs with REQ's clock the larger x 2 received flags = 48
        edges: more than the witnesses kept, and every one counted."""
        build = ricart_agrawala.ra_program

        def barging(pid, all_pids, client):
            program = build(pid, all_pids, client)
            actions = tuple(
                GuardedAction(a.name, lambda v: v.phase == HUNGRY, a.body)
                if a.name == "ra:grant"
                else a
                for a in program.actions
            )
            return ProcessProgram(
                program.name,
                program.initial_vars,
                actions,
                program.receive_actions,
            )

        monkeypatch.setattr(ricart_agrawala, "ra_program", barging)
        result = exhaustive_lspec_check("ra")
        assert result.violation_counts == {"cs_entry": 48}
        assert result.violation_count == 48
        assert len(result.violations) == MAX_WITNESSES
        for witness in result.violations:
            assert witness.clause == "cs_entry" and witness.move == "ra:grant"
            assert dict(witness.valuation)["phase"] == HUNGRY
            assert "blocked by ['p1']" in witness.detail
