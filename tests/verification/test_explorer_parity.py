"""Parity: the exploration engine equals the original rebuild-based BFS.

Global and local exploration were migrated from a standalone
rebuild-a-simulator-per-branch BFS onto the unified exploration engine
(:func:`repro.explore.explore` over a ``GlobalSimulatorSpace`` /
``LocalProcessSpace``).  The migration must be observationally invisible:
the reference implementations below reproduce the original algorithms
verbatim (modulo docstrings), and these tests assert identical
distinct-state counts, truncation flags, and depths on the TME systems the
repository actually explores (E7).
"""

from collections import deque

from repro.explore import (
    GlobalSimulatorSpace,
    LocalProcessSpace,
    default_message_alphabet,
    explore,
)
from repro.runtime.process import ProcessRuntime
from repro.runtime.scheduler import RoundRobinScheduler
from repro.runtime.simulator import Simulator
from repro.tme import ClientConfig, tme_programs


def small_programs(n=2):
    return tme_programs("ra", n, ClientConfig(think_delay=1, eat_delay=1))


# -- reference implementations (the pre-engine originals) --------------------


def _restore(programs, state):
    overrides = {pid: state.process_vars(pid) for pid in state.pids()}
    sim = Simulator(
        programs,
        RoundRobinScheduler(),
        overrides=overrides,
        record_states=False,
    )
    for (src, dst), content in state.channels:
        for kind, payload in content:
            sim.network.send(kind, src, dst, payload)
    return sim


def reference_explore_global(programs, max_depth=8, max_states=200_000):
    root_sim = Simulator(programs, RoundRobinScheduler(), record_states=True)
    root = root_sim.snapshot()
    seen = {root}
    frontier = deque([(root, 0)])
    truncated = False
    depth_reached = 0
    while frontier:
        state, depth = frontier.popleft()
        depth_reached = max(depth_reached, depth)
        if depth >= max_depth:
            continue
        sim = _restore(programs, state)
        for step in sim.candidate_steps():
            branch = _restore(programs, state)
            branch.execute(step)
            succ = branch.snapshot()
            if succ in seen:
                continue
            if len(seen) >= max_states:
                truncated = True
                frontier.clear()
                break
            seen.add(succ)
            frontier.append((succ, depth + 1))
    return len(seen), truncated, depth_reached


def reference_explore_local(
    program, pid, all_pids, kinds, max_depth=8, max_clock=6, max_states=200_000
):
    peers = tuple(p for p in all_pids if p != pid)
    alphabet = default_message_alphabet(peers, kinds, max_clock)
    root = ProcessRuntime(pid, program, all_pids).snapshot()
    seen = {root}
    frontier = deque([(root, 0)])
    truncated = False
    depth_reached = 0
    while frontier:
        snap, depth = frontier.popleft()
        depth_reached = max(depth_reached, depth)
        if depth >= max_depth:
            continue
        variables = dict(snap)
        successors = []
        base = ProcessRuntime(pid, program, all_pids, overrides=variables)
        for act in base.enabled_internal_actions():
            clone = ProcessRuntime(
                pid, program, all_pids, overrides=dict(variables)
            )
            clone.execute_internal(act)
            lc = clone.variables.get("lc", 0)
            if isinstance(lc, int) and lc <= max_clock:
                successors.append(clone.snapshot())
        for sender, kind, payload in alphabet:
            handler = program.receive_action_for(kind)
            if handler is None:
                continue
            clone = ProcessRuntime(
                pid, program, all_pids, overrides=dict(variables)
            )
            view = clone.view({"_msg": payload, "_sender": sender})
            if not handler.enabled(view):
                continue
            clone._apply(handler.body(view))
            lc = clone.variables.get("lc", 0)
            if isinstance(lc, int) and lc <= max_clock:
                successors.append(clone.snapshot())
        for succ in successors:
            if succ in seen:
                continue
            if len(seen) >= max_states:
                truncated = True
                frontier.clear()
                break
            seen.add(succ)
            frontier.append((succ, depth + 1))
    return len(seen), truncated, depth_reached


# -- parity assertions -------------------------------------------------------


class TestGlobalParity:
    def check(self, n, max_depth, max_states=200_000):
        programs = small_programs(n)
        states, truncated, depth = reference_explore_global(
            programs, max_depth=max_depth, max_states=max_states
        )
        result = explore(
            GlobalSimulatorSpace(programs),
            max_depth=max_depth,
            max_states=max_states,
        )
        assert result.states == states
        assert result.stats.truncated == truncated
        assert result.stats.depth_reached == depth

    def test_n2_depth6(self):
        self.check(2, 6)

    def test_n2_depth8(self):
        self.check(2, 8)

    def test_n3_depth6(self):
        self.check(3, 6)

    def test_truncation_parity(self):
        self.check(2, 8, max_states=50)


class TestLocalParity:
    def check(self, n, max_depth=6, max_clock=2, max_states=200_000):
        programs = small_programs(n)
        pids = tuple(sorted(programs))
        pid = pids[0]
        states, truncated, depth = reference_explore_local(
            programs[pid],
            pid,
            pids,
            kinds=("request", "reply"),
            max_depth=max_depth,
            max_clock=max_clock,
            max_states=max_states,
        )
        alphabet = default_message_alphabet(
            pids[1:], ("request", "reply"), max_clock
        )
        result = explore(
            LocalProcessSpace(programs[pid], pid, pids, alphabet, max_clock),
            max_depth=max_depth,
            max_states=max_states,
        )
        assert result.states == states
        assert result.stats.truncated == truncated
        assert result.stats.depth_reached == depth

    def test_n2(self):
        self.check(2)

    def test_n3(self):
        self.check(3)

    def test_deeper_clock(self):
        self.check(2, max_depth=5, max_clock=4)

    def test_truncation_parity(self):
        self.check(2, max_depth=8, max_clock=4, max_states=30)
