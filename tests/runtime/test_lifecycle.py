"""Process lifecycle (crash / recovering / live) and link partitions."""

import random

import pytest

from repro.faults import Scripted, Windowed
from repro.runtime import Network
from repro.runtime.process import CRASHED, LIVE, RECOVERING
from repro.tme import build_simulation, scramble_tme_state


def sim_ra(n=3, seed=0):
    return build_simulation("ra", n=n, seed=seed)


class TestCrash:
    def test_crash_loses_volatile_state(self):
        sim = sim_ra()
        sim.run(20)
        proc = sim.processes["p0"]
        assert proc.variables
        sim.crash_process("p0")
        assert proc.status == CRASHED
        assert not proc.is_live
        assert proc.variables == {}

    def test_crash_drops_incoming_mail(self):
        sim = sim_ra()
        sim.network.send("request", "p1", "p0", 1)
        sim.network.send("request", "p2", "p0", 2)
        dropped = sim.crash_process("p0")
        assert dropped == 2
        assert sim.network.channel("p1", "p0").empty
        assert sim.network.channel("p2", "p0").empty

    def test_crashed_process_takes_no_steps(self):
        sim = sim_ra()
        sim.crash_process("p0")
        for candidate in sim.candidate_steps():
            assert getattr(candidate, "pid", None) != "p0"
            assert getattr(candidate, "dst", None) != "p0"

    def test_sends_to_crashed_process_queue_up(self):
        sim = sim_ra()
        sim.crash_process("p0")
        sim.network.send("request", "p1", "p0", 1)
        assert not sim.network.channel("p1", "p0").empty

    def test_restart_reenters_via_improper_init(self):
        sim = sim_ra()
        sim.crash_process("p0")
        proc = sim.processes["p0"]
        proc.restart()
        assert proc.status == RECOVERING
        assert proc.is_live
        assert set(proc.variables) == set(proc.program.initial_vars)

    def test_restart_of_live_process_rejected(self):
        sim = sim_ra()
        with pytest.raises(RuntimeError):
            sim.processes["p0"].restart()

    def test_recovering_becomes_live_after_executing(self):
        sim = sim_ra()
        sim.crash_process("p0", restart_at=1)
        for _ in range(80):
            sim.step()
            if sim.processes["p0"].status == LIVE:
                break
        assert sim.processes["p0"].status == LIVE

    def test_scheduled_restart_fires_in_step_loop(self):
        sim = sim_ra()
        sim.crash_process("p0", restart_at=sim.step_index + 5)
        for _ in range(10):
            record = sim.step()
            if any(f.startswith("restart:p0") for f in record.faults):
                break
        else:
            pytest.fail("restart lifecycle event never fired")
        assert sim.processes["p0"].is_live

    def test_snapshot_sentinel_only_when_not_live(self):
        sim = sim_ra()
        snap_live = dict(sim.processes["p0"].snapshot())
        assert "__status__" not in snap_live
        sim.crash_process("p0")
        snap_dead = dict(sim.processes["p0"].snapshot())
        assert snap_dead["__status__"] == CRASHED

    def test_fork_preserves_lifecycle(self):
        sim = sim_ra()
        sim.crash_process("p0", restart_at=99)
        clone = sim.processes["p0"].fork()
        assert clone.status == CRASHED
        assert clone.restart_at == 99

    def test_restart_scheduled_in_a_fault_window_fires_after_it(self):
        """Crash-restart is one fault: the revival a ``Windowed`` hook
        schedules is the runtime's, and fires after the window closed."""
        sim = sim_ra(seed=2)
        crash = Scripted(
            {5: lambda s: f"crash p0 ({s.crash_process('p0', restart_at=35)})"}
        )
        sim.fault_hook = Windowed(crash, 5, 6)
        records = [sim.step() for _ in range(60)]
        assert [r.index for r in records if r.faults] == [5, 35]
        assert records[35].faults == ("restart:p0",)
        assert sim.processes["p0"].is_live

    def test_restart_vars_layered_over_initial(self):
        """A restart valuation is scrambled protocol state over the
        program's initial one (as decided churn records it): the process
        re-enters with every declared variable bound, the scrambled values
        included."""
        sim = sim_ra()
        proc = sim.processes["p0"]
        scrambled = scramble_tme_state(proc, random.Random(1))
        sim.crash_process(
            "p0", restart_vars={**proc.program.initial_vars, **scrambled}
        )
        proc.restart()
        assert set(proc.variables) == set(proc.program.initial_vars)
        assert {name: proc.variables[name] for name in scrambled} == scrambled


class TestLinks:
    def test_cut_link_drops_sends(self):
        net = Network(["a", "b"])
        net.cut_link("a", "b")
        net.send("k", "a", "b", 1)
        assert net.channel("a", "b").empty
        assert net.total_dropped() == 1
        assert not net.link_up("a", "b")
        assert net.link_up("b", "a")

    def test_unknown_link_rejected(self):
        net = Network(["a", "b"])
        with pytest.raises(KeyError):
            net.cut_link("a", "z")

    def test_heal_restores_delivery(self):
        net = Network(["a", "b"])
        net.cut_link("a", "b")
        assert net.heal_link("a", "b")
        assert not net.heal_link("a", "b")  # already up
        net.send("k", "a", "b", 1)
        assert not net.channel("a", "b").empty

    def test_cut_partitions_both_directions(self):
        net = Network(["a", "b", "c"])
        links = net.cut(["a"])
        assert set(links) == {("a", "b"), ("a", "c"), ("b", "a"), ("c", "a")}
        assert net.down_links() == links

    def test_heal_due_is_idempotent_and_sorted(self):
        net = Network(["a", "b", "c"])
        net.cut(["a"], heal_at=10)
        assert net.heal_due(9) == ()
        healed = net.heal_due(10)
        assert healed == (("a", "b"), ("a", "c"), ("b", "a"), ("c", "a"))
        assert net.heal_due(10) == ()
        assert net.down_links() == ()

    def test_heal_lifecycle_event_in_step_loop(self):
        sim = sim_ra()
        sim.network.cut(["p0"], heal_at=sim.step_index + 3)
        for _ in range(8):
            record = sim.step()
            if any(f.startswith("heal:") for f in record.faults):
                break
        else:
            pytest.fail("heal lifecycle event never fired")
        assert sim.network.down_links() == ()

    def test_down_links_in_global_state(self):
        sim = sim_ra()
        before = sim.snapshot()
        assert before.down == ()
        sim.network.cut_link("p0", "p1")
        after = sim.snapshot()
        assert after.down == (("p0", "p1"),)
        assert hash(before) != hash(after)

    def test_deliverable_excludes_down_links(self):
        net = Network(["a", "b"])
        net.send("k", "a", "b", 1)
        assert len(net.deliverable_channels()) == 1
        net.cut_link("a", "b")
        assert net.deliverable_channels() == []
        assert len(net.nonempty_channels()) == 1

    def test_fork_copies_link_state(self):
        net = Network(["a", "b"])
        net.cut_link("a", "b", heal_at=7)
        clone = net.fork()
        assert not clone.link_up("a", "b")
        assert clone.heal_due(7) == (("a", "b"),)
        assert not net.link_up("a", "b")  # original untouched


class TestChannelCounters:
    def test_drop_and_corrupt_counters(self):
        net = Network(["a", "b"])
        net.send("k", "a", "b", 1)
        net.send("k", "a", "b", 2)
        chan = net.channel("a", "b")
        chan.drop_at(0)
        assert chan.total_dropped == 1
        chan.corrupt_at(0, lambda m: m)
        assert chan.total_corrupted == 1
        assert net.total_dropped() == 1
        assert net.total_corrupted() == 1

    def test_clear_counts_as_drops(self):
        net = Network(["a", "b"])
        net.send("k", "a", "b", 1)
        net.send("k", "a", "b", 2)
        net.flush_all()
        assert net.total_dropped() == 2
