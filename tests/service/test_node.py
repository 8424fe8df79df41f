"""ServiceNode: what the live loop asks per step, and when it runs.

A program of counting guards stands in for the wrapped TME process: two
protocol actions, a client action, two wrapper actions, one receive
handler.  Every guard evaluation is logged by action name, so the tests
can say exactly which questions a batch asked.
"""

import asyncio

from repro.dsl import Effect, GuardedAction, ProcessProgram
from repro.runtime import ProcessRuntime
from repro.runtime.messages import Message
from repro.service.node import ServiceNode


class RecordingTransport:
    def __init__(self):
        self.sent = []

    def send(self, kind, sender, receiver, payload, sender_clock=None):
        self.sent.append((kind, receiver, payload))


def counting_program(asked):
    def action(name, guard, body, message_kind=None):
        def counted(view):
            asked.append(name)
            return guard(view)

        return GuardedAction(name, counted, body, message_kind)

    return ProcessProgram(
        "counting",
        {"x": 0, "got": 0, "w": 0, "c": 0},
        actions=(
            action("p:first", lambda v: v.x > 0, lambda v: Effect({"x": v.x - 1})),
            action("p:second", lambda v: v.x > 0, lambda v: Effect({"x": 0})),
            action("client:tick", lambda v: True, lambda v: Effect({"c": v.c + 1})),
            action("W:one", lambda v: True, lambda v: Effect({"w": v.w + 1})),
            action("W:two", lambda v: True, lambda v: Effect({"w": v.w + 10})),
        ),
        receive_actions=(
            action(
                "recv", lambda v: True, lambda v: Effect({"got": v.got + 1}), "m"
            ),
        ),
    )


def make_node(wrapper_tick_s=0.005):
    asked, executed = [], []
    runtime = ProcessRuntime("p0", counting_program(asked), ("p0", "p1"))
    node = ServiceNode(
        runtime, RecordingTransport(), executed.append, wrapper_tick_s
    )
    return node, asked, executed


def message(uid):
    return Message(uid=uid, kind="m", sender="p1", receiver="p0", payload=None)


class TestWhatABatchAsks:
    def test_between_ticks_only_protocol_guards_are_asked(self):
        node, asked, executed = make_node()
        node.runtime.variables["x"] = 2
        assert node.step_batch(False)
        assert executed == ["p:first", "p:first"]
        assert set(asked) == {"p:first", "p:second"}
        assert node.runtime.variables["w"] == node.runtime.variables["c"] == 0

    def test_eager_choice_is_the_first_enabled_in_program_order(self):
        node, _asked, executed = make_node()
        node.runtime.variables["x"] = 1  # enables p:first and p:second
        node.step_batch(False)
        assert executed == ["p:first"]

    def test_a_due_tick_runs_at_most_one_wrapper_action(self):
        node, asked, executed = make_node()
        assert node.step_batch(True)
        assert executed == ["W:one"]  # both are enabled, and stay enabled
        assert node.runtime.variables["w"] == 1
        assert "client:tick" not in asked
        # the wrapper was consulted once: not again after its own step
        assert asked.count("W:one") == asked.count("W:two") == 1

    def test_a_tick_still_runs_protocol_actions_first(self):
        node, _asked, executed = make_node()
        node.runtime.variables["x"] = 1
        node.step_batch(True)
        assert executed == ["p:first", "W:one"]

    def test_two_messages_in_one_batch_cost_one_protocol_round(self):
        node, asked, executed = make_node()
        node.deliver(message(1))  # not started: queued, nothing scheduled
        node.deliver(message(2))
        assert node.step_batch(False)
        assert executed == ["recv", "recv"]
        assert node.runtime.variables["got"] == 2
        # one receive guard per message, then one question for both
        assert asked == ["recv", "recv", "p:first", "p:second"]

    def test_a_settled_node_asks_nothing_more(self):
        node, asked, _executed = make_node()
        assert not node.step_batch(False)
        before = len(asked)
        assert not node.step_batch(False)
        assert len(asked) == before  # same valuation, same question

    def test_on_settle_changes_are_followed_up_in_the_same_batch(self):
        node, _asked, executed = make_node()
        demands = [3]

        def on_settle():  # the lock frontend's pattern: an outside write
            if demands:
                node.runtime.variables["x"] = demands.pop()
                return True
            return False

        node.on_settle = on_settle
        assert node.step_batch(False)
        assert executed == ["p:first"] * 3

    def test_a_crashed_node_drops_its_inbox(self):
        node, _asked, executed = make_node()
        node.deliver(message(1))
        node.runtime.crash()
        assert not node.step_batch(True)
        assert executed == [] and node.drain_inbox() == 0


class TestWhenItRuns:
    def test_kick_is_a_no_op_before_start_and_after_stop(self):
        async def scenario():
            node, _asked, executed = make_node(wrapper_tick_s=60.0)
            node.kick()  # no loop yet: nothing to schedule on
            node.deliver(message(1))
            await asyncio.sleep(0.01)
            before_start = list(executed)
            node.start()
            await asyncio.sleep(0.01)
            after_start = list(executed)
            node.stop()
            node.deliver(message(2))
            node.kick()
            await asyncio.sleep(0.01)
            return before_start, after_start, list(executed), node

        before_start, after_start, after_stop, node = asyncio.run(scenario())
        assert before_start == []
        assert after_start == ["recv"]  # what arrived early ran at start
        assert after_stop == ["recv"]
        assert node.drain_inbox() == 1  # still queued, never delivered

    def test_arrivals_of_one_loop_pass_share_a_batch(self):
        async def scenario():
            node, asked, executed = make_node(wrapper_tick_s=60.0)
            node.start()
            await asyncio.sleep(0.01)
            del asked[:]
            for uid in range(3):
                node.deliver(message(uid))
            await asyncio.sleep(0.01)
            node.stop()
            return asked, executed

        asked, executed = asyncio.run(scenario())
        assert executed == ["recv"] * 3
        assert asked == ["recv"] * 3 + ["p:first", "p:second"]

    def test_the_wrapper_runs_once_per_tick_and_not_otherwise(self):
        tick_s = 0.02

        async def scenario():
            node, _asked, executed = make_node(wrapper_tick_s=tick_s)
            loop = asyncio.get_running_loop()
            node.start()
            started = loop.time()
            while loop.time() - started < 5 * tick_s:
                node.kick()  # a busy node: batches all the time
                await asyncio.sleep(0)
            elapsed = loop.time() - started
            node.stop()
            ran = len(executed)
            await asyncio.sleep(2 * tick_s)
            return ran, elapsed, len(executed)

        ran, elapsed, after_stop = asyncio.run(scenario())
        assert 1 <= ran <= elapsed / tick_s
        assert after_stop == ran  # stop() cancelled the timer

    def test_start_twice_is_an_error(self):
        async def scenario():
            node, _asked, _executed = make_node()
            node.start()
            try:
                node.start()
            except RuntimeError:
                return True
            finally:
                node.stop()
            return False

        assert asyncio.run(scenario())
