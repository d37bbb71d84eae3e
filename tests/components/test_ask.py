"""``Component.ask``: the one way any component waits for a reply.

An ask sends one message and settles exactly once, as an event — the
reply runs ``on_reply``, a fault or the deadline runs ``on_error`` —
and a crash drops it.  ``call`` is an ask plus a driver wait, and the
wire core sends every envelope as one, so both RPC paths follow one
deadline rule: the deadline is scheduled at the send, and a reply due
at the very instant of the deadline is late.
"""

import math

import pytest

from repro.components import (
    DEFAULT_TIMEOUT,
    PepConfig,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    RpcFault,
    RpcTimeout,
)
from repro.components.base import Component
from repro.simnet import FailureInjector, Link, Network
from repro.xacml import Decision, Policy, RequestContext, permit_rule

#: 0.5 s each way and no transfer time: a reply lands at exactly 1.0 s.
HALF_SECOND = Link(latency=0.5, bandwidth=math.inf)


def pair(handler=lambda message: "<Ok/>", link=HALF_SECOND):
    network = Network()
    server = Component("server", network)
    server.on("op", handler)
    client = Component("client", network)
    network.set_link("client", "server", link)
    return network, server, client


def ask(client, outcomes, timeout=2.0):
    """Ask the server once, logging each continuation that runs."""
    return client.ask(
        "server",
        "op",
        "<Q/>",
        lambda reply: outcomes.append(("reply", client.now, reply.payload)),
        lambda exc: outcomes.append((type(exc).__name__, client.now, str(exc))),
        timeout=timeout,
    )


class TestExactlyOneContinuation:
    def test_a_reply_runs_on_reply(self):
        network, _, client = pair()
        outcomes = []
        ask(client, outcomes)
        network.run()
        assert outcomes == [("reply", 1.0, "<Ok/>")]

    def test_a_fault_runs_on_error(self):
        def refuse(message):
            raise RpcFault("app:refused", "no")

        network, _, client = pair(refuse)
        outcomes = []
        ask(client, outcomes)
        network.run()
        assert outcomes == [("RpcFault", 1.0, "app:refused: no")]

    def test_the_deadline_runs_on_error(self):
        network, server, client = pair()
        server.crash()
        outcomes = []
        ask(client, outcomes, timeout=0.7)
        network.run()
        assert [(kind, at) for kind, at, _ in outcomes] == [("RpcTimeout", 0.7)]

    def test_a_late_reply_is_dropped(self):
        network, _, client = pair()
        outcomes = []
        ask(client, outcomes, timeout=0.8)
        network.run()
        # The reply still arrives at 1.0 s; nothing runs for it.
        assert [(kind, at) for kind, at, _ in outcomes] == [("RpcTimeout", 0.8)]
        assert network.metrics.messages_delivered == 2

    def test_a_forgotten_ask_runs_nothing(self):
        network, _, client = pair()
        outcomes = []
        client.forget(ask(client, outcomes).msg_id)
        network.run()
        assert outcomes == []
        assert network.now == 1.0  # no deadline left to fire


class TestCrashIsFailStop:
    def test_a_crash_drops_pending_asks_and_their_deadlines(self):
        network, _, client = pair()
        outcomes = []
        ask(client, outcomes)
        network.loop.schedule(0.2, client.crash)
        network.run()
        assert outcomes == []
        # The reply was dropped at the crashed node; no deadline fired.
        assert network.now == 1.0

    def test_a_crash_injected_at_the_node_drops_them_too(self):
        network, _, client = pair()
        outcomes = []
        ask(client, outcomes)
        FailureInjector(network).crash_for("client", at=0.2, duration=0.1)
        network.run()
        assert outcomes == []
        assert client.alive


class TestOneDeadlineRule:
    """A reply due at the very instant of the deadline is late, on both
    RPC paths.  (``call`` used to accept it: its nested loop ran every
    event due by the deadline before giving up.)"""

    def test_call(self):
        # A second each way: the reply is due at ``call``'s deadline.
        network, _, client = pair(link=Link(latency=DEFAULT_TIMEOUT / 2, bandwidth=math.inf))
        with pytest.raises(RpcTimeout):
            client.call("server", "op", "<Q/>")
        assert network.now == DEFAULT_TIMEOUT

    def test_call_a_hair_shorter(self):
        link = Link(latency=DEFAULT_TIMEOUT / 2 - 0.00005, bandwidth=math.inf)
        _, _, client = pair(link=link)
        assert client.call("server", "op", "<Q/>").payload == "<Ok/>"

    def test_the_wire_core(self):
        network = Network()
        pdp = PolicyDecisionPoint("pdp", network)
        pdp.add_local_policy(Policy(policy_id="all", rules=(permit_rule("all"),)))
        network.set_link("pep", "pdp", HALF_SECOND)
        pep = PolicyEnforcementPoint(
            "pep", network, pdp_address="pdp", config=PepConfig(pdp_timeout=1.0)
        )
        result = pep.authorize(RequestContext.simple("a", "r", "read"))
        assert result.source == "fail-safe"
        assert network.now == 1.0
        pep.config.pdp_timeout = 1.0001
        assert pep.authorize(RequestContext.simple("a", "r", "read")).decision is (
            Decision.PERMIT
        )


class TestInTurn:
    """``Component.in_turn``: one step at a time, the next once the last
    settled — later, from an ask, or at once without recursion."""

    def test_asks_go_out_one_at_a_time_in_order(self):
        network, server, client = pair()
        log = []

        def step(item, settled):
            log.append(("ask", item, client.now))
            client.ask("server", "op", item, lambda reply: settled(), lambda exc: settled())

        client.in_turn(["a", "b", "c"], step, lambda: log.append(("done", client.now)))
        network.run()
        assert log == [("ask", "a", 0.0), ("ask", "b", 1.0), ("ask", "c", 2.0), ("done", 3.0)]

    def test_steps_that_settle_at_once_loop_without_recursion(self):
        _, _, client = pair()
        done = []
        client.in_turn(range(100_000), lambda item, settled: settled(), lambda: done.append(1))
        assert done == [1]

    def test_a_step_that_never_settles_ends_the_turn(self):
        _, _, client = pair()
        seen, done = [], []

        def step(item, settled):
            seen.append(item)
            if item != 2:
                settled()

        client.in_turn([1, 2, 3], step, lambda: done.append(1))
        assert seen == [1, 2] and done == []


class TestEvery:
    """``Component.every``: rounds a period apart, none while down, and
    a crash re-arms the timer instead of ending the rounds."""

    def rounds(self, client, log, asks=True):
        def round_(end):
            log.append(client.now)
            if asks:
                client.ask("server", "op", "<Q/>", lambda reply: end(), lambda exc: end())
            else:
                end()

        client.every(2.0, round_)

    def test_the_next_round_is_due_a_period_after_the_last_ends(self):
        network, _, client = pair()
        log = []
        self.rounds(client, log)
        network.run(until=10.0)
        assert log == [2.0, 5.0, 8.0]  # each round takes one 1 s round trip

    def test_a_crash_ends_the_round_in_flight_and_rearms(self):
        network, _, client = pair()
        log = []
        self.rounds(client, log)
        network.run(until=2.5)  # the first round's ask is on the wire
        client.crash()
        network.run(until=6.0)  # due at 4.5 while down: runs nothing
        assert log == [2.0]
        client.recover()
        network.run(until=9.0)
        assert log == [2.0, 6.5]
