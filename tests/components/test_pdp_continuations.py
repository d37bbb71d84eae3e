"""A PDP never waits inside a query, and a crash is fail-stop.

Each wait a query used to make — on a PIP, on the PAP, on the owner of a
misrouted slot — nested the event loop inside the handler, so a PDP
that crashed while it waited still woke up and replied once the nested
call gave up.  Every wait is a continuation on ``Component.ask`` now,
and a crash drops the pending asks: the crashed replica sends nothing,
and its caller fails over (or fails safe) at its own deadline.

And an unreachable PIP is not "no attribute": when every PIP fails to
answer a designator the request is Indeterminate (``missing-attribute``)
— stricter than XACML's per-designator Indeterminate, on purpose — while
a PIP that *answers* with no values is an empty bag, as before.
"""

from reference import xacml

from repro.components import (
    DecisionDispatcher,
    PdpConfig,
    PepConfig,
    PlacementMap,
    PlacementSpec,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    PolicyInformationPoint,
)
from repro.components import pdp as pdp_module
from repro.components.base import Component
from repro.saml import XacmlAuthzDecisionQuery, XacmlAuthzDecisionStatement
from repro.simnet import Link, Network
from repro.xacml import (
    Category,
    Decision,
    Policy,
    RequestContext,
    SUBJECT_ROLE,
    StatusCode,
    attribute_equals,
    combining,
    deny_rule,
    permit_rule,
    string,
    subject_resource_action_target,
)

CRASH_AT = 0.3
#: Longer than any answer a crashed PDP used to send: a reply that late
#: would still have been accepted.
PEP_TIMEOUT = 3.0


def suspension_policy() -> Policy:
    """Suspended subjects are denied; everybody else may read."""
    return Policy(
        policy_id="suspension",
        rules=(
            deny_rule(
                "suspended",
                condition=attribute_equals(
                    Category.SUBJECT, SUBJECT_ROLE, string("suspended")
                ),
            ),
            permit_rule("reads", subject_resource_action_target(action_id="read")),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def alice_reads() -> RequestContext:
    return RequestContext.simple("alice", "doc", "read")


def sent_by(network: Network, sender: str) -> list[tuple[float, str]]:
    """``(instant, kind)`` of every message ``sender`` puts on the wire
    from now on."""
    log = []
    transmit = network.transmit

    def watched(message):
        if message.sender == sender:
            log.append((network.now, message.kind))
        transmit(message)

    network.transmit = watched
    return log


def pip_world(*roles, pdp_timeout=PEP_TIMEOUT, pip_latency=0.005):
    """PEP → PDP → one PIP per entry of ``roles`` (alice's role there;
    None: the PIP knows nothing about her)."""
    network = Network(seed=36)
    pips = []
    for index, role in enumerate(roles):
        pip = PolicyInformationPoint(f"pip-{index}", network)
        if role is not None:
            pip.store.set_subject_attribute("alice", SUBJECT_ROLE, [string(role)])
        network.set_link("pdp", pip.name, Link(latency=pip_latency))
        pips.append(pip)
    pdp = PolicyDecisionPoint("pdp", network, pip_addresses=[p.name for p in pips])
    pdp.add_local_policy(suspension_policy())
    pep = PolicyEnforcementPoint(
        "pep", network, pdp_address="pdp", config=PepConfig(pdp_timeout=pdp_timeout)
    )
    return network, pips, pdp, pep


class TestUnreachablePip:
    def test_every_pip_down_is_indeterminate_not_absent(self):
        network, (pip,), pdp, pep = pip_world("suspended", pdp_timeout=5.0)
        pip.crash()
        result = pep.authorize(alice_reads())
        # Once read as "no role": the reads rule granted a suspended
        # subject.  Now the decision names what is missing.
        assert not result.granted
        assert result.decision is Decision.INDETERMINATE
        assert result.source == "pdp"
        assert pdp.pip_queries_sent == 0

    def test_ledger_no_pip_answer(self):
        """The status travels as missing-attribute.  A ledger entry of the
        README: XACML 2.0 §7.15.3 reads a designator nobody answers as an
        empty bag, Indeterminate only under ``MustBePresent``, so the
        standard lets alice read."""
        network, (pip,), _, _ = pip_world("suspended")
        pip.crash()
        client = Component("client", network)
        query = XacmlAuthzDecisionQuery(
            request=alice_reads(), issuer="client", issue_instant=network.now
        )
        # The PDP answers once its PIP ask times out: past ``call``'s
        # deadline, so ask with a longer one.
        replies = []
        client.ask("pdp", "xacml.request", query.to_xml(), replies.append, replies.append, 5.0)
        network.run(until=network.now + 5.0)
        (reply,) = replies
        statement = XacmlAuthzDecisionStatement.from_xml(str(reply.payload))
        result = statement.response.result
        assert result.decision is Decision.INDETERMINATE
        assert result.status.code is StatusCode.MISSING_ATTRIBUTE
        assert SUBJECT_ROLE in result.status.message
        assert xacml.authorization_decision(
            [suspension_policy()], alice_reads(), combining.POLICY_DENY_OVERRIDES, lambda *_: []
        ) == (Decision.PERMIT, StatusCode.OK, ())

    def test_a_pip_that_answers_with_nothing_is_an_empty_bag(self):
        _, _, pdp, pep = pip_world(None)
        result = pep.authorize(alice_reads())
        assert result.decision is Decision.PERMIT
        assert pdp.pip_queries_sent == 1

    def test_the_next_pip_answers_for_one_that_is_down(self):
        network, (down, _), pdp, pep = pip_world("reader", "suspended")
        down.crash()
        assert pep.authorize(alice_reads()).decision is Decision.DENY
        assert pdp.pip_queries_sent == 1

    def test_one_pip_down_and_one_answering_empty_is_an_empty_bag(self):
        network, (down, _), pdp, pep = pip_world("suspended", None)
        down.crash()
        assert pep.authorize(alice_reads()).decision is Decision.PERMIT


class TestCrashWhileWaiting:
    def test_on_its_pip_the_pdp_replies_never(self):
        """(a) Crashed at 0.3 s with its PIP query on a 0.5 s link: it
        once replied Permit at 2.01 s, when the nested call gave up."""
        network, _, pdp, pep = pip_world("suspended", pip_latency=0.5)
        network.loop.schedule_at(CRASH_AT, pdp.crash)
        after_crash = sent_by(network, "pdp")
        result = pep.authorize(alice_reads())
        assert [kind for at, kind in after_crash if at >= CRASH_AT] == []
        assert result.source == "fail-safe" and not result.granted
        assert network.now == PEP_TIMEOUT

    def test_on_the_pap_the_pep_fails_over(self):
        """(b) ``pdp-a`` crashed at 0.3 s while fetching policy: it once
        answered ``pdp:policy-unavailable`` at 2.02 s and the PEP failed
        safe without trying the healthy ``pdp-b``."""
        network = Network(seed=37)
        pap = PolicyAdministrationPoint("pap", network)
        pap.publish(suspension_policy())
        replicas = [
            PolicyDecisionPoint(name, network, pap_address="pap")
            for name in ("pdp-a", "pdp-b")
        ]
        network.set_link("pdp-a", "pap", Link(latency=0.5))
        pep = PolicyEnforcementPoint(
            "pep", network, config=PepConfig(pdp_timeout=PEP_TIMEOUT)
        )
        pep.dispatcher = DecisionDispatcher(["pdp-a", "pdp-b"])
        network.loop.schedule_at(CRASH_AT, replicas[0].crash)
        after_crash = sent_by(network, "pdp-a")
        result = pep.authorize(RequestContext.simple("bob", "doc", "read"))
        assert [kind for at, kind in after_crash if at >= CRASH_AT] == []
        assert pep.dispatcher.failovers == 1
        assert result.decision is Decision.PERMIT and result.source == "pdp"
        assert (replicas[0].decisions_made, replicas[1].decisions_made) == (0, 1)

    def test_on_the_owner_of_a_misrouted_slot_the_pep_fails_over(self):
        """(c) ``pdp-a`` crashed at 0.3 s with a re-forward to the slot's
        owner on a 0.5 s link: it once evaluated the slot itself when
        the forward timed out, and replied at 2 s."""
        network = Network(seed=38)
        spec = PlacementSpec("subject", PlacementMap(["pdp-a", "pdp-b"]))
        replicas = []
        for name in ("pdp-a", "pdp-b"):
            replica = PolicyDecisionPoint(
                name,
                network,
                config=PdpConfig(placement=spec),
                attribute_resolver=lambda subject: {},
            )
            replica.add_local_policy(suspension_policy())
            replicas.append(replica)
        network.set_link("pdp-a", "pdp-b", Link(latency=0.5))
        subject = next(
            f"user-{index}"
            for index in range(100)
            if spec.owner_of(RequestContext.simple(f"user-{index}", "doc", "read"))
            == "pdp-b"
        )
        pep = PolicyEnforcementPoint(
            "pep", network, config=PepConfig(pdp_timeout=PEP_TIMEOUT)
        )
        # No placement in the client's dispatcher: the batch lands on
        # pdp-a, which does not own the slot.
        dispatcher = DecisionDispatcher(["pdp-a", "pdp-b"])
        pep.enable_batching(max_batch=1, max_delay=0.001, dispatcher=dispatcher)
        network.loop.schedule_at(CRASH_AT, replicas[0].crash)
        after_crash = sent_by(network, "pdp-a")
        done = []
        pep.submit(RequestContext.simple(subject, "doc", "read"), done.append)
        network.run(until=10.0)
        assert [kind for at, kind in after_crash if at >= CRASH_AT] == []
        assert [at for at, _ in after_crash] and all(
            kind.startswith("xacml.request.batch.owned") for _, kind in after_crash
        )
        assert dispatcher.failovers == 1
        (result,) = done
        assert result.decision is Decision.PERMIT and result.source == "pdp"
        assert replicas[0].decisions_made == 0


class TestTwoWaysToDecide:
    """A PDP with an attribute source decides through ``_Decision``,
    whose passes may stop to ask a PIP; one without decides in one
    engine call.  On the same store and the same requests, single and
    batched, both say the same and sample the same candidate sets."""

    REQUESTS = [
        RequestContext.simple(subject, "doc", action)
        for subject in ("alice", "bob", "carol")
        for action in ("read", "write")
    ]

    def decide(self, monkeypatch, with_pip):
        network = Network(seed=36)
        if with_pip:
            # Knows nobody: every role it is asked for is an empty bag.
            PolicyInformationPoint("pip", network)
        pdp = PolicyDecisionPoint(
            "pdp", network, pip_addresses=["pip"] if with_pip else []
        )
        pdp.add_local_policy(suspension_policy())
        pep = PolicyEnforcementPoint("pep", network, pdp_address="pdp")
        passes = []
        run = pdp_module._Decision.run
        monkeypatch.setattr(
            pdp_module._Decision, "run", lambda decision: passes.append(1) or run(decision)
        )
        singles = [pep.authorize(request).decision for request in self.REQUESTS]
        pep.enable_batching(max_batch=len(self.REQUESTS), max_delay=0.001)
        batched = []
        for index, request in enumerate(self.REQUESTS):
            pep.submit(request, lambda result, i=index: batched.append((i, result.decision)))
        network.run(until=network.now + 1.0)
        return {
            "singles": singles,
            "batched": [decision for _, decision in sorted(batched)],
            "candidate sets": network.metrics.samples[pdp_module.CANDIDATE_SET_SERIES],
            "decisions made": pdp.decisions_made,
            "batches served": pdp.batch_queries_served,
        }, pdp.pip_queries_sent, len(passes)

    def test_a_pdp_with_a_pip_decides_as_one_without(self, monkeypatch):
        direct, direct_pip_queries, direct_passes = self.decide(monkeypatch, False)
        sourced, sourced_pip_queries, sourced_passes = self.decide(monkeypatch, True)
        assert sourced == direct
        assert direct["singles"] == [Decision.PERMIT, Decision.DENY] * 3
        assert len(direct["candidate sets"]) == 2 * len(self.REQUESTS)
        assert direct["batches served"] == 1
        # Only the sourced PDP runs passes, and asks its PIP for the
        # role each request's condition reads.
        assert (direct_passes, direct_pip_queries) == (0, 0)
        assert sourced_passes > 2 * len(self.REQUESTS)
        assert sourced_pip_queries == 2 * len(self.REQUESTS)
