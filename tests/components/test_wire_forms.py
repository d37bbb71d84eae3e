"""What crosses the decision wire crosses it in the one form the writers
write, and nothing else is read.

Two ways the writers and the readers used to disagree:

* An attribute given no values was written as ``<Attribute ... />``,
  which every decoder refuses: a subject with an empty bag got a
  ``pdp:malformed-query`` fault and a fail-safe deny where the bare
  engine decides.  ``Attribute`` now refuses no values, and
  ``RequestContext.simple`` leaves an empty bag out — the request reads
  an empty bag and an absent attribute alike.
* Header numbers were read by ``float()`` / ``int()``, which take forms
  no writer writes: ``nan``, ``inf``, ``" 1_0 "``, ``+2``, non-ASCII
  digits.  A statement stamped ``nan`` passed every decision-cache
  fence, because ``nan <= fence`` is false.  ``wire_number`` reads them
  now: a malformed number in a query is the sender's
  ``pdp:malformed-query``, in a reply a ``pep:bad-reply``, in a forward
  a ``federation:bad-forward``.
"""

import pytest

from repro.components import (
    BATCH_QUERY_ACTION,
    Component,
    FORWARD_ACTION,
    ForwardedBatchQuery,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    QUERY_ACTION,
    RpcFault,
)
from repro.saml import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
    XacmlAuthzDecisionQuery,
)
from repro.simnet import Network
from repro.xacml import (
    Decision,
    PdpEngine,
    Policy,
    RequestContext,
    SUBJECT_ROLE,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)

from test_federation import build_two_domains
from test_pep_bad_reply import ALICE, decide_queued, pep_for, permit, stub_pdp

ALICE_ONLY = Policy(
    policy_id="alice-only",
    rules=(
        permit_rule("alice", subject_resource_action_target("alice", "doc", "read")),
        deny_rule("rest"),
    ),
    rule_combining=combining.RULE_FIRST_APPLICABLE,
)


class TestAnEmptyBag:
    def test_is_decided_as_the_bare_engine_decides_it(self):
        request = RequestContext.simple(
            "alice", "doc", "read", subject_attributes={SUBJECT_ROLE: []}
        )
        engine = PdpEngine()
        engine.add_policy(ALICE_ONLY)
        network = Network(seed=1)
        pdp = PolicyDecisionPoint("pdp", network)
        pdp.add_local_policy(ALICE_ONLY)
        pep = PolicyEnforcementPoint("pep", network, pdp_address="pdp")
        result = pep.authorize(request)
        assert (result.decision, result.source) == (engine.decide(request), "pdp")
        assert result.granted and pdp.rejected_queries == 0


#: Instants ``float()`` reads and no writer writes (a writer writes
#: ``str`` of a finite float, or of an integer it was handed).
INSTANTS = ["nan", "inf", "-inf", " 1_0 ", "+2.0", "2.00", "1e3", "١.٥"]


def replace_once(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


class TestANaNInstant:
    def test_does_not_pass_a_fence_an_honest_statement_cannot_pass(self):
        stamp = ["0.5"]

        def answer(body):
            query_id = XacmlAuthzDecisionQuery.from_xml(body).query_id
            honest = permit(query_id, 0.5).to_xml()
            return replace_once(honest, 'IssueInstant="0.5"', f'IssueInstant="{stamp[0]}"')

        network = Network(seed=5)
        stub_pdp(network, single=answer)
        pep = pep_for(network, decision_cache_ttl=60)
        network.run(until=1.0)
        pep.decision_cache.invalidate_for(subject_id="alice")
        # Decided before the invalidation: served to its waiter, refused
        # by the cache.
        honest = pep.authorize(ALICE)
        assert honest.granted and len(pep.decision_cache) == 0
        stamp[0] = "nan"  # used to be admitted: nan <= fence is false
        forged = pep.authorize(ALICE)
        assert (forged.decision, forged.source) == (Decision.DENY, "fail-safe")
        assert "pep:bad-reply" in forged.detail and "'nan'" in forged.detail
        assert len(pep.decision_cache) == 0 and pep.grants == 1


def query_texts():
    """A single query and a batch query, each with its own instants."""
    single = XacmlAuthzDecisionQuery(ALICE, "client", 1.5, query_id="q-1").to_xml()
    batch = XacmlAuthzDecisionBatchQuery(
        (XacmlAuthzDecisionQuery(ALICE, "client", 1.5, query_id="q-2"),),
        "client",
        2.5,
        batch_id="b-1",
    ).to_xml()
    return {QUERY_ACTION: (single, '"1.5"'), BATCH_QUERY_ACTION: (batch, '"2.5"')}


class TestAMalformedNumberInAQuery:
    def world(self):
        network = Network(seed=3)
        pdp = PolicyDecisionPoint("pdp", network)
        pdp.add_local_policy(ALICE_ONLY)
        return pdp, Component("client", network)

    def assert_malformed(self, action, text):
        pdp, client = self.world()
        with pytest.raises(RpcFault) as caught:
            client.call("pdp", action, text)
        assert caught.value.code == "pdp:malformed-query"
        assert (pdp.rejected_queries, pdp.decisions_made) == (1, 0)

    @pytest.mark.parametrize("action", [QUERY_ACTION, BATCH_QUERY_ACTION], ids=["single", "batch"])
    def test_the_honest_text_is_decided(self, action):
        pdp, client = self.world()
        text, _ = query_texts()[action]
        assert "Permit" in client.call("pdp", action, text).payload
        assert (pdp.rejected_queries, pdp.decisions_made) == (0, 1)

    @pytest.mark.parametrize("form", INSTANTS)
    @pytest.mark.parametrize("action", [QUERY_ACTION, BATCH_QUERY_ACTION], ids=["single", "batch"])
    def test_an_instant(self, action, form):
        text, instant = query_texts()[action]
        self.assert_malformed(action, replace_once(text, instant, f'"{form}"'))


def batch_answer(old, new):
    """A stub PDP's batch reply, honest but for ``old`` -> ``new``."""

    def answer(body):
        query = XacmlAuthzDecisionBatchQuery.from_xml(body)
        honest = XacmlAuthzDecisionBatchStatement(
            statements=tuple(permit(inner.query_id, 2.0) for inner in query.queries),
            in_response_to=query.batch_id,
            issuer="pdp",
            issue_instant=3.0,
        ).to_xml()
        return replace_once(honest, old, new)

    return answer


class TestAMalformedNumberInAReply:
    def assert_bad_reply(self, pep, result):
        assert (result.decision, result.source) == (Decision.DENY, "fail-safe")
        assert "pep:bad-reply" in result.detail
        assert pep.grants == 0 and len(pep.decision_cache) == 0

    @pytest.mark.parametrize("form", INSTANTS)
    def test_a_statement_instant(self, form):
        def answer(body):
            query_id = XacmlAuthzDecisionQuery.from_xml(body).query_id
            return replace_once(permit(query_id, 2.0).to_xml(), '"2.0"', f'"{form}"')

        network = Network(seed=5)
        stub_pdp(network, single=answer)
        pep = pep_for(network, decision_cache_ttl=60)
        self.assert_bad_reply(pep, pep.authorize(ALICE))

    @pytest.mark.parametrize("form", INSTANTS)
    def test_a_batch_statement_instant(self, form):
        network = Network(seed=5)
        stub_pdp(network, batch=batch_answer('"3.0"', f'"{form}"'))
        pep = pep_for(network, decision_cache_ttl=60)
        (result,) = decide_queued(pep, [ALICE])
        self.assert_bad_reply(pep, result)

    def test_a_batch_statement_count_in_non_ascii_digits(self):
        # The pattern's \d took any Unicode digit, and int() read it.
        network = Network(seed=5)
        stub_pdp(network, batch=batch_answer('Count="1"', 'Count="١"'))
        pep = pep_for(network, decision_cache_ttl=60)
        (result,) = decide_queued(pep, [ALICE])
        self.assert_bad_reply(pep, result)

    def test_the_honest_batch_is_enforced(self):
        network = Network(seed=5)
        stub_pdp(network, batch=batch_answer('"3.0"', '"3.0"'))
        (result,) = decide_queued(pep_for(network), [ALICE])
        assert result.granted and result.source == "pdp"


class TestAMalformedTtlInAForward:
    def forward(self, ttl):
        batch = XacmlAuthzDecisionBatchQuery.for_requests(
            [RequestContext.simple("alice", "res.east", "read")], "gw.west", 0.0
        )
        text = ForwardedBatchQuery(batch, "west", "gw.west", ttl=2).to_xml()
        return replace_once(text, 'TTL="2"', f'TTL="{ttl}"')

    def test_the_honest_forward_is_served(self):
        network, _, _ = build_two_domains()
        reply = Component("gw.west-probe", network).call("gw.east", FORWARD_ACTION, self.forward("2"))
        assert "Permit" in reply.payload

    @pytest.mark.parametrize("form", [" 2", "+2", "2_0", "٢"])
    def test_is_the_senders_fault(self, form):
        network, _, hubs = build_two_domains()
        with pytest.raises(RpcFault) as caught:
            Component("gw.west-probe", network).call("gw.east", FORWARD_ACTION, self.forward(form))
        assert caught.value.code == "federation:bad-forward"
        assert hubs["east"].forwarded_batches_served == 0
