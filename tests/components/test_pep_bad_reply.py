"""The blocking enforcement path trusts its reply no more than the
queued one does.

``authorize`` used to let a reply that does not decode escape to the
caller as a bare ``ValueError``, and enforced a statement whose
``InResponseTo`` names another query — on the secure channel a replay
hole: the signature covers action and body, every reply travels under
the same action, so any statement the PDP ever signed verified as the
answer to any later query.  Both are ``pep:bad-reply`` faults now, and
fail safe exactly as a timeout does.  The queued path (``submit``)
opens a batch reply through the same channel and fails every waiter of
a bad one safe.
"""

import pytest

from repro.components import (
    BATCH_QUERY_ACTION,
    Component,
    ComponentIdentity,
    DecisionChannel,
    PepConfig,
    PolicyEnforcementPoint,
    QUERY_ACTION,
    SECURE_BATCH_QUERY_ACTION,
    SECURE_QUERY_ACTION,
)
from repro.saml import (
    XacmlAuthzDecisionBatchQuery,
    XacmlAuthzDecisionBatchStatement,
    XacmlAuthzDecisionQuery,
    XacmlAuthzDecisionStatement,
)
from repro.simnet import Network
from repro.wss import KeyStore
from repro.wss.pki import CertificateAuthority, TrustValidator
from repro.xacml import Decision, RequestContext, ResponseContext

ALICE = RequestContext.simple("alice", "doc", "read")
MALLORY = RequestContext.simple("mallory", "vault", "write")


def permit(in_response_to, issue_instant=0.0):
    return XacmlAuthzDecisionStatement(
        response=ResponseContext.single(Decision.PERMIT),
        in_response_to=in_response_to,
        issuer="pdp",
        issue_instant=issue_instant,
    )


def stub_pdp(network, single=None, batch=None, identity=None):
    """A PDP that answers whatever the test tells it to."""
    pdp = Component("pdp", network, identity=identity)
    if single is not None:
        pdp.on(QUERY_ACTION, lambda message: single(str(message.payload)))
    if batch is not None:
        pdp.on(BATCH_QUERY_ACTION, lambda message: batch(str(message.payload)))
    return pdp


def pep_for(network, **config):
    return PolicyEnforcementPoint(
        "pep", network, pdp_address="pdp", config=PepConfig(**config)
    )


def decide_queued(pep, requests):
    """``requests`` through ``pep.submit`` in one coalesced window, run to
    completion; the results in request order."""
    if pep.coalescer is None:
        pep.enable_batching(max_batch=16, max_delay=0.001)
    results = [None] * len(requests)
    for index, request in enumerate(requests):
        pep.submit(request, lambda result, at=index: results.__setitem__(at, result))
    pep.network.run(until=pep.network.now + 10.0)
    assert None not in results, "every waiter is answered"
    return results


def assert_failed_safe(pep, result, reason):
    assert result.decision is Decision.DENY
    assert result.source == "fail-safe"
    assert "pep:bad-reply" in result.detail and reason in result.detail
    assert pep.fail_safe_denials >= 1 and pep.grants == 0
    # A rejected reply is no decision: nothing to serve from later.
    assert len(pep.decision_cache) == 0


#: What a PDP might send instead of a statement, and what the decoder
#: says about it.
SINGLE_GARBAGE = {
    "not-a-statement": ("<garbage/>", "not an XACMLAuthzDecisionStatement"),
    "unknown-decision": (
        permit("any").to_xml().replace("Permit", "Maybe"),
        "'Maybe' is not a valid Decision",
    ),
    "unknown-status-code": (
        permit("any").to_xml().replace("status:ok", "status:fine"),
        "is not a valid StatusCode",
    ),
    "ill-formed-response": (
        permit("any").to_xml().replace("</Decision>", ""),
        "malformed XML",
    ),
}


def batch_reply(body, in_response_to=None, drop=0):
    """The honest answer to the batch query ``body``: a permit per
    inner query; ``in_response_to`` and ``drop`` (statements left off
    the end) make it dishonest."""
    query = XacmlAuthzDecisionBatchQuery.from_xml(body)
    statements = tuple(permit(inner.query_id) for inner in query.queries)
    return XacmlAuthzDecisionBatchStatement(
        statements=statements[: len(statements) - drop],
        in_response_to=in_response_to or query.batch_id,
        issuer="pdp",
        issue_instant=0.0,
    ).to_xml()


#: What a PDP might send instead of the batch statement asked for, and
#: what the PEP's channel says about it.
BATCH_GARBAGE = {
    "not-a-batch-statement": (
        lambda body: "<garbage/>",
        "not an XACMLAuthzDecisionBatchStatement",
    ),
    "unknown-decision": (
        lambda body: batch_reply(body).replace("Permit", "Maybe", 1),
        "'Maybe' is not a valid Decision",
    ),
    "unknown-status-code": (
        lambda body: batch_reply(body).replace("status:ok", "status:fine", 1),
        "is not a valid StatusCode",
    ),
    "ill-formed-response": (
        lambda body: batch_reply(body).replace("</Decision>", "", 1),
        "malformed XML",
    ),
    "answers-another-batch": (
        lambda body: batch_reply(body, in_response_to="xacmlb-other"),
        "reply answers 'xacmlb-other'",
    ),
    "a-statement-short": (
        lambda body: batch_reply(body, drop=1),
        "1 statements for 2 requests",
    ),
}


class TestUndecodableReply:
    @pytest.mark.parametrize("case", sorted(SINGLE_GARBAGE))
    def test_authorize_fails_safe(self, case):
        text, reason = SINGLE_GARBAGE[case]
        network = Network(seed=5)
        stub_pdp(network, single=lambda body: text)
        pep = pep_for(network, decision_cache_ttl=60)
        assert_failed_safe(pep, pep.authorize(ALICE), reason)

    def test_a_queued_batch_fails_every_waiter_safe(self):
        network = Network(seed=5)
        stub_pdp(network, batch=lambda body: "<garbage/>")
        pep = pep_for(network, decision_cache_ttl=60)
        results = decide_queued(pep, [ALICE, MALLORY, ALICE])
        assert len(results) == 3
        for result in results:
            assert_failed_safe(
                pep, result, "not an XACMLAuthzDecisionBatchStatement"
            )
        assert pep.fail_safe_denials == 3

    @pytest.mark.parametrize("case", sorted(BATCH_GARBAGE))
    def test_a_queued_batch_fails_safe(self, case):
        answer, reason = BATCH_GARBAGE[case]
        network = Network(seed=5)
        stub_pdp(network, batch=answer)
        pep = pep_for(network, decision_cache_ttl=60)
        results = decide_queued(pep, [ALICE, MALLORY])
        for result in results:
            assert_failed_safe(pep, result, reason)
        assert pep.fail_safe_denials == 2

    def test_the_honest_batch_reply_is_still_enforced(self):
        network = Network(seed=5)
        stub_pdp(network, batch=batch_reply)
        pep = pep_for(network)
        results = decide_queued(pep, [ALICE, MALLORY])
        assert [(result.granted, result.source) for result in results] == [
            (True, "pdp"),
            (True, "pdp"),
        ]


class TestReplyToAnotherQuery:
    def test_plain_channel(self):
        network = Network(seed=5)
        stub_pdp(network, single=lambda body: permit("xacmlq-other").to_xml())
        pep = pep_for(network, decision_cache_ttl=60)
        assert_failed_safe(
            pep, pep.authorize(ALICE), "reply answers 'xacmlq-other'"
        )

    def test_the_honest_reply_is_still_enforced(self):
        network = Network(seed=5)
        stub_pdp(
            network,
            single=lambda body: permit(
                XacmlAuthzDecisionQuery.from_xml(body).query_id
            ).to_xml(),
        )
        pep = pep_for(network)
        result = pep.authorize(ALICE)
        assert result.granted and result.source == "pdp"


class SecureWorld:
    """PEP and stub PDP under one CA; the PDP signs honestly and keeps
    every envelope it ever signed, as a wiretap would."""

    def __init__(self, **pep_config):
        self.network = Network(seed=7)
        self.keystore = KeyStore(seed=7)
        self.ca = CertificateAuthority("ca", self.keystore)
        self.signed = []
        self.replay = None
        self.sign = True
        self.pdp = Component("pdp", self.network, identity=self.identity("pdp"))
        self.channel = DecisionChannel(self.pdp, secure=True, role="pdp")
        self.pdp.on(SECURE_QUERY_ACTION, self.answer)
        self.pdp.on(SECURE_BATCH_QUERY_ACTION, self.answer_batch)
        self.pep = PolicyEnforcementPoint(
            "pep",
            self.network,
            identity=self.identity("pep"),
            pdp_address="pdp",
            config=PepConfig(secure_channel=True, **pep_config),
        )

    def identity(self, subject):
        keypair = self.keystore.generate(label=subject)
        return ComponentIdentity(
            name=subject,
            keypair=keypair,
            certificate=self.ca.issue(subject, keypair.public, 0.0, 1e9),
            keystore=self.keystore,
            validator=TrustValidator(self.keystore, anchors=[self.ca]),
        )

    def answer(self, message):
        if self.replay is not None:
            return self.replay
        body, signer = self.channel.open_request(message)
        assert signer == "pep"
        query = XacmlAuthzDecisionQuery.from_xml(body)
        return self.seal(message, permit(query.query_id, self.network.now).to_xml())

    def answer_batch(self, message):
        if self.replay is not None:
            return self.replay
        body, signer = self.channel.open_request(message)
        assert signer == "pep"
        return self.seal(message, batch_reply(body))

    def seal(self, message, body_xml):
        envelope = self.channel.seal_reply(message, body_xml, sign=self.sign)
        self.signed.append(envelope)
        return envelope


class TestReplayedSignedReply:
    def test_a_captured_permit_does_not_answer_a_later_query(self):
        world = SecureWorld()
        granted = world.pep.authorize(ALICE)
        assert granted.granted and granted.source == "pdp"
        # The attacker answers mallory's query with the envelope the
        # PDP signed for alice: signature, signer and action all verify.
        world.replay = world.signed[0]
        replayed = world.pep.authorize(MALLORY)
        assert replayed.decision is Decision.DENY
        assert replayed.source == "fail-safe"
        assert "pep:bad-reply" in replayed.detail
        assert world.pep.grants == 1 and world.pep.fail_safe_denials == 1

    def test_signed_garbage_fails_safe(self):
        world = SecureWorld()
        world.pdp.on(
            SECURE_QUERY_ACTION,
            lambda message: world.channel.seal_reply(message, "<garbage/>"),
        )
        result = world.pep.authorize(ALICE)
        assert result.decision is Decision.DENY
        assert result.source == "fail-safe"
        assert "not an XACMLAuthzDecisionStatement" in result.detail

    def test_a_captured_batch_reply_does_not_answer_a_later_batch(self):
        world = SecureWorld()
        (granted,) = decide_queued(world.pep, [ALICE])
        assert granted.granted and granted.source == "pdp"
        world.replay = world.signed[0]
        (replayed,) = decide_queued(world.pep, [MALLORY])
        assert replayed.decision is Decision.DENY
        assert replayed.source == "fail-safe"
        assert "pep:bad-reply" in replayed.detail and "reply answers" in replayed.detail
        assert world.pep.grants == 1 and world.pep.fail_safe_denials == 1

    def test_signed_batch_garbage_fails_safe(self):
        world = SecureWorld()
        world.pdp.on(
            SECURE_BATCH_QUERY_ACTION,
            lambda message: world.channel.seal_reply(message, "<garbage/>"),
        )
        for result in decide_queued(world.pep, [ALICE, MALLORY]):
            assert result.decision is Decision.DENY
            assert result.source == "fail-safe"
            assert "not an XACMLAuthzDecisionBatchStatement" in result.detail

    @pytest.mark.parametrize("path", ["authorize", "submit"])
    def test_an_unsigned_reply_fails_safe(self, path):
        world = SecureWorld()
        world.sign = False
        if path == "authorize":
            result = world.pep.authorize(ALICE)
        else:
            (result,) = decide_queued(world.pep, [ALICE])
        assert result.decision is Decision.DENY
        assert result.source == "fail-safe"
        assert world.pep.grants == 0 and world.pep.fail_safe_denials == 1
        assert len(world.signed) == 1, "the PDP did answer, unsigned"
