"""The blocking enforcement path trusts its reply no more than the
queued one does.

``authorize`` / ``authorize_batch`` used to let a reply that does not
decode escape to the caller as a bare ``ValueError`` (under
``deny_on_failure=True`` too), and enforced a statement whose
``InResponseTo`` names another query — on the secure channel a replay
hole: the signature covers action and body, every reply travels under
the same action, so any statement the PDP ever signed verified as the
answer to any later query.  Both are ``pep:bad-reply`` faults now:
fail-safe deny, or re-raised when the PEP is configured to fail open,
exactly as a timeout is.
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
    RpcFault,
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


class TestUndecodableReply:
    @pytest.mark.parametrize("case", sorted(SINGLE_GARBAGE))
    def test_authorize_fails_safe(self, case):
        text, reason = SINGLE_GARBAGE[case]
        network = Network(seed=5)
        stub_pdp(network, single=lambda body: text)
        pep = pep_for(network, decision_cache_ttl=60)
        assert_failed_safe(pep, pep.authorize(ALICE), reason)

    @pytest.mark.parametrize("case", sorted(SINGLE_GARBAGE))
    def test_authorize_re_raises_when_failing_open_is_configured(self, case):
        text, reason = SINGLE_GARBAGE[case]
        network = Network(seed=5)
        stub_pdp(network, single=lambda body: text)
        pep = pep_for(network, deny_on_failure=False)
        with pytest.raises(RpcFault) as raised:
            pep.authorize(ALICE)
        assert raised.value.code == "pep:bad-reply"
        assert reason in raised.value.reason
        assert pep.grants == 0

    def test_authorize_batch_fails_every_waiter_safe(self):
        network = Network(seed=5)
        stub_pdp(network, batch=lambda body: "<garbage/>")
        pep = pep_for(network, decision_cache_ttl=60)
        results = pep.authorize_batch([ALICE, MALLORY, ALICE])
        assert len(results) == 3
        for result in results:
            assert_failed_safe(
                pep, result, "not an XACMLAuthzDecisionBatchStatement"
            )
        assert pep.fail_safe_denials == 3

    def test_authorize_batch_re_raises_when_failing_open_is_configured(self):
        network = Network(seed=5)
        stub_pdp(network, batch=lambda body: "<garbage/>")
        pep = pep_for(network, deny_on_failure=False)
        with pytest.raises(RpcFault) as raised:
            pep.authorize_batch([ALICE, MALLORY])
        assert raised.value.code == "pep:bad-reply"

    def test_a_bad_inner_response_fails_the_batch_safe(self):
        def answer(body):
            query = XacmlAuthzDecisionBatchQuery.from_xml(body)
            statements = tuple(
                permit(inner.query_id) for inner in query.queries
            )
            return (
                XacmlAuthzDecisionBatchStatement(
                    statements=statements,
                    in_response_to=query.batch_id,
                    issuer="pdp",
                    issue_instant=0.0,
                )
                .to_xml()
                .replace("Permit", "Maybe", 1)
            )

        network = Network(seed=5)
        stub_pdp(network, batch=answer)
        pep = pep_for(network)
        for result in pep.authorize_batch([ALICE, MALLORY]):
            assert_failed_safe(pep, result, "'Maybe' is not a valid Decision")


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
        self.pdp = Component("pdp", self.network, identity=self.identity("pdp"))
        self.channel = DecisionChannel(self.pdp, secure=True, role="pdp")
        self.pdp.on(SECURE_QUERY_ACTION, self.answer)
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
        envelope = self.channel.seal_reply(
            message, permit(query.query_id, self.network.now).to_xml()
        )
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

    def test_re_raised_when_failing_open_is_configured(self):
        world = SecureWorld(deny_on_failure=False)
        assert world.pep.authorize(ALICE).granted
        world.replay = world.signed[0]
        with pytest.raises(RpcFault) as raised:
            world.pep.authorize(MALLORY)
        assert raised.value.code == "pep:bad-reply"
        assert world.pep.grants == 1

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
