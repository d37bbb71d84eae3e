"""The decision channel: one authentication stance on every endpoint.

Every query endpoint — single, batch, replica→replica owned reforward,
gateway→gateway forward — rides :mod:`repro.components.channel`, so the
same three attacks must meet the same refusal on each: an unsigned
query to a signed-only server, a query tampered with after signing, and
a reply signed by somebody other than the destination asked.  One table
pins it; the ``owned`` row is the bypass the per-endpoint handlers used
to leave open.
"""

import re

import pytest

from repro.components import (
    BATCH_QUERY_ACTION,
    Component,
    ComponentIdentity,
    DecisionChannel,
    DecisionDispatcher,
    FORWARD_ACTION,
    FederatedGateway,
    ForwardedBatchQuery,
    OWNED_BATCH_QUERY_ACTION,
    PdpConfig,
    PepConfig,
    PlacementMap,
    PlacementSpec,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    QUERY_ACTION,
    RpcFault,
    SECURE_BATCH_QUERY_ACTION,
    SECURE_FORWARD_ACTION,
    SECURE_QUERY_ACTION,
    secure_action,
)
from repro.saml import XacmlAuthzDecisionBatchQuery, XacmlAuthzDecisionQuery
from repro.simnet import Network
from repro.wss import KeyStore
from repro.wss.pki import CertificateAuthority, TrustValidator
from repro.wsvc import SoapEnvelope
from repro.wsvc.soap import HeaderBlock
from repro.xacml import (
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
)

from test_pep_bad_reply import decide_queued

REQUEST = RequestContext.simple("alice", "doc", "read")


def everyone(policy_id, rule):
    return Policy(
        policy_id=policy_id,
        rules=(rule("all"),),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


class World:
    """One network, one CA; identities are minted per certificate
    subject so a component can be made to sign as somebody else."""

    def __init__(self, seed=41):
        self.network = Network(seed=seed)
        self.keystore = KeyStore(seed=seed)
        self.ca = CertificateAuthority("ca", self.keystore)

    def identity(self, subject):
        keypair = self.keystore.generate(label=subject)
        return ComponentIdentity(
            name=subject,
            keypair=keypair,
            certificate=self.ca.issue(subject, keypair.public, 0.0, 1e9),
            keystore=self.keystore,
            validator=TrustValidator(self.keystore, anchors=[self.ca]),
        )

    def pdp(self, name, rule=permit_rule, signs_as=None, placement=None):
        """A signed-queries-only PDP; ``signs_as`` makes it an impostor
        whose (valid, trusted) certificate names somebody else."""
        pdp = PolicyDecisionPoint(
            name,
            self.network,
            identity=self.identity(signs_as or name),
            config=PdpConfig(require_signed_queries=True, placement=placement),
        )
        pdp.add_local_policy(everyone(f"{name}-policy", rule))
        return pdp

    def gateway(self, name, domain, pdp_name, signs_as=None):
        return FederatedGateway(
            name,
            self.network,
            DecisionDispatcher([pdp_name]),
            domain=domain,
            resolve_domain=lambda requests, then: then(["east" for request in requests]),
            identity=self.identity(signs_as or name),
            max_batch=4,
            max_delay=0.001,
        )

    def client(self, name="client"):
        component = Component(name, self.network, identity=self.identity(name))
        return component, DecisionChannel(component, secure=True, role="client")


def query_body(endpoint):
    if endpoint == "single":
        return XacmlAuthzDecisionQuery(
            request=REQUEST, issuer="client", issue_instant=0.0
        ).to_xml()
    batch = XacmlAuthzDecisionBatchQuery.for_requests(
        [REQUEST], issuer="client", issue_instant=0.0
    )
    if endpoint == "forward":
        return ForwardedBatchQuery(
            batch=batch, origin_domain="west", origin_gateway="client"
        ).to_xml()
    return batch.to_xml()


#: endpoint -> (base action, code when unsigned, code when tampered)
SERVER_TABLE = {
    "single": (
        QUERY_ACTION,
        "pdp:authentication-required",
        "pdp:authentication-failed",
    ),
    "batch": (
        BATCH_QUERY_ACTION,
        "pdp:authentication-required",
        "pdp:authentication-failed",
    ),
    "owned": (
        OWNED_BATCH_QUERY_ACTION,
        "pdp:authentication-required",
        "pdp:authentication-failed",
    ),
    "forward": (
        FORWARD_ACTION,
        "federation:insecure-forward",
        "federation:bad-signature",
    ),
}


@pytest.fixture
def served():
    """A signed-only PDP and a signed-only federated gateway in front of
    it, plus a client with a trusted identity of its own."""
    world = World()
    pdp = world.pdp("pdp")
    gateway = world.gateway("gw.east", "east", "pdp")
    gateway.allow_origin("west", "client")
    client, channel = world.client()
    return world, pdp, gateway, client, channel


class TestServerSide:
    @pytest.mark.parametrize("endpoint", sorted(SERVER_TABLE))
    def test_unsigned_query_is_refused(self, served, endpoint):
        world, pdp, gateway, client, _ = served
        action, code, _ = SERVER_TABLE[endpoint]
        server = gateway if endpoint == "forward" else pdp
        with pytest.raises(RpcFault) as fault:
            client.call(server.name, action, query_body(endpoint))
        assert fault.value.code == code
        assert pdp.decisions_made == 0

    @pytest.mark.parametrize("endpoint", sorted(SERVER_TABLE))
    def test_tampered_query_is_refused(self, served, endpoint):
        world, pdp, gateway, client, channel = served
        base, _, code = SERVER_TABLE[endpoint]
        server = gateway if endpoint == "forward" else pdp
        action, envelope = channel.seal(base, query_body(endpoint))
        forged = SoapEnvelope(
            action=envelope.action,
            body_xml=envelope.body_xml.replace("alice", "mallory"),
            headers=list(envelope.headers),
        )
        with pytest.raises(RpcFault) as fault:
            client.call(server.name, action, forged)
        assert fault.value.code == code
        assert pdp.decisions_made == 0

    @pytest.mark.parametrize("endpoint", sorted(SERVER_TABLE))
    def test_signed_query_is_answered_under_the_servers_signature(
        self, served, endpoint
    ):
        world, pdp, gateway, client, channel = served
        base, _, _ = SERVER_TABLE[endpoint]
        server = gateway if endpoint == "forward" else pdp
        action, envelope = channel.seal(base, query_body(endpoint))
        assert action == secure_action(base)
        reply = client.call(server.name, action, envelope)
        assert "Permit" in channel.open_reply(reply, server.name)
        assert pdp.decisions_made == 1

    def test_the_secure_constants_follow_the_naming_rule(self):
        assert SECURE_QUERY_ACTION == "xacml.request.secure"
        assert SECURE_BATCH_QUERY_ACTION == "xacml.request.batch.secure"
        assert SECURE_FORWARD_ACTION == "xacml.request.forward.secure"
        assert (
            secure_action(OWNED_BATCH_QUERY_ACTION)
            == "xacml.request.batch.owned.secure"
        )


def with_token_field(envelope, field, text):
    """``envelope`` with one ``BinarySecurityToken`` attribute replaced."""
    headers = [
        HeaderBlock(
            block.name,
            re.sub(f'{field}="[^"]*"', f'{field}="{text}"', block.content_xml),
            block.must_understand,
        )
        for block in envelope.headers
    ]
    return SoapEnvelope(envelope.action, envelope.body_xml, headers)


def with_bad_ciphertext(envelope):
    """``envelope`` claiming an encrypted body whose base64 is broken."""
    headers = [
        HeaderBlock(block.name, block.content_xml + "<wsse:EncryptedBody/>", True)
        for block in envelope.headers
    ]
    body = (
        "<xenc:EncryptedData><ds:KeyInfo><ds:KeyName>k</ds:KeyName></ds:KeyInfo>"
        '<xenc:CipherData><xenc:CipherValue nonce="abc">abcde</xenc:CipherValue>'
        "</xenc:CipherData></xenc:EncryptedData>"
    )
    return SoapEnvelope(envelope.action, body, headers)


#: A token a signer could never have written: each once made the
#: receiving handler raise ``ValueError`` out of the event loop.
MALFORMED = {
    "serial": lambda envelope: with_token_field(envelope, "serial", "x1003"),
    "notBefore": lambda envelope: with_token_field(envelope, "notBefore", "soon"),
    "notAfter": lambda envelope: with_token_field(envelope, "notAfter", "later"),
    "ciphertext": with_bad_ciphertext,
}


class TestMalformedToken:
    """A security header that does not parse is a refused query and an
    unvouched reply, never an exception out of the handler."""

    @pytest.mark.parametrize("endpoint", sorted(SERVER_TABLE))
    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_the_server_answers_a_fault(self, served, endpoint, damage):
        world, pdp, gateway, client, channel = served
        base, _, code = SERVER_TABLE[endpoint]
        server = gateway if endpoint == "forward" else pdp
        action, envelope = channel.seal(base, query_body(endpoint))
        with pytest.raises(RpcFault) as fault:
            client.call(server.name, action, MALFORMED[damage](envelope))
        assert fault.value.code == code
        assert pdp.decisions_made == 0

    def test_a_forward_with_a_bad_token_is_an_origin_rejection(self, served):
        world, pdp, gateway, client, channel = served
        action, envelope = channel.seal(FORWARD_ACTION, query_body("forward"))
        with pytest.raises(RpcFault):
            client.call(gateway.name, action, MALFORMED["serial"](envelope))
        assert gateway.origin_rejections == 1

    def secure_pep(self, world):
        return PolicyEnforcementPoint(
            "pep",
            world.network,
            identity=world.identity("pep"),
            pdp_address="pdp",
            config=PepConfig(secure_channel=True),
        )

    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_a_query_with_a_bad_token_is_a_fail_safe_deny(self, damage):
        world = World()
        pdp = world.pdp("pdp")
        pep = self.secure_pep(world)
        seal = pep.channel.seal

        def damaged(base, body_xml):
            action, envelope = seal(base, body_xml)
            return action, MALFORMED[damage](envelope)

        pep.channel.seal = damaged
        result = pep.authorize(REQUEST)
        assert pdp.decisions_made == 0 and pdp.rejected_queries == 1
        assert not result.granted and result.source == "fail-safe"

    @pytest.mark.parametrize("damage", sorted(MALFORMED))
    def test_a_reply_with_a_bad_token_is_a_fail_safe_deny(self, damage):
        world = World()
        pdp = world.pdp("pdp")
        seal_reply = pdp.channel.seal_reply
        pdp.channel.seal_reply = lambda *args, **kwargs: MALFORMED[damage](
            seal_reply(*args, **kwargs)
        )
        result = self.secure_pep(world).authorize(REQUEST)
        assert pdp.decisions_made == 1
        assert not result.granted and result.source == "fail-safe"


class TestWrongSignerReply:
    """The destination answers Permit under a valid certificate naming
    somebody else: every client path must refuse the decision."""

    def secure_pep(self, world, pdp_name):
        pep = PolicyEnforcementPoint(
            "pep",
            world.network,
            identity=world.identity("pep"),
            pdp_address=pdp_name,
            config=PepConfig(secure_channel=True),
        )
        pep.enable_batching(max_batch=2, max_delay=0.001)
        return pep

    def test_single(self):
        world = World()
        impostor = world.pdp("pdp", signs_as="mallory")
        result = self.secure_pep(world, "pdp").authorize(REQUEST)
        assert impostor.decisions_made == 1
        assert not result.granted and result.source == "fail-safe"

    def test_batch(self):
        world = World()
        impostor = world.pdp("pdp", signs_as="mallory")
        pep = self.secure_pep(world, "pdp")
        (result,) = decide_queued(pep, [REQUEST])
        assert impostor.decisions_made == 1
        assert not result.granted and result.source == "fail-safe"

    def test_owned_reforward(self):
        """The impostor owns the slot; its Permit must never be spliced
        into the honest replica's (Deny) answer."""
        world = World()
        spec = PlacementSpec("subject", PlacementMap(["honest", "impostor"]))
        honest = world.pdp("honest", rule=deny_rule, placement=spec)
        impostor = world.pdp("impostor", signs_as="mallory", placement=spec)
        subject = next(
            f"user-{i}"
            for i in range(100)
            if spec.ring.owner(f"user-{i}") == "impostor"
        )
        request = RequestContext.simple(subject, "doc", "read")
        pep = self.secure_pep(world, "honest")
        (result,) = decide_queued(pep, [request])
        assert impostor.owned_batches_served == 1
        assert honest.reforwarded_batches == 0
        counters = world.network.metrics.counters
        assert counters["placement.reforward_fallback"] == 1
        assert not result.granted and result.source == "pdp"

    def test_gateway_forward(self):
        world = World()
        world.pdp("pdp.east")
        origin = world.gateway("gw.west", "west", "pdp.west")
        impostor = world.gateway(
            "gw.east", "east", "pdp.east", signs_as="mallory"
        )
        origin.add_peer("east", "gw.east")
        impostor.allow_origin("west", "gw.west")
        pep = PolicyEnforcementPoint("pep", world.network, domain="west")
        pep.enable_batching(max_batch=1, max_delay=0.001, gateway=origin)
        done = []
        pep.submit(REQUEST, done.append)
        world.network.run(until=world.network.now + 5.0)
        assert impostor.forwarded_batches_served == 1
        assert origin.peer_failures == 1
        assert len(done) == 1
        assert not done[0].granted and done[0].source == "fail-safe"


class TestSignedShardedTier:
    def test_reforwards_travel_signed_between_replicas(self):
        """A signed-only sharded tier still reforwards misrouted slots:
        the replica seals them with its own identity."""
        world = World()
        spec = PlacementSpec("subject", PlacementMap(["pdp-0", "pdp-1"]))
        pdps = [world.pdp(name, placement=spec) for name in ("pdp-0", "pdp-1")]
        foreign = next(
            f"user-{i}"
            for i in range(100)
            if spec.ring.owner(f"user-{i}") == "pdp-1"
        )
        pep = PolicyEnforcementPoint(
            "pep",
            world.network,
            identity=world.identity("pep"),
            pdp_address="pdp-0",
            config=PepConfig(secure_channel=True),
        )
        (result,) = decide_queued(
            pep, [RequestContext.simple(foreign, "doc", "read")]
        )
        assert result.granted and result.source == "pdp"
        assert pdps[0].reforwarded_batches == 1
        assert pdps[1].owned_batches_served == 1
        sent = world.network.metrics.sent_by_kind
        assert sent[secure_action(OWNED_BATCH_QUERY_ACTION)] == 1
        assert sent[OWNED_BATCH_QUERY_ACTION] == 0
        assert sum(pdp.rejected_queries for pdp in pdps) == 0


class TestConstruction:
    def test_secure_channel_needs_an_identity_up_front(self):
        network = Network()
        with pytest.raises(ValueError, match="identity"):
            PolicyEnforcementPoint(
                "pep", network, config=PepConfig(secure_channel=True)
            )
