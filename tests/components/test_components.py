"""Tests for the PEP/PDP/PAP/PIP components over the simulated network."""

import pytest

from repro.components import (
    PdpConfig,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    PolicyInformationPoint,
    RpcFault,
    RpcTimeout,
    parse_bundle,
    serialize_bundle,
)
from repro.components.base import Component
from repro.simnet import Network
from repro.xacml import (
    Category,
    Decision,
    Obligation,
    Policy,
    RequestContext,
    SUBJECT_ROLE,
    attribute_equals,
    combining,
    deny_rule,
    permit_rule,
    string,
    subject_resource_action_target,
)


def role_policy(resource_id="doc", role="engineer"):
    return Policy(
        policy_id=f"policy-{resource_id}",
        rules=(
            permit_rule(
                "allow-role",
                condition=attribute_equals(
                    Category.SUBJECT, SUBJECT_ROLE, string(role)
                ),
            ),
            deny_rule("default-deny"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id=resource_id),
    )


@pytest.fixture
def env():
    network = Network(seed=13)
    pap = PolicyAdministrationPoint("pap", network)
    pip = PolicyInformationPoint("pip", network)
    pip.store.set_subject_attribute("alice", SUBJECT_ROLE, [string("engineer")])
    pdp = PolicyDecisionPoint(
        "pdp", network, pap_address="pap", pip_addresses=["pip"]
    )
    pep = PolicyEnforcementPoint("pep", network, pdp_address="pdp")
    pap.publish(role_policy())
    return network, pap, pip, pdp, pep


class TestRpc:
    def test_call_and_reply(self):
        network = Network()
        server = Component("server", network)
        server.on("echo", lambda message: f"echo:{message.payload}")
        client = Component("client", network)
        reply = client.call("server", "echo", "hi")
        assert reply.payload == "echo:hi"

    def test_timeout_on_crashed_server(self):
        network = Network()
        server = Component("server", network)
        server.on("echo", lambda message: "x")
        server.crash()
        client = Component("client", network)
        with pytest.raises(RpcTimeout):
            client.call("server", "echo", "hi")

    def test_fault_propagates(self):
        network = Network()
        server = Component("server", network)

        def handler(message):
            raise RpcFault("app:error", "boom")

        server.on("explode", handler)
        client = Component("client", network)
        with pytest.raises(RpcFault, match="boom"):
            client.call("server", "explode", "")

    def test_ping_built_in(self):
        network = Network()
        Component("server", network)
        client = Component("client", network)
        assert client.call("server", "ping", "").payload == "<Pong/>"

    def test_nested_rpc(self):
        """A handler may itself need a peer (PDP -> PIP pattern): it
        asks, and responds from the reply's continuation."""
        network = Network()
        backend = Component("backend", network)
        backend.on("data", lambda message: "42")
        middle = Component("middle", network)

        def relay(message):
            middle.ask(
                "backend",
                "data",
                "",
                lambda inner: middle.respond(message, f"relayed:{inner.payload}"),
                lambda exc: middle.respond(message, RpcFault("relay", str(exc))),
            )

        middle.on("front", relay)
        client = Component("client", network)
        assert client.call("middle", "front", "").payload == "relayed:42"

    def test_a_handler_that_waits_raises(self):
        """The loop refuses to nest: a handler that calls ``call`` (which
        would run the loop inside the event that runs it) raises, out of
        the loop that delivered its message."""
        network = Network()
        Component("backend", network)
        middle = Component("middle", network)
        middle.on("front", lambda message: middle.call("backend", "ping", "").payload)
        client = Component("client", network)
        client.notify("middle", "front", "")
        with pytest.raises(RuntimeError, match="already running"):
            network.run(until=network.now + 1.0)
        with pytest.raises(RuntimeError, match="already running"):
            client.call("middle", "front", "")


class TestPip:
    def test_query_over_network(self, env):
        network, _, pip, _, _ = env
        client = Component("client", network)
        from repro.components import serialize_pip_query, parse_pip_response
        from repro.xacml import DataType

        query = serialize_pip_query(
            Category.SUBJECT, SUBJECT_ROLE, "alice", DataType.STRING
        )
        reply = client.call("pip", "pip.query", query)
        values = parse_pip_response(str(reply.payload))
        assert [v.value for v in values] == ["engineer"]

    def test_unknown_subject_empty(self, env):
        network, _, pip, _, _ = env
        from repro.xacml import DataType

        values = pip.store.lookup(
            Category.SUBJECT, SUBJECT_ROLE, "nobody", DataType.STRING, 0.0
        )
        assert values == []


class TestPap:
    def test_publish_and_retrieve_bundle(self, env):
        network, pap, _, _, _ = env
        client = Component("client2", network)
        reply = client.call("pap", "pap.retrieve", "<PapQuery/>")
        elements, revision = parse_bundle(str(reply.payload))
        assert len(elements) == 1
        assert revision == 1

    def test_versioning(self, env):
        _, pap, _, _, _ = env
        version = pap.publish(role_policy(role="manager"))
        assert version == 2  # same policy id re-published

    def test_withdraw(self, env):
        _, pap, _, _, _ = env
        assert pap.withdraw("policy-doc") is True
        assert len(pap.repository) == 0
        assert pap.withdraw("policy-doc") is False

    def test_invalid_policy_refused(self, env):
        _, pap, _, _, _ = env
        from repro.xacml import Condition, apply_

        bad = Policy(
            policy_id="bad",
            rules=(
                permit_rule("r", condition=Condition(apply_("urn:bogus"))),
            ),
        )
        with pytest.raises(RpcFault, match="validation"):
            pap.publish(bad)

    def test_bundle_roundtrip_multiple(self):
        policies = [role_policy(f"res-{i}") for i in range(4)]
        bundle = serialize_bundle(policies, revision=9)
        parsed, revision = parse_bundle(bundle)
        assert revision == 9
        assert [p.policy_id for p in parsed] == [p.policy_id for p in policies]


class TestPdp:
    def test_evaluates_with_pap_and_pip(self, env):
        _, _, _, _, pep = env
        result = pep.authorize(RequestContext.simple("alice", "doc", "read"))
        assert result.decision is Decision.PERMIT and result.source == "pdp"

    def test_policy_cache_avoids_refetch(self, env):
        _, _, _, pdp, pep = env
        pep.authorize(RequestContext.simple("alice", "doc", "read"))
        fetches = pdp.policy_fetches
        pep.authorize(RequestContext.simple("alice", "doc", "read"))
        assert pdp.policy_fetches == fetches  # cache still fresh

    def test_revision_probe_skips_full_fetch(self):
        network = Network()
        pap = PolicyAdministrationPoint("pap2", network)
        pap.publish(role_policy())
        pdp = PolicyDecisionPoint(
            "pdp2",
            network,
            pap_address="pap2",
            config=PdpConfig(policy_cache_ttl=1.0, refresh_mode="probe"),
        )
        pep = PolicyEnforcementPoint("pep2", network, pdp_address="pdp2")
        pep.authorize(RequestContext.simple("x", "doc", "read"))
        network.loop.run_until(lambda: False, timeout_at=network.now + 2.0)
        pep.authorize(RequestContext.simple("x", "doc", "read"))
        assert pdp.policy_fetches == 1
        assert pdp.revision_probes == 1

    def test_revision_change_triggers_refetch(self):
        network = Network()
        pap = PolicyAdministrationPoint("pap3", network)
        pap.publish(role_policy())
        pdp = PolicyDecisionPoint(
            "pdp3",
            network,
            pap_address="pap3",
            config=PdpConfig(policy_cache_ttl=1.0, refresh_mode="probe"),
        )
        pep = PolicyEnforcementPoint("pep3", network, pdp_address="pdp3")
        pep.authorize(RequestContext.simple("x", "doc", "read"))
        pap.publish(role_policy("doc2"))
        network.loop.run_until(lambda: False, timeout_at=network.now + 2.0)
        pep.authorize(RequestContext.simple("x", "doc2", "read"))
        assert pdp.policy_fetches == 2

    def test_unsigned_query_rejected_when_required(self):
        network = Network()
        PolicyDecisionPoint(
            "strict-pdp",
            network,
            config=PdpConfig(require_signed_queries=True),
        )
        client = Component("client3", network)
        from repro.saml import XacmlAuthzDecisionQuery

        query = XacmlAuthzDecisionQuery(
            request=RequestContext.simple("a", "r", "read"),
            issuer="client3",
            issue_instant=0.0,
        )
        with pytest.raises(RpcFault, match="signed"):
            client.call("strict-pdp", "xacml.request", query.to_xml())


class TestPep:
    def test_grant_and_deny(self, env):
        _, _, _, _, pep = env
        assert pep.authorize_simple("alice", "doc", "read").granted
        assert not pep.authorize_simple("mallory", "doc", "read").granted

    def test_decision_cache_round_trip(self):
        network = Network()
        pap = PolicyAdministrationPoint("pap4", network)
        pap.publish(role_policy())
        pip = PolicyInformationPoint("pip4", network)
        pip.store.set_subject_attribute("alice", SUBJECT_ROLE, [string("engineer")])
        pdp = PolicyDecisionPoint(
            "pdp4", network, pap_address="pap4", pip_addresses=["pip4"]
        )
        pep = PolicyEnforcementPoint(
            "pep4",
            network,
            pdp_address="pdp4",
            config=PepConfig(decision_cache_ttl=60.0),
        )
        first = pep.authorize_simple("alice", "doc", "read")
        second = pep.authorize_simple("alice", "doc", "read")
        assert first.source == "pdp"
        assert second.source == "cache"
        assert pdp.decisions_made == 1

    def test_fail_safe_deny_on_pdp_crash(self, env):
        network, _, _, pdp, pep = env
        pdp.crash()
        result = pep.authorize_simple("alice", "doc", "read")
        assert result.decision is Decision.DENY
        assert result.source == "fail-safe"
        assert pep.fail_safe_denials == 1

    def test_unknown_obligation_forces_deny(self):
        network = Network()
        pap = PolicyAdministrationPoint("pap6", network)
        pap.publish(
            Policy(
                policy_id="ob-policy",
                rules=(permit_rule("r"),),
                obligations=(
                    Obligation("urn:test:exotic-obligation", Decision.PERMIT),
                ),
            )
        )
        PolicyDecisionPoint("pdp6", network, pap_address="pap6")
        pep = PolicyEnforcementPoint("pep6", network, pdp_address="pdp6")
        result = pep.authorize_simple("a", "r", "read")
        assert result.decision is Decision.DENY
        assert result.source == "obligation"
        assert "not understood" in result.detail

    def test_registered_obligation_fulfilled(self):
        network = Network()
        pap = PolicyAdministrationPoint("pap7", network)
        pap.publish(
            Policy(
                policy_id="ob-policy",
                rules=(permit_rule("r"),),
                obligations=(Obligation("urn:test:log", Decision.PERMIT),),
            )
        )
        PolicyDecisionPoint("pdp7", network, pap_address="pap7")
        pep = PolicyEnforcementPoint("pep7", network, pdp_address="pdp7")
        log = []
        pep.register_obligation_handler(
            "urn:test:log", lambda ob, req: log.append(req.subject_id) or True
        )
        result = pep.authorize_simple("a", "r", "read")
        assert result.granted
        assert log == ["a"]

    def test_failing_obligation_denies(self):
        network = Network()
        pap = PolicyAdministrationPoint("pap8", network)
        pap.publish(
            Policy(
                policy_id="ob-policy",
                rules=(permit_rule("r"),),
                obligations=(Obligation("urn:test:quota", Decision.PERMIT),),
            )
        )
        PolicyDecisionPoint("pdp8", network, pap_address="pap8")
        pep = PolicyEnforcementPoint("pep8", network, pdp_address="pdp8")
        pep.register_obligation_handler("urn:test:quota", lambda ob, req: False)
        result = pep.authorize_simple("a", "r", "read")
        assert not result.granted
        assert pep.obligation_failures == 1


class TestSecureChannel:
    def test_signed_query_and_response(self):
        from repro.domain import AdministrativeDomain
        from repro.wss import KeyStore

        network = Network(seed=3)
        keystore = KeyStore(seed=3)
        domain = AdministrativeDomain("acme", network, keystore)
        domain.create_pap()
        domain.pap.publish(role_policy())
        domain.create_pip()
        domain.pip.store.set_subject_attribute(
            "alice", SUBJECT_ROLE, [string("engineer")]
        )
        pdp = domain.create_pdp(
            config=PdpConfig(require_signed_queries=True, sign_responses=True)
        )
        pep = domain.create_pep(
            "doc", config=PepConfig(secure_channel=True)
        )
        result = pep.authorize_simple("alice", "doc", "read")
        assert result.granted
        assert pdp.rejected_queries == 0

    def test_unsigned_pep_rejected_by_strict_pdp(self):
        from repro.domain import AdministrativeDomain
        from repro.wss import KeyStore

        network = Network(seed=3)
        keystore = KeyStore(seed=3)
        domain = AdministrativeDomain("acme", network, keystore)
        domain.create_pap()
        domain.pap.publish(role_policy())
        domain.create_pdp(config=PdpConfig(require_signed_queries=True))
        # PEP in plain mode: queries go to the plain endpoint, which the
        # strict PDP refuses; fail-safe denial results.
        pep = domain.create_pep("doc", config=PepConfig(secure_channel=False))
        result = pep.authorize_simple("alice", "doc", "read")
        assert result.decision is Decision.DENY
        assert result.source == "fail-safe"
