"""The request identity through every tier that keys by it.

A designator filters on data type and, when it names one, on issuer, so
two requests that differ only there can be decided differently.  The
identity used to be ``(category, id, lexical value)``: the PEP decision
cache, the in-flight dedup of the coalescing queue and the gateway-tier
remote-decision cache then handed the second request the first one's
answer — a Permit for a role ``hr`` vouched for, served to the same role
vouched for by anybody.  Each reproduction below failed that way.
"""

from repro.components import (
    DecisionDispatcher,
    FederatedGateway,
    PepConfig,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.simnet import Network
from repro.xacml import (
    ACTION_ID,
    Attribute,
    AttributeDesignator,
    AttributeValue,
    Category,
    DataType,
    Decision,
    Match,
    Policy,
    RESOURCE_ID,
    RequestContext,
    SUBJECT_ID,
    SUBJECT_ROLE,
    combining,
    deny_rule,
    match_equal,
    permit_rule,
    string,
    target_of,
)
from repro.xacml.functions import FUNCTION_PREFIX_1_0

ADMIN_BY_HR = target_of(
    Match(
        match_function=FUNCTION_PREFIX_1_0 + "string-equal",
        value=string("admin"),
        designator=AttributeDesignator(
            Category.SUBJECT, SUBJECT_ROLE, DataType.STRING, issuer="hr"
        ),
    )
)


def admins_only(definitive=False):
    """Permit when ``hr`` says the subject is an admin.  Otherwise not
    applicable — or, with ``definitive``, Deny (the gateway tier caches
    definitive decisions only)."""
    if not definitive:
        return Policy(
            policy_id="admins",
            target=ADMIN_BY_HR,
            rules=(permit_rule("admin"),),
        )
    return Policy(
        policy_id="admins",
        rules=(permit_rule("admin", ADMIN_BY_HR), deny_rule("rest")),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def admin_says(issuer, resource_id="doc"):
    request = RequestContext.simple("alice", resource_id, "read")
    request.add(
        Category.SUBJECT, Attribute(SUBJECT_ROLE, (string("admin"),), issuer)
    )
    return request


def one_domain(pep_config):
    network = Network(seed=17)
    pdp = PolicyDecisionPoint("pdp", network)
    pdp.add_local_policy(admins_only())
    pep = PolicyEnforcementPoint(
        "pep", network, pdp_address="pdp", config=pep_config
    )
    return network, pdp, pep


class TestPepDecisionCache:
    def test_another_issuer_is_another_entry(self):
        _, pdp, pep = one_domain(PepConfig(decision_cache_ttl=60))
        cold = pep.authorize(admin_says("mallory"))
        assert cold.decision is Decision.NOT_APPLICABLE
        pep.decision_cache.invalidate_all()

        granted = pep.authorize(admin_says("hr"))
        assert granted.granted and granted.source == "pdp"
        forged = pep.authorize(admin_says("mallory"))
        assert forged.decision is Decision.NOT_APPLICABLE
        assert forged.source == "pdp"
        assert not pep.authorize(admin_says(None)).granted
        assert pdp.decisions_made == 4
        # The honest request still hits its own entry.
        again = pep.authorize(admin_says("hr"))
        assert again.granted and again.source == "cache"

    def test_another_data_type_is_another_entry(self):
        """``string("alice")`` and ``anyURI("alice")`` as subject id: a
        policy on the string id does not match the URI."""
        network = Network(seed=17)
        pdp = PolicyDecisionPoint("pdp", network)
        pdp.add_local_policy(
            Policy(
                policy_id="alice",
                target=target_of(
                    match_equal(Category.SUBJECT, SUBJECT_ID, string("alice"))
                ),
                rules=(permit_rule("alice"),),
            )
        )
        pep = PolicyEnforcementPoint(
            "pep",
            network,
            pdp_address="pdp",
            config=PepConfig(decision_cache_ttl=60),
        )
        as_uri = RequestContext()
        as_uri.add(
            Category.SUBJECT,
            Attribute.of(SUBJECT_ID, AttributeValue(DataType.ANY_URI, "alice")),
        )
        as_uri.add(Category.RESOURCE, Attribute.of(RESOURCE_ID, string("doc")))
        as_uri.add(Category.ACTION, Attribute.of(ACTION_ID, string("read")))
        assert pep.authorize(RequestContext.simple("alice", "doc", "read")).granted
        answer = pep.authorize(as_uri)
        assert answer.decision is Decision.NOT_APPLICABLE
        assert answer.source == "pdp"

    def test_a_revocation_reaches_every_variant(self):
        _, _, pep = one_domain(PepConfig(decision_cache_ttl=60))
        for issuer in ("hr", "mallory", None):
            pep.authorize(admin_says(issuer))
        assert len(pep.decision_cache) == 3
        assert pep.decision_cache.invalidate_for(subject_id="alice") == 3


class TestInFlightDedup:
    def test_another_issuer_is_another_slot(self):
        network, pdp, pep = one_domain(PepConfig())
        queue = pep.enable_batching(max_batch=8, max_delay=0.002)
        answers = {}
        for issuer in ("hr", "mallory", "hr"):
            pep.submit(
                admin_says(issuer),
                lambda result, issuer=issuer: answers.setdefault(
                    issuer, []
                ).append(result),
            )
        network.run(until=network.now + 1.0)
        # The two honest requests share a slot; the forged one rides
        # its own and gets its own answer.
        assert queue.deduplicated == 1
        assert pdp.decisions_made == 2
        assert [result.granted for result in answers["hr"]] == [True, True]
        (forged,) = answers["mallory"]
        assert forged.decision is Decision.NOT_APPLICABLE


class TestGatewayRemoteCache:
    def build(self):
        network = Network(seed=23)
        hubs = {}
        for name in ("west", "east"):
            pdp = PolicyDecisionPoint(f"pdp.{name}", network, domain=name)
            pdp.add_local_policy(admins_only(definitive=True))
            hubs[name] = FederatedGateway(
                f"gw.{name}",
                network,
                DecisionDispatcher([f"pdp.{name}"]),
                domain=name,
                resolve_domain=lambda requests, then: then(
                    [request.resource_id.split(".")[1] for request in requests]
                ),
                max_batch=8,
                max_delay=0.001,
                remote_cache_ttl=60.0,
            )
        hubs["west"].add_peer("east", "gw.east")
        hubs["east"].allow_origin("west", "gw.west")
        pep = PolicyEnforcementPoint("pep.west", network, domain="west")
        pep.enable_batching(max_batch=4, max_delay=0.001, gateway=hubs["west"])
        return network, pep, hubs["west"]

    def test_another_issuer_is_another_entry(self):
        network, pep, hub = self.build()
        done = []
        pep.submit(admin_says("hr", "res.east"), done.append)
        network.run(until=network.now + 5.0)
        assert done[0].granted and hub.forwarded_batches_sent == 1

        pep.submit(admin_says("mallory", "res.east"), done.append)
        network.run(until=network.now + 5.0)
        assert done[1].decision is Decision.DENY
        assert hub.remote_cache_hits == 0
        assert hub.forwarded_batches_sent == 2

        # Both are cached under their own identity; one revocation of
        # the subject drops both.
        pep.submit(admin_says("hr", "res.east"), done.append)
        network.run(until=network.now + 5.0)
        assert done[2].granted and hub.remote_cache_hits == 1
        assert hub.remote_cache.invalidate_for(subject_id="alice") == 2
