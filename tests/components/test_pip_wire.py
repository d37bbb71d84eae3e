"""PIP wire format: hostile attribute values must round-trip losslessly.

The seed bug (ROADMAP open item): ``serialize_pip_query`` interpolated
values into XML attributes unescaped, so a subject id containing ``"``
produced a query the PIP could not parse — crashing PIP-resolved
evaluation for exactly the requests an attacker controls the spelling
of.  The format now uses the same ``quoteattr``/``parse_attrs`` pair as
the revocation wire formats.
"""

import pytest

from repro.components import (
    AttributeStore,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
    PolicyInformationPoint,
    parse_pip_query,
    parse_pip_response,
    serialize_pip_query,
    serialize_pip_response,
)
from repro.models.abac import AbacPolicyBuilder, AbacRuleBuilder
from repro.simnet import Network
from repro.xacml import (
    Category,
    Decision,
    RequestContext,
    SUBJECT_ROLE,
    combining,
    string,
)
from repro.xacml.attributes import DataType

HOSTILE_VALUES = [
    'mal"ory',
    "o'hara",
    'both"quote\'styles',
    "angle<brackets>&amps;",
    'attr="injected" about="x',
    "  leading and trailing  ",
    "line\nbreak\ttab\rreturn",
]


class TestQueryRoundTrip:
    @pytest.mark.parametrize("about", HOSTILE_VALUES)
    def test_hostile_about_round_trips(self, about):
        query = serialize_pip_query(
            Category.SUBJECT, SUBJECT_ROLE, about, DataType.STRING
        )
        category, attribute_id, parsed_about, data_type = parse_pip_query(query)
        assert category is Category.SUBJECT
        assert attribute_id == SUBJECT_ROLE
        assert parsed_about == about
        assert data_type is DataType.STRING

    @pytest.mark.parametrize("attribute_id", ['urn:weird:"quoted"', "urn:a&b"])
    def test_hostile_attribute_id_round_trips(self, attribute_id):
        query = serialize_pip_query(
            Category.RESOURCE, attribute_id, "res", DataType.STRING
        )
        assert parse_pip_query(query)[1] == attribute_id

    def test_missing_attribute_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            parse_pip_query('<PipQuery category="subject" about="x"/>')

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="bad PIP query"):
            parse_pip_query("<NotAPipQuery/>")


class TestResponseRoundTrip:
    @pytest.mark.parametrize("value", HOSTILE_VALUES)
    def test_hostile_values_round_trip(self, value):
        payload = serialize_pip_response([string(value)])
        parsed = parse_pip_response(payload)
        assert [v.value for v in parsed] == [value]


class TestEndToEnd:
    def test_hostile_subject_id_survives_pip_resolved_evaluation(self):
        """The seed crash scenario: a quoted subject id, resolved via PIP."""
        network = Network(seed=31)
        store = AttributeStore()
        subject_id = 'mal"ory <&> o\'hara'
        store.set_subject_attribute(
            subject_id, SUBJECT_ROLE, [string("analyst")]
        )
        PolicyInformationPoint("pip", network, store=store)
        pdp = PolicyDecisionPoint("pdp", network, pip_addresses=["pip"])
        pdp.add_local_policy(
            AbacPolicyBuilder(
                "role-policy", rule_combining=combining.RULE_FIRST_APPLICABLE
            )
            .rule(
                AbacRuleBuilder("analysts-read")
                .permit()
                .when_subject(SUBJECT_ROLE, "analyst")
                .when_action("read")
                .build()
            )
            .default_deny()
            .build()
        )
        pep = PolicyEnforcementPoint("pep", network, pdp_address="pdp")
        result = pep.authorize(RequestContext.simple(subject_id, "doc", "read"))
        assert result.decision is Decision.PERMIT
        assert pdp.pip_queries_sent == 1
        # And an unknown hostile subject still resolves (to nothing).
        other = pep.authorize(RequestContext.simple('eve"dropper', "doc", "read"))
        assert other.decision is Decision.DENY

    def test_rules_on_one_attribute_cost_one_query(self):
        """Three rules conditioned on the subject's role are one
        ``pip.query`` on the wire, not one per rule evaluated: the bag
        fetched for the first rule serves the decision."""
        network = Network(seed=32)
        store = AttributeStore()
        store.set_subject_attribute("carol", SUBJECT_ROLE, [string("clerk")])
        PolicyInformationPoint("pip", network, store=store)
        pdp = PolicyDecisionPoint("pdp", network, pip_addresses=["pip"])
        policy = AbacPolicyBuilder(
            "by-role", rule_combining=combining.RULE_FIRST_APPLICABLE
        )
        for role in ("doctor", "nurse", "clerk"):
            policy.rule(
                AbacRuleBuilder(f"{role}s-read")
                .permit()
                .when_subject(SUBJECT_ROLE, role)
                .build()
            )
        pdp.add_local_policy(policy.default_deny().build())
        pep = PolicyEnforcementPoint("pep", network, pdp_address="pdp")
        result = pep.authorize(RequestContext.simple("carol", "doc", "read"))
        assert result.decision is Decision.PERMIT
        assert network.metrics.sent_by_kind["pip.query"] == 1
        assert pdp.pip_queries_sent == 1
