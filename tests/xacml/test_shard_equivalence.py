"""Property tests: sharded routing never changes a decision.

E19's placement layer rests on the same kind of guarantee as batching:
splitting the decision tier's state across a consistent-hash ring must
be *invisible* in decisions.  Including mid-stream replica joins,
evaluating with each replica's
:class:`~repro.components.placement.AttributePartition` (lazy fault-in
from a shared authoritative resolver) returns exactly what the
reference semantics (``tests/reference/xacml.py``) decides with the
authoritative resolver as its finder, and replicas only ever retain
keys they own.
"""

from hypothesis import given, settings, strategies as st
from reference import xacml

from repro.components.placement import (
    AttributePartition,
    PlacementMap,
    PlacementSpec,
)
from repro.xacml import (
    PdpEngine,
    Policy,
    PolicyStore,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)
from repro.xacml.attributes import Category, SUBJECT_ROLE, string
from repro.xacml.expressions import attribute_equals

SUBJECTS = [f"subj-{index}" for index in range(12)]
RESOURCES = [f"res-{index}" for index in range(12)]
ACTIONS = ["read", "write", "delete"]
ROLES = ["engineer", "analyst", "contractor"]
REPLICA_POOL = [f"pdp-{index}" for index in range(5)]

subjects = st.sampled_from(SUBJECTS)
resources = st.sampled_from(RESOURCES)
actions = st.sampled_from(ACTIONS)

#: A request interleaved with optional ring churn before it.
events = st.lists(
    st.tuples(
        st.sampled_from(["none", "join"]),
        st.builds(RequestContext.simple, subjects, resources, actions),
    ),
    min_size=1,
    max_size=20,
)


def role_of(subject_id: str) -> str:
    # Deterministic, process-independent subject → role assignment.
    return ROLES[sum(map(ord, subject_id)) % len(ROLES)]


def resolver(key: str):
    return {SUBJECT_ROLE: [string(role_of(key))]}


def direct_finder(request):
    def finder(category, attribute_id, data_type):
        if category is not Category.SUBJECT or not request.subject_id:
            return []
        return [
            value
            for value in resolver(request.subject_id).get(attribute_id, [])
            if value.data_type is data_type
        ]

    return finder


def partition_finder(partition, request):
    def finder(category, attribute_id, data_type):
        if category is not Category.SUBJECT or not request.subject_id:
            return []
        return partition.lookup(request.subject_id, attribute_id, data_type)

    return finder


@st.composite
def mixed_policies(draw):
    """Policies with and without sound resource constraints, some
    conditioned on the subject's resolved role attribute."""
    policies = []
    for index in range(draw(st.integers(min_value=1, max_value=6))):
        target = subject_resource_action_target(
            draw(st.one_of(st.none(), subjects)),
            draw(st.one_of(st.none(), resources)),
            draw(st.one_of(st.none(), actions)),
        )
        condition = None
        if draw(st.booleans()):
            condition = attribute_equals(
                Category.SUBJECT, SUBJECT_ROLE, string(draw(st.sampled_from(ROLES)))
            )
        builder = permit_rule if draw(st.booleans()) else deny_rule
        policies.append(
            Policy(
                policy_id=f"gen-{index}",
                target=target,
                rules=(builder(f"rule-{index}", condition=condition),),
                rule_combining=draw(
                    st.sampled_from(
                        [
                            combining.RULE_DENY_OVERRIDES,
                            combining.RULE_PERMIT_OVERRIDES,
                            combining.RULE_FIRST_APPLICABLE,
                        ]
                    )
                ),
            )
        )
    return policies


def churn(ring: PlacementMap, op: str) -> bool:
    """Apply one ring op; returns whether the ring changed."""
    if op == "join":
        joined = next(
            (name for name in REPLICA_POOL if name not in ring), None
        )
        if joined is None:
            return False
        ring.add_replica(joined)
        return True
    return False


def assert_decides_as_the_reference(sharded, policies, request, context: str) -> None:
    result = sharded.response.result
    assert (result.decision, result.status.code, result.obligations) == (
        xacml.authorization_decision(
            policies,
            request,
            combining.POLICY_DENY_OVERRIDES,
            direct_finder(request),
            xacml.ENGINE,
        )
    ), context


class TestSubjectShardedAttributes:
    @given(mixed_policies(), events, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_partitioned_attributes_decide_as_the_reference(
        self, policies, events, indexed
    ):
        store = PolicyStore(indexed=indexed)
        for policy in policies:
            store.add(policy)
        ring = PlacementMap(REPLICA_POOL[:2])
        spec = PlacementSpec("subject", ring)
        partitions = {
            name: AttributePartition(name, spec, resolver)
            for name in ring.replicas
        }
        replicas = {name: PdpEngine(store) for name in ring.replicas}
        for op, request in events:
            if churn(ring, op):
                for name in ring.replicas:
                    if name not in partitions:
                        partitions[name] = AttributePartition(
                            name, spec, resolver
                        )
                        replicas[name] = PdpEngine(store)
                for partition in partitions.values():
                    partition.rebalance()
            owner = ring.owner(request.subject_id or "")
            replicas[owner].attribute_finder = partition_finder(
                partitions[owner], request
            )
            assert_decides_as_the_reference(
                replicas[owner].evaluate(request),
                policies,
                request,
                f"{request.subject_id} on {owner} (epoch {ring.epoch})",
            )
        # Placement invariant: after any churn history, a replica only
        # retains keys it currently owns.
        for name, partition in partitions.items():
            assert all(partition.owns(key) for key in partition.keys())
