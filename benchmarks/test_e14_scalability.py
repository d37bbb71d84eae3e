"""E14 — §3.1: scaling to large user and resource bases.

Paper claims: authorisation must "scale to large user and resource bases"
and "defining access control rules based on individual identities is not
efficient and often not viable" — attribute/role-based policies are the
scalable alternative.  The experiment (a) sweeps the policy count and
compares indexed vs linear policy stores, (b) compares per-identity
policies against one role-based policy as the user base grows, and (c)
runs the mined role-conditioned corpus of ``Population.policy_set(N)``
with the population as attribute authority, counting how often one
decision asks it and how many of the candidates the store hands it
have a target that matches — and weighs what one policy of that corpus
costs in memory, beside the per-identity corpus of (b), where every
leaf is distinct and sharing leaves can save nothing.

``REPRO_BENCH_SMOKE=1`` shrinks the sweeps to a CI-sized pass; the
10,000-policy row and its flatness assertions stay, so a store whose
per-request work grows with its size fails the smoke job.
"""

import dataclasses
import gc
import os
import time
import tracemalloc

from repro.bench import Experiment
from repro.components import AttributeStore
from repro.models import RbacModel
from repro.workloads import Population, PopulationSpec
from repro.xacml import (
    Category,
    Decision,
    EvaluationContext,
    MatchResult,
    PdpEngine,
    Policy,
    PolicyStore,
    RequestContext,
    SUBJECT_ROLE,
    attribute_equals,
    combining,
    deny_rule,
    permit_rule,
    string,
    subject_resource_action_target,
)
from repro.xacml.attributes import _designator_of
from repro.xacml.expressions import _condition_of
from repro.xacml.targets import _match_of, _single_of

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Policy counts both stores are timed at ...
POLICY_SWEEP = (10, 1000) if SMOKE else (10, 100, 1000)
#: ... and the count only the indexed store goes on to: one linear
#: decision there evaluates all 10,000 policies.
INDEXED_ONLY = 10_000
USER_SWEEP = (10, 100) if SMOKE else (10, 100, 1000)
#: Timed passes per figure; the fastest one is reported.
REPEATS = 5
#: How far the indexed store's per-operation time at ``INDEXED_ONLY``
#: may exceed the 10-policy row's and still count as flat (a store that
#: scans itself per request reads in the hundreds).
FLAT_WITHIN = 3.0


def resource_policy(index):
    return Policy(
        policy_id=f"policy-{index}",
        rules=(
            permit_rule(
                "allow",
                subject_resource_action_target(subject_id=f"owner-{index}"),
            ),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id=f"res-{index}"),
    )


def fastest(run):
    """Seconds one call of ``run`` takes, fastest of ``REPEATS``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def timed_decisions(engine, requests):
    """Seconds for one pass over the requests."""

    def decide_all():
        for request in requests:
            engine.decide(request)

    return fastest(decide_all)


def timed_replaces(store):
    """Seconds per ``replace()`` of a held policy."""
    held = store.elements()[:100]

    def replace_all():
        for element in held:
            store.replace(element)

    return fastest(replace_all) / len(held)


def test_e14_target_indexing(benchmark):
    experiment = Experiment(
        exp_id="E14a",
        title="PDP evaluation vs policy count: indexed vs linear store",
        paper_claim="an indexed policy store keeps per-decision work flat "
        "as the policy base grows; linear scan degrades",
        columns=[
            "policies",
            "indexed_considered",
            "linear_considered",
            "indexed_ms_per_100",
            "linear_ms_per_100",
            "replace_us",
        ],
    )
    ratios = {}
    indexed_times = {}
    replace_times = {}
    for count in POLICY_SWEEP + (INDEXED_ONLY,):
        policies = [resource_policy(index) for index in range(count)]
        requests = [
            RequestContext.simple(f"owner-{i % count}", f"res-{i % count}", "read")
            for i in range(100)
        ]
        indexed = PdpEngine(PolicyStore(indexed=True))
        indexed.add_policies(policies)
        indexed_times[count] = timed_decisions(indexed, requests)
        indexed_considered = indexed.evaluate(requests[0]).stats.policies_considered
        assert indexed_considered == 1
        linear_considered = linear_ms = "-"
        if count != INDEXED_ONLY:
            linear = PdpEngine(PolicyStore(indexed=False))
            linear.add_policies(policies)
            linear_time = timed_decisions(linear, requests)
            linear_ms = round(linear_time * 1000, 2)
            linear_considered = linear.evaluate(requests[0]).stats.policies_considered
            ratios[count] = linear_time / max(indexed_times[count], 1e-9)
            # Correctness under indexing, spot-checked.
            for request in requests[:10]:
                assert indexed.decide(request) == linear.decide(request)
            assert linear_considered == count
        # Timed last: replace() re-queues what it touches.
        replace_times[count] = timed_replaces(indexed.store)
        experiment.add_row(
            count,
            indexed_considered,
            linear_considered,
            round(indexed_times[count] * 1000, 2),
            linear_ms,
            round(replace_times[count] * 1e6, 2),
        )
    experiment.show()

    # Shape: the linear/indexed gap widens with the policy base.
    assert ratios[1000] > ratios[10]
    assert ratios[1000] > 5
    # Shape: the indexed store's own cost does not grow with it — in
    # host time, not only in policies considered.
    assert indexed_times[INDEXED_ONLY] < FLAT_WITHIN * indexed_times[10]
    assert replace_times[INDEXED_ONLY] < FLAT_WITHIN * replace_times[10]

    big = PdpEngine(PolicyStore(indexed=True))
    for index in range(1000):
        big.add_policy(resource_policy(index))
    hot = RequestContext.simple("owner-500", "res-500", "read")
    benchmark(lambda: big.decide(hot))


#: Mined corpus sizes; both run in smoke mode too (the assertion is a
#: count, and 20,000 is the size the perf lane's ``policy_heavy`` holds).
MINED_SWEEP = (200, 20_000)
#: Mined policies per resource: the corpus grows by covering more
#: resources, so the candidate set of one request stays put.
MINED_PER_RESOURCE = 10
MINED_REQUESTS = 400


def residue_share(store):
    """Share of the store's elements whose target pins more than one
    group: posted under the first, filtered by the rest."""
    pinned = [
        sum(group.pins() is not None for group in element.target.any_ofs)
        for element in store.elements()
    ]
    return sum(count > 1 for count in pinned) / len(pinned)


def test_e14_mined_corpus_asks_the_authority_once(benchmark):
    """Every rule of the mined corpus is conditioned on the subject's
    role, which only the attribute authority knows; every policy targets
    one ``(resource, action)`` pair, ten policies to a resource.  The
    store keys on the resource and filters by the action, so a request
    that carries both is handed exactly the policies whose target
    matches — selectivity 1.0, where a resource-only index hands it all
    ten.  One designator is finder-backed, so one question per decision
    is all it may cost — XACML's "each bag is populated before it is
    first tested and thereafter immutable" — however many rules read
    the answer."""
    experiment = Experiment(
        exp_id="E14c",
        title="Mined role-conditioned corpus: attribute-authority calls "
        "per decision",
        paper_claim="the PDP pulls a subject's attributes from the PIP once "
        "per decision request (Fig. 4), whatever the policy base",
        columns=[
            "policies",
            "resources",
            "residue_share",
            "candidates_per_decision",
            "matched_per_decision",
            "finder_calls_per_decision",
            "max_finder_calls",
        ],
    )
    candidates_per_decision = {}
    engine = None
    for count in MINED_SWEEP:
        population = Population(
            PopulationSpec(
                subjects=10_000, resources=count // MINED_PER_RESOURCE, seed=14
            )
        )
        resolver = population.attribute_resolver()
        asked = []

        def finder_for(request, resolver=resolver, asked=asked):
            # The shape of the PDP's own finder: every call is a fresh
            # question to the authority about the request's subject.
            def finder(category, attribute_id, data_type):
                asked.append(attribute_id)
                attributes = resolver(request.subject_id or "")
                return [
                    value
                    for value in attributes.get(attribute_id, [])
                    if value.data_type is data_type
                ]

            return finder

        engine = PdpEngine(PolicyStore(indexed=True))
        engine.add_policies(population.policy_set(policies=count))
        requests = list(population.request_contexts(MINED_REQUESTS, seed=14))
        responses = engine.evaluate_batch(requests, finder_for=finder_for)
        finder_calls = [response.stats.finder_calls for response in responses]
        candidates_per_decision[count] = sum(
            response.stats.candidate_set_size for response in responses
        ) / len(responses)
        matched = []
        for request, response in zip(requests, responses, strict=True):
            ctx = EvaluationContext(request=request)
            matched.append(
                sum(
                    element.target.evaluate(ctx) is MatchResult.MATCH
                    for element in engine.store.candidates(request)
                )
            )
            # The request carries every identifier the targets pin:
            # nothing is handed over that does not match.
            assert response.stats.candidate_set_size == matched[-1]
        assert sum(matched) > 0
        experiment.add_row(
            count,
            population.spec.resources,
            round(residue_share(engine.store), 2),
            round(candidates_per_decision[count], 2),
            round(sum(matched) / len(responses), 2),
            round(sum(finder_calls) / len(responses), 2),
            max(finder_calls),
        )
        # One finder-backed designator (the subject's role): at most one
        # question per decision, and the stats count what was asked.
        assert max(finder_calls) <= 1
        assert sum(finder_calls) == len(asked)
        assert set(asked) == {SUBJECT_ROLE}
        # Not vacuous: decisions with candidates did need the role.
        assert sum(finder_calls) > 0.9 * len(responses)
    experiment.show()

    # Shape: a hundred times the policies, the same work per decision.
    small, large = (candidates_per_decision[count] for count in MINED_SWEEP)
    assert large < 1.5 * small

    hot = requests[0]
    benchmark(lambda: engine.evaluate_batch([hot], finder_for=finder_for))


#: Policies (mined) and rules (per-identity) the memory rows are built at.
COSTED = 10_000
#: What one mined two-or-three-rule policy may cost, memo tables
#: included (3,965 B before policy trees were slotted and their leaves
#: shared, about 800 B since).
MINED_POLICY_BYTES = 1024


def identity_policy(users):
    """(b)'s per-identity policy: one rule, one distinct subject leaf,
    per user."""
    return Policy(
        policy_id=f"identity-{users}",
        rules=tuple(
            permit_rule(
                f"user-{index}",
                subject_resource_action_target(subject_id=f"user-{index}"),
            )
            for index in range(users)
        )
        + (deny_rule("rest"),),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
        target=subject_resource_action_target(resource_id="dataset"),
    )


def forget_leaves():
    for memo in (_designator_of, _match_of, _single_of, _condition_of):
        memo.cache_clear()
    gc.collect()


def traced(build):
    """``(what build() returns, bytes it holds on to, bytes of those
    that are the leaf memos' own tables)``: the memos start cold, so
    their tables are part of the price, and are emptied at the end
    while the policies keep every leaf alive, which prices them alone."""
    forget_leaves()
    tracemalloc.start()
    try:
        built = build()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        forget_leaves()
        return built, held, held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def tree_census(policies):
    """``(tree objects, distinct tree objects)``: every dataclass node
    reachable from the policies, counted per reference and per object."""
    total, distinct = 0, set()
    pending = list(policies)
    while pending:
        node = pending.pop()
        if isinstance(node, tuple):
            pending.extend(node)
        elif dataclasses.is_dataclass(node):
            total += 1
            distinct.add(id(node))
            pending.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return total, len(distinct)


def test_e14_what_a_policy_costs():
    """A policy costs what it says: the mined corpus repeats its
    resource, action and role leaves by construction, and holds each
    once.  The per-identity policy has nothing to share — every rule
    names another subject — so its row prices the slotted nodes alone,
    with the leaf memos' tables on top."""
    experiment = Experiment(
        exp_id="E14c-mem",
        title="What a policy costs in memory: mined corpus vs per-identity rules",
        paper_claim="an authorisation service must 'scale to large user and "
        "resource bases' (§3.1) — in what a replica holds, too",
        columns=[
            "corpus",
            "units",
            "bytes_per_unit",
            "memo_tables_per_unit",
            "tree_objects",
            "distinct_objects",
        ],
    )
    population = Population(
        PopulationSpec(subjects=10_000, resources=COSTED // MINED_PER_RESOURCE, seed=14)
    )
    mined, mined_bytes, mined_tables = traced(
        lambda: population.policy_set(policies=COSTED)
    )
    identity, identity_bytes, identity_tables = traced(lambda: identity_policy(COSTED))
    for corpus, units, held, tables, policies in (
        ("mined (policies)", len(mined), mined_bytes, mined_tables, mined),
        (
            "per-identity (rules)",
            len(identity.rules),
            identity_bytes,
            identity_tables,
            [identity],
        ),
    ):
        experiment.add_row(
            corpus,
            units,
            round(held / units),
            round(tables / units),
            *tree_census(policies),
        )
    experiment.show()
    assert mined_bytes / len(mined) <= MINED_POLICY_BYTES
    # Shape: the mined corpus holds far fewer objects than it references.
    total, distinct = tree_census(mined)
    assert distinct < total / 4


def test_e14_identity_vs_role_policies(benchmark):
    experiment = Experiment(
        exp_id="E14b",
        title="Per-identity rules vs one role policy as users grow",
        paper_claim="identity-based rules are 'not efficient and often not "
        "viable' at scale; attribute-based policies stay O(1)",
        columns=["users", "identity_rules", "identity_bytes", "role_rules", "role_bytes"],
    )
    from repro.xacml import serialize_policy

    for users in USER_SWEEP:
        role_policy = Policy(
            policy_id=f"role-{users}",
            rules=(
                permit_rule(
                    "members",
                    condition=attribute_equals(
                        Category.SUBJECT, SUBJECT_ROLE, string("member")
                    ),
                ),
                deny_rule("rest"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
            target=subject_resource_action_target(resource_id="dataset"),
        )
        identity_bytes = len(serialize_policy(identity_policy(users)).encode())
        role_bytes = len(serialize_policy(role_policy).encode())
        experiment.add_row(
            users,
            users + 1,
            identity_bytes,
            len(role_policy.rules),
            role_bytes,
        )
        # Same decisions for members either way.
        engine_identity = PdpEngine()
        engine_identity.add_policy(identity_policy(users))
        engine_role = PdpEngine()
        engine_role.add_policy(role_policy)
        request = RequestContext.simple(
            "user-3",
            "dataset",
            "read",
            subject_attributes={SUBJECT_ROLE: [string("member")]},
        )
        assert engine_identity.decide(request) is Decision.PERMIT
        assert engine_role.decide(request) is Decision.PERMIT
        # Shape: identity policy grows linearly; role policy is constant.
        assert role_bytes < 2000
        assert identity_bytes > users * 100
    experiment.show()

    benchmark(
        lambda: len(serialize_policy(
            Policy(
                policy_id="bench-role",
                rules=(
                    permit_rule(
                        "members",
                        condition=attribute_equals(
                            Category.SUBJECT, SUBJECT_ROLE, string("member")
                        ),
                    ),
                    deny_rule("rest"),
                ),
                rule_combining=combining.RULE_FIRST_APPLICABLE,
            )
        ).encode())
    )


def test_e14_rbac_closure_scales(benchmark):
    """Role hierarchies keep user-side state small: permissions come from
    the closure, not from per-user rules."""
    model = RbacModel("big")
    depth = 20
    for level in range(depth):
        model.add_role(f"level-{level}")
        model.grant_permission(f"level-{level}", f"res-{level}", "read")
        if level:
            model.add_inheritance(f"level-{level}", f"level-{level - 1}")
    model.assign_user("ceo", f"level-{depth - 1}")
    assert len(model.user_permissions("ceo")) == depth
    assert len(model.assigned_roles("ceo")) == 1
    store = AttributeStore()
    model.populate_pip(store)
    from repro.xacml import DataType

    roles = store.lookup(
        Category.SUBJECT, SUBJECT_ROLE, "ceo", DataType.STRING, 0.0
    )
    assert len(roles) == depth  # full closure materialised once, centrally

    benchmark(lambda: model.user_permissions("ceo"))
