"""E29a — the control plane under churn: what one policy change costs a PDP.

Paper context: §3.2 lets "decision points ... cache policies" and names
the price as lost "flexibility of revoking old access control rules";
the standard mitigation is a change notice that invalidates the cache.
What the notice costs then depends on what the PDP does *next*: under
load, every query that finds the cache stale while the new bundle is
still on the wire can start a probe and a fetch of its own for the same
revision — a refresh herd, nested one blocking call inside the other.
Since ISSUE 23 the refresh is single-flight and notice-driven: one
query fetches, the others wait for that bundle, and a notice that
already named a newer revision needs no probe.

The cell: one domain — three PEPs behind a gateway, one PDP subscribed
to a PAP holding 8 policies — under a closed loop; all 8 policies are
republished every ``CHANGE_EVERY`` completions (the shape of a
revocation in the ``federated_cached`` perf workload).  Per window it
reports, per change per PDP: bundle fetches, revision probes, parked
queries and ``pap.*`` bytes; the most refresh requests on the wire at
once (the ``nesting`` column: 1 when the refresh is single-flight);
and how many decisions were made under a revision whose successor had
already been announced to the PDP when their query arrived (pinned 0 —
parking may only delay an answer, never age it).

``REPRO_BENCH_SMOKE=1`` shrinks the run to a CI-sized single pass.
"""

import os
import random

from repro.bench import Experiment
from repro.components import (
    DecisionDispatcher,
    DomainDecisionGateway,
    PdpConfig,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.components.pap import parse_change_notice
from repro.simnet import INTRA_DOMAIN_LATENCY, Link, Network
from repro.workloads import drive_closed_loop
from repro.xacml import (
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: What a PDP asks its PAP for when it refreshes.
PAP_REFRESH = ("pap.revision", "pap.retrieve")

RESOURCES = 8
SUBJECTS = 200
PEPS = 3
#: Outstanding requests per PEP; offered load is PEPS x this.
WINDOWS = (8, 32)
CHANGES = 4 if SMOKE else 8
#: Completions (fleet-wide) between two republications of all 8 policies.
CHANGE_EVERY = 240 if SMOKE else 600
PEP_BATCH = 4
#: Smaller than the fleet's window, so several envelopes are at the PDP
#: (or on their way) at once: the material a refresh herd is made of.
GATEWAY_BATCH = 8
FLUSH_DELAY = 0.0005
ENVELOPE_OVERHEAD = 0.002
DECISION_SERVICE_TIME = 0.00025

#: The same cell at the parent commit (cc1bdd2, full size), where every
#: query that found the cache stale refreshed for itself: fetches,
#: probes per change per PDP and the deepest refresh nesting, by window.
PARENT = {8: (6.5, 6.5, 9), 32: (19.0, 19.5, 31)}
#: ... and what the ``federated_cached`` perf workload measured there
#: (seed 11, 40,000 decisions, 8 revocations, 2 PDPs, window 8).
PARENT_FEDERATED = "4.1 fetches / 8 probes per change per PDP, nesting 11"


def resource_policies(denied: tuple[str, ...]) -> list[Policy]:
    """One policy per resource: reads permitted, ``denied`` subjects not."""
    return [
        Policy(
            policy_id=f"res-{index}-policy",
            target=subject_resource_action_target(resource_id=f"res-{index}"),
            rules=(
                *(
                    deny_rule(
                        f"revoked-{subject}",
                        subject_resource_action_target(subject_id=subject),
                    )
                    for subject in denied
                ),
                permit_rule(
                    "reads", subject_resource_action_target(action_id="read")
                ),
                deny_rule("rest"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )
        for index in range(RESOURCES)
    ]


class RefreshProbe:
    """Watches one PDP's refresh path from outside, on the wire.

    ``nesting_max``: most PAP requests of the PDP on the wire at once
    with no reply yet (one refresh in flight: 1).
    ``superseded``: decisions made under revision r for a query that
    arrived after a notice had announced some r' > r.
    """

    def __init__(self, pdp: PolicyDecisionPoint) -> None:
        self.pdp = pdp
        self.nesting_max = 0
        self.superseded = 0
        self._announced = 0
        #: PAP request message ids the PDP sent that have no reply yet.
        self._unanswered: set[int] = set()
        #: Query message id -> revision announced when it first arrived.
        self._owed: dict[int, int] = {}
        self._dispatch = pdp._dispatch
        self._reply = pdp._reply_after_service
        self._transmit = pdp.network.transmit
        pdp.node.on_message(self.dispatch)
        pdp._dispatch = self.dispatch
        pdp._reply_after_service = self.reply
        pdp.network.transmit = self.transmit

    def transmit(self, message) -> None:
        if message.sender == self.pdp.name and message.kind in PAP_REFRESH:
            self._unanswered.add(message.msg_id)
            self.nesting_max = max(self.nesting_max, len(self._unanswered))
        self._unanswered.discard(message.reply_to)
        self._transmit(message)

    def dispatch(self, message) -> None:
        if message.kind == "pap.changed":
            revision = parse_change_notice(str(message.payload))
            self._announced = max(self._announced, revision or 0)
        self._owed.setdefault(message.msg_id, self._announced)
        self._dispatch(message)

    def reply(self, message, payload, decisions, batch_id=""):
        # Evaluation here has no PIP or owner to wait for: a query is
        # decided under the revision held when its reply is sealed.
        if (self.pdp._cached_revision or 0) < self._owed[message.msg_id]:
            self.superseded += decisions
        return self._reply(message, payload, decisions, batch_id)


def build_domain():
    network = Network(seed=29)
    pap = PolicyAdministrationPoint("pap", network)
    for policy in resource_policies(()):
        pap.publish(policy)
    pdp = PolicyDecisionPoint(
        "pdp",
        network,
        pap_address="pap",
        config=PdpConfig(
            policy_cache_ttl=3600.0,
            envelope_overhead=ENVELOPE_OVERHEAD,
            decision_service_time=DECISION_SERVICE_TIME,
        ),
    )
    pdp.subscribe_to_policy_changes()
    hub = DomainDecisionGateway(
        "gateway",
        network,
        DecisionDispatcher([pdp.name]),
        max_batch=GATEWAY_BATCH,
        max_delay=FLUSH_DELAY,
    )
    peps = []
    for index in range(PEPS):
        pep = PolicyEnforcementPoint(
            f"pep-{index}", network, config=PepConfig(decision_cache_ttl=0.0)
        )
        pep.enable_batching(max_batch=PEP_BATCH, max_delay=FLUSH_DELAY, gateway=hub)
        peps.append(pep)
    local = Link(latency=INTRA_DOMAIN_LATENCY)
    network.set_link("gateway", "pdp", local)
    network.set_link("pdp", "pap", local)
    return network, pap, pdp, peps


def request_mix(count: int, seed: int) -> list[RequestContext]:
    rng = random.Random(seed)
    return [
        RequestContext.simple(
            f"user-{rng.randrange(SUBJECTS)}",
            f"res-{rng.randrange(RESOURCES)}",
            "read" if rng.random() < 0.9 else "delete",
        )
        for _ in range(count)
    ]


def run_cell(window: int) -> dict:
    """One closed-loop run; returns the per-change-per-PDP figures."""
    network, pap, pdp, peps = build_domain()
    probe = RefreshProbe(pdp)
    total = CHANGE_EVERY * (CHANGES + 1)
    state = {"completed": 0, "denied": ()}

    def republish(pep, request, result) -> None:
        state["completed"] += 1
        done = state["completed"]
        if done % CHANGE_EVERY == 0 and done < total:
            state["denied"] += (f"user-{len(state['denied'])}",)
            for policy in resource_policies(state["denied"]):
                pap.publish(policy)

    # Warm: the first fetch is the cold start's, not a change's.
    warm = []
    peps[0].submit(RequestContext.simple("user-0", "res-0", "read"), warm.append)
    network.run(until=network.now + 1.0)
    assert [result.granted for result in warm] == [True]

    def counts():
        return (
            pdp.policy_fetches,
            pdp.revision_probes,
            pdp.parked_queries,
            sum(
                size
                for kind, size in network.metrics.bytes_by_kind.items()
                if kind.startswith("pap.")
            ),
        )

    before = counts()
    per_pep = total // PEPS
    stats = drive_closed_loop(
        peps,
        [request_mix(per_pep, seed=290 + index) for index in range(PEPS)],
        concurrency=window,
        observer=republish,
    )
    assert stats.fleet.completed == per_pep * PEPS
    assert all(pep.fail_safe_denials == 0 for pep in peps)
    assert len(state["denied"]) == CHANGES
    assert pdp._cached_revision == pap.repository.revision
    fetches, probes, parked, pap_bytes = (
        (now - then) / CHANGES for now, then in zip(counts(), before, strict=True)
    )
    return {
        "fetches_per_change": fetches,
        "probes_per_change": probes,
        "parked_per_change": parked,
        "pap_bytes_per_change": pap_bytes,
        "refresh_nesting_max": probe.nesting_max,
        "superseded_decisions": probe.superseded,
    }


def test_e29a_one_refresh_in_flight():
    experiment = Experiment(
        exp_id="E29a",
        title="The refresh herd: cost of one policy change per PDP "
        f"({PEPS} PEPs behind a gateway, all {RESOURCES} policies "
        f"republished every {CHANGE_EVERY} completions, {CHANGES} changes)",
        paper_claim="policy caching at decision points costs 'flexibility "
        "of revoking old access control rules' (§3.2); a change notice buys "
        "it back, and should cost one bundle per decision point, not one "
        "per query that was in the air",
        columns=[
            "window",
            "fetches",
            "probes",
            "parked",
            "pap_bytes",
            "nesting",
            "superseded",
            "parent_fetches",
            "parent_probes",
            "parent_nesting",
        ],
    )
    for window in WINDOWS:
        cell = run_cell(window)
        parent_fetches, parent_probes, parent_nesting = PARENT[window]
        experiment.add_row(
            window,
            round(cell["fetches_per_change"], 2),
            round(cell["probes_per_change"], 2),
            round(cell["parked_per_change"], 2),
            round(cell["pap_bytes_per_change"]),
            cell["refresh_nesting_max"],
            cell["superseded_decisions"],
            parent_fetches,
            parent_probes,
            parent_nesting,
        )
        # The pins: one bundle per change per PDP, no probe for a
        # revision a notice already named, no nesting, nothing stale.
        assert cell["fetches_per_change"] == 1.0
        assert cell["probes_per_change"] == 0.0
        assert cell["refresh_nesting_max"] == 1
        assert cell["superseded_decisions"] == 0
    experiment.note(
        "all figures per change per PDP; parent_* = this cell at cc1bdd2 "
        "(full size), before the refresh was single-flight"
    )
    experiment.note(
        f"federated_cached at cc1bdd2 (perf lane, window 8): {PARENT_FEDERATED}; "
        "now 1 fetch / 0 probes, nesting 1"
    )
    experiment.note(
        "superseded = decisions made under a revision whose successor had "
        "been announced to the PDP before their query arrived (pinned 0)"
    )
    experiment.show()
