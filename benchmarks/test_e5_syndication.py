"""E5 — Fig. 5: PAP syndication hierarchy vs central policy distribution.

Paper claim (§3.2 Communication Performance): syndicating the global
policy down a PAP hierarchy lets decisions retrieve policies "from
locally accessible administration points", cutting remote traffic versus
every PDP pulling from one central PAP over inter-domain links.

The decisions that trigger the fetches are queries on the wire from a
PEP beside each PDP, over a link that takes no time; the figures price
policy distribution, so they leave that decision traffic out.
"""

import math

from repro.admin import build_hierarchy
from repro.bench import Experiment
from repro.components import (
    PdpConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.simnet import INTER_DOMAIN_LATENCY, INTRA_DOMAIN_LATENCY, Link, Network
from repro.simnet.metrics import LatencyStats
from repro.xacml import (
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)

DOMAINS = 6
DECISIONS_PER_DOMAIN = 25
#: Between a PDP and the PEP that asks it: no latency, no transfer time.
DRIVER_LINK = Link(latency=0.0, bandwidth=math.inf)
#: What the driver's decision queries travel as.
DECISION_KINDS = ("xacml.request", "xacml.request:response")


def global_policy():
    return Policy(
        policy_id="global-policy",
        rules=(
            permit_rule("alice", subject_resource_action_target(subject_id="alice")),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def syndicate(network, root, element):
    """Publish at ``root`` and run the loop until its subtree answered."""
    reports = []
    root.publish(element, reports.append)
    network.loop.run_until(reports.__len__, math.inf)


def run_central():
    """Every domain PDP fetches from the one central PAP (inter-domain)."""
    network = Network(seed=5)
    central = PolicyAdministrationPoint("pap.central", network, domain="hq")
    central.publish(global_policy())
    pdps = []
    for index in range(DOMAINS):
        pdp = PolicyDecisionPoint(
            f"pdp.d{index}",
            network,
            domain=f"d{index}",
            pap_address="pap.central",
            # Expire the policy cache between decisions to expose the
            # distribution cost (worst case the paper worries about).
            config=PdpConfig(policy_cache_ttl=0.0, refresh_mode="full"),
        )
        network.set_link(
            pdp.name, "pap.central", Link(latency=INTER_DOMAIN_LATENCY)
        )
        pdps.append(pdp)
    decide_everywhere(network, pdps)
    return network


def decide_everywhere(network, pdps) -> None:
    """``DECISIONS_PER_DOMAIN`` queries to each PDP, from a PEP beside it."""
    request = RequestContext.simple("alice", "res", "read")
    for pdp in pdps:
        pep = PolicyEnforcementPoint(f"pep.{pdp.domain}", network, pdp_address=pdp.name)
        network.set_link(pep.name, pdp.name, DRIVER_LINK)
        for _ in range(DECISIONS_PER_DOMAIN):
            assert pep.authorize(request).granted


def distribution(metrics) -> tuple[int, int, LatencyStats]:
    """Messages, bytes and delivery latency of everything but the
    driver's decision traffic (whose deliveries take no time)."""
    return (
        metrics.messages_sent - sum(metrics.sent_by_kind[k] for k in DECISION_KINDS),
        metrics.bytes_sent - sum(metrics.bytes_by_kind[k] for k in DECISION_KINDS),
        LatencyStats.from_samples(x for x in metrics.latency_samples if x),
    )


def run_syndicated():
    """Global policy pushed down a hierarchy; PDPs fetch from local PAPs."""
    network = Network(seed=5)
    local_paps = []
    for index in range(DOMAINS):
        pap = PolicyAdministrationPoint(f"pap.d{index}", network, domain=f"d{index}")
        local_paps.append(pap)
    root, leaves = build_hierarchy(
        network,
        "synd.root",
        {"west": local_paps[: DOMAINS // 2], "east": local_paps[DOMAINS // 2 :]},
    )
    syndicate(network, root, global_policy())
    pdps = []
    for index in range(DOMAINS):
        pdp = PolicyDecisionPoint(
            f"pdp.d{index}",
            network,
            domain=f"d{index}",
            pap_address=f"pap.d{index}",
            config=PdpConfig(policy_cache_ttl=0.0, refresh_mode="full"),
        )
        network.set_link(
            pdp.name, f"pap.d{index}", Link(latency=INTRA_DOMAIN_LATENCY)
        )
        pdps.append(pdp)
    decide_everywhere(network, pdps)
    return network


def test_e5_syndication_vs_central(benchmark):
    central_net = run_central()
    synd_net = run_syndicated()

    central = central_net.metrics
    synd = synd_net.metrics
    central_messages, central_bytes, central_latency = distribution(central)
    synd_messages, synd_bytes, synd_latency = distribution(synd)

    experiment = Experiment(
        exp_id="E5",
        title="Policy distribution: central PAP vs syndication hierarchy (Fig. 5)",
        paper_claim="syndication moves policy fetches onto local links; "
        "the hierarchy pays a one-time push per update",
        columns=[
            "architecture",
            "messages",
            "bytes",
            "mean_latency_ms",
            "policy_fetch_msgs",
            "syndication_msgs",
        ],
    )
    experiment.add_row(
        "central PAP",
        central_messages,
        central_bytes,
        round(central_latency.mean * 1000, 3),
        central.sent_by_kind.get("pap.retrieve", 0)
        + central.sent_by_kind.get("pap.retrieve:response", 0),
        0,
    )
    experiment.add_row(
        "syndicated (Fig. 5)",
        synd_messages,
        synd_bytes,
        round(synd_latency.mean * 1000, 3),
        synd.sent_by_kind.get("pap.retrieve", 0)
        + synd.sent_by_kind.get("pap.retrieve:response", 0),
        synd.sent_by_kind.get("synd.update", 0)
        + synd.sent_by_kind.get("synd.update:response", 0),
    )
    experiment.note(
        f"{DOMAINS} domains x {DECISIONS_PER_DOMAIN} decisions, policy cache "
        "disabled so every decision re-fetches (worst case)"
    )
    experiment.show()

    # Shape: same fetch count, but syndicated fetches ride intra-domain
    # links -> far lower mean latency; the push overhead is a handful of
    # messages, amortised across all decisions.
    assert synd_latency.mean < central_latency.mean / 3
    assert (
        synd.sent_by_kind.get("synd.update", 0) <= 2 * DOMAINS
    )  # one push down the tree

    # Benchmark: one syndicated publish over the full hierarchy.
    def publish_once():
        network = Network(seed=55)
        paps = [
            PolicyAdministrationPoint(f"pap.x{i}", network, domain=f"x{i}")
            for i in range(DOMAINS)
        ]
        root, _ = build_hierarchy(
            network, "root", {"west": paps[:3], "east": paps[3:]}
        )
        syndicate(network, root, global_policy())

    benchmark(publish_once)
