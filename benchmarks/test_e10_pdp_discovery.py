"""E10 — §3.2 Location of Policy Decision Points.

Paper claim: "static binding between enforcement and decision components
in small distributed systems is sufficient, [but] does not fit into large
computing environments ... a discovery mechanism needs to be employed."

The experiment churns PDPs (crash/recover) and compares decision
availability under (a) a static PEP→PDP binding and (b) registry-based
discovery with health probing, including fallback to a delegated domain.
"""

from repro.bench import Experiment
from repro.components import PepConfig, PolicyEnforcementPoint
from repro.core import HealthProber, discovering_dispatcher, register_pdp
from repro.domain import build_federation
from repro.simnet import FailureInjector, Network
from repro.wss import KeyStore
from repro.wsvc import ServiceRegistry
from repro.xacml import Policy, combining, deny_rule, permit_rule, subject_resource_action_target

PROBES = 40
PROBE_PERIOD = 0.5


def shared_policy():
    return Policy(
        policy_id="shared",
        rules=(
            permit_rule("alice", subject_resource_action_target(subject_id="alice")),
            deny_rule("rest"),
        ),
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def build(seed):
    network = Network(seed=seed)
    keystore = KeyStore(seed=seed)
    vo, _ = build_federation("vo", ["home", "partner"], network, keystore)
    home, partner = vo.domain("home"), vo.domain("partner")
    home.pap.publish(shared_policy())
    partner.pap.publish(shared_policy())
    return network, home, partner


def churn(network, injector, pdp_addresses):
    # Alternate crash windows over the PDPs so at least one is up at any
    # time, but the statically bound one is regularly down.
    t = network.now
    for round_index in range(4):
        for index, address in enumerate(pdp_addresses):
            start = t + round_index * 10.0 + index * 5.0 + 1.0
            injector.crash_for(address, at=start, duration=3.5)


def run_static(seed=10):
    network, home, partner = build(seed)
    pep = PolicyEnforcementPoint(
        "pep.static", network, domain="home", pdp_address=home.pdp.name,
        config=PepConfig(pdp_timeout=0.4),
    )
    injector = FailureInjector(network, seed=seed)
    churn(network, injector, [home.pdp.name, partner.pdp.name])
    ok = 0
    for _ in range(PROBES):
        network.run(until=network.now + PROBE_PERIOD)
        if pep.authorize_simple("alice", "res", "read").granted:
            ok += 1
    return ok


def run_discovery(seed=10):
    network, home, partner = build(seed)
    registry = ServiceRegistry()
    register_pdp(registry, home.pdp.name, "home")
    register_pdp(registry, partner.pdp.name, "partner")
    prober = HealthProber("prober", network, registry, period=0.4, probe_timeout=0.2)
    prober.start()
    pep = PolicyEnforcementPoint(
        "pep.discovering", network, domain="home", config=PepConfig(pdp_timeout=0.4)
    )
    pep.dispatcher = discovering_dispatcher(
        registry, home_domain="home", fallback_domains=("partner",)
    )
    injector = FailureInjector(network, seed=seed)
    churn(network, injector, [home.pdp.name, partner.pdp.name])
    ok = 0
    for _ in range(PROBES):
        network.run(until=network.now + PROBE_PERIOD)
        if pep.authorize_simple("alice", "res", "read").granted:
            ok += 1
    return ok, pep.dispatcher


def test_e10_static_vs_discovery(benchmark):
    static_ok = run_static()
    discovery_ok, dispatcher = run_discovery()

    experiment = Experiment(
        exp_id="E10",
        title="PDP location: static binding vs registry discovery under churn",
        paper_claim="static binding degrades when its PDP is down; "
        "discovery + health probing restores decision availability",
        columns=["binding", "successful_decisions", "availability", "fallbacks_used"],
    )
    experiment.add_row(
        "static PEP->PDP", f"{static_ok}/{PROBES}", round(static_ok / PROBES, 3), "-"
    )
    experiment.add_row(
        "registry discovery",
        f"{discovery_ok}/{PROBES}",
        round(discovery_ok / PROBES, 3),
        dispatcher.routing.passed_over,
    )
    experiment.note(
        "churn: alternating 3.5 s crash windows over both domains' PDPs"
    )
    experiment.show()

    # Shape: discovery beats static binding and actually used fallback.
    assert discovery_ok > static_ok
    assert dispatcher.routing.passed_over > 0
    # Static binding suffered real outages (otherwise the comparison is vacuous).
    assert static_ok < PROBES

    benchmark(lambda: dispatcher.select())
