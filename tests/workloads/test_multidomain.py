"""Multi-domain closed-loop driver and remote-fraction request mixes."""

import pytest

from repro.components import (
    DecisionDispatcher,
    FederatedGateway,
    PepConfig,
    PolicyAdministrationPoint,
    PolicyDecisionPoint,
    PolicyEnforcementPoint,
)
from repro.simnet import Network
from repro.workloads import (
    drive_closed_loop,
    federated_resource_id,
    multi_domain_request_mix,
)
from repro.xacml import (
    Policy,
    combining,
    permit_rule,
)


def governing_of(request) -> str:
    # res.<domain>.<index>
    return request.resource_id.split(".")[1]


class TestRequestMix:
    def test_remote_fraction_is_respected(self):
        requests = multi_domain_request_mix(
            "a", ["a", "b", "c"], 600, remote_fraction=0.5, seed=7
        )
        assert len(requests) == 600
        remote = sum(1 for r in requests if governing_of(r) != "a")
        assert 0.4 < remote / 600 < 0.6
        assert {governing_of(r) for r in requests} <= {"a", "b", "c"}

    def test_fraction_zero_is_all_local(self):
        requests = multi_domain_request_mix(
            "a", ["a", "b"], 100, remote_fraction=0.0, seed=3
        )
        assert all(governing_of(r) == "a" for r in requests)

    def test_fraction_one_is_all_remote(self):
        requests = multi_domain_request_mix(
            "a", ["a", "b"], 100, remote_fraction=1.0, seed=3
        )
        assert all(governing_of(r) == "b" for r in requests)

    def test_validation(self):
        with pytest.raises(ValueError, match="remote_fraction"):
            multi_domain_request_mix("a", ["a", "b"], 10, remote_fraction=1.5)
        with pytest.raises(ValueError, match="at least one domain"):
            multi_domain_request_mix("a", ["a"], 10, remote_fraction=0.5)


def build_mini_federation():
    """Two domains, one PEP each, everything permitted (read)."""
    network = Network(seed=29)
    names = ["da", "db"]
    hubs = {}
    peps_by_domain = {}
    for name in names:
        pap = PolicyAdministrationPoint(f"pap.{name}", network, domain=name)
        pap.publish(
            Policy(
                policy_id=f"{name}-allow",
                rules=(permit_rule("all"),),
                rule_combining=combining.RULE_FIRST_APPLICABLE,
            )
        )
        PolicyDecisionPoint(
            f"pdp.{name}", network, domain=name, pap_address=f"pap.{name}"
        )
        hubs[name] = FederatedGateway(
            f"gw.{name}",
            network,
            DecisionDispatcher([f"pdp.{name}"]),
            domain=name,
            resolve_domain=lambda request: request.resource_id.split(".")[1],
            max_batch=8,
            max_delay=0.001,
        )
        pep = PolicyEnforcementPoint(
            f"pep.{name}",
            network,
            domain=name,
            config=PepConfig(decision_cache_ttl=0.0),
        )
        pep.enable_batching(max_batch=4, max_delay=0.001, gateway=hubs[name])
        peps_by_domain[name] = [pep]
    for origin in names:
        for target in names:
            if origin != target:
                hubs[origin].add_peer(target, hubs[target].name)
                hubs[target].allow_origin(origin, hubs[origin].name)
    return network, peps_by_domain, hubs


class TestFederatedDriver:
    def test_run_groups_results_by_domain(self):
        network, peps_by_domain, hubs = build_mini_federation()
        names = sorted(peps_by_domain)
        peps = [peps_by_domain[name][0] for name in names]
        requests = [
            multi_domain_request_mix(
                name, names, 20, remote_fraction=0.5, seed=11 + i
            )
            for i, name in enumerate(names)
        ]
        stats = drive_closed_loop(peps, requests, concurrency=4, groups=names)
        assert stats.fleet.completed == 40
        assert [share.name for share in stats.per_group] == names
        assert sum(s.completed for s in stats.per_group) == 40
        assert sum(s.granted for s in stats.per_group) == stats.fleet.granted
        assert stats.group("da").completed == 20
        assert stats.group("da").per_pep[0].name == "pep.da"
        assert stats.group("da").worst_pep_p95 >= 0.0
        # Remote halves actually crossed the federation.
        assert sum(hub.forwarded_batches_sent for hub in hubs.values()) > 0
        with pytest.raises(KeyError):
            stats.group("nope")

    def test_domain_mismatch_rejected(self):
        network, peps_by_domain, hubs = build_mini_federation()
        peps = [peps_by_domain[name][0] for name in sorted(peps_by_domain)]
        with pytest.raises(ValueError, match="group labels"):
            drive_closed_loop(peps, [[], []], concurrency=1, groups=["da"])
        with pytest.raises(ValueError, match="request sequences"):
            drive_closed_loop(
                peps, [[]], concurrency=1, groups=["da", "db"]
            )

    def test_resource_naming_helper(self):
        assert federated_resource_id("lab", 3) == "res.lab.3"
