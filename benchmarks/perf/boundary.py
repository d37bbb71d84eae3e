"""Boundary counts: what crossed each layer boundary, from public counters.

Read only through public attributes and the metrics registry, as deltas
over the measured phase of an *untraced* drive, so they repeat exactly
for a fixed seed and operation count.  Ratios are taken where the work
happens (envelopes at the PDP, hits at the cache that served them).
"""

from __future__ import annotations

from repro.xacml import EvaluationStats
from worlds import World

#: Requests the candidate-set figure is averaged over.
CANDIDATE_SAMPLE = 200


def raw_counters(world: World) -> dict[str, int]:
    """Sums of the public counters the boundary counts are built from."""
    peps, hubs, pdps, agents = world.peps, world.hubs, world.pdps, world.agents
    queues = [pep.coalescer for pep in peps if pep.coalescer is not None]
    return {
        "cache_hits": sum(pep.decision_cache.stats.hits for pep in peps),
        "cache_lookups": sum(pep.decision_cache.stats.lookups for pep in peps),
        "fail_safe": sum(pep.fail_safe_denials for pep in peps),
        "deduplicated": sum(queue.deduplicated for queue in queues)
        + sum(hub.cross_pep_deduplicated for hub in hubs),
        "failovers": sum(queue.failovers for queue in queues)
        + sum(hub.failovers for hub in hubs),
        "pdp_decisions": sum(pdp.decisions_made for pdp in pdps),
        # A batch endpoint serves one envelope per batch; the single
        # endpoints one per decision.
        "pdp_envelopes": sum(
            pdp.batch_queries_served
            + (pdp.decisions_made - pdp.batched_decisions)
            for pdp in pdps
        ),
        "policy_fetches": sum(pdp.policy_fetches for pdp in pdps),
        "revision_probes": sum(pdp.revision_probes for pdp in pdps),
        "remote_delivered": sum(
            getattr(hub, "remote_decisions_delivered", 0)
            + getattr(hub, "remote_cache_decisions_served", 0)
            for hub in hubs
        ),
        "remote_cache_hits": sum(
            getattr(hub, "remote_cache_hits", 0) for hub in hubs
        ),
        "requests_forwarded": sum(
            getattr(hub, "requests_forwarded", 0) for hub in hubs
        ),
        "forwards": sum(
            getattr(hub, "forwarded_batches_sent", 0) for hub in hubs
        ),
        "invalidations": sum(
            agent.decision_entries_invalidated + agent.remote_entries_invalidated
            for agent in agents
        ),
        "records_applied": sum(agent.records_applied for agent in agents),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def boundary_counts(
    world: World, before: dict, after: dict, completed: int, events: int, sample
) -> dict[str, float]:
    """The sixteen boundary counts of one measured phase."""
    delta = {key: after[key] - before[key] for key in after}
    store = world.pdps[0].engine.store
    sizes = []
    for request in sample[:: max(1, len(sample) // CANDIDATE_SAMPLE)]:
        stats = EvaluationStats()
        store.candidates(request, stats)
        sizes.append(stats.candidate_set_size)
    slots = delta["remote_cache_hits"] + delta["requests_forwarded"]
    return {
        "xacml.engine.candidate_set_mean": _ratio(sum(sizes), len(sizes)),
        "xacml.engine.store_elements": float(store.element_count),
        "components.pep.cache_hit_share": _ratio(
            delta["cache_hits"], delta["cache_lookups"]
        ),
        "components.pep.fail_safe_denials": float(delta["fail_safe"]),
        "components.fabric.requests_per_envelope": _ratio(
            delta["pdp_decisions"], delta["pdp_envelopes"]
        ),
        "components.fabric.dedup_share": _ratio(delta["deduplicated"], completed),
        "components.fabric.failovers": float(delta["failovers"]),
        "components.pdp.envelopes_per_decision": _ratio(
            delta["pdp_envelopes"], completed
        ),
        # Since the world was built, not since the drive began: the first
        # fetch of every PDP happens in the warm-up, and a cold PDP that
        # fetches twice is exactly what this count is here to show.
        "components.pdp.policy_fetches": float(after["policy_fetches"]),
        "components.pdp.revision_probes": float(after["revision_probes"]),
        "components.federation.remote_share": _ratio(
            delta["remote_delivered"], completed
        ),
        "components.federation.remote_cache_hit_share": _ratio(
            delta["remote_cache_hits"], slots
        ),
        "components.federation.forwards_per_decision": _ratio(
            delta["forwards"], completed
        ),
        "components.federation.invalidations": float(delta["invalidations"]),
        "revocation.records_applied": float(delta["records_applied"]),
        "simnet.events_per_decision": _ratio(events, completed),
    }
