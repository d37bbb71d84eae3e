"""Placement layer: ring ownership, partitions, rebalance accounting."""

import pytest

from repro.components.placement import (
    AttributePartition,
    HASH_FUNCTIONS,
    PlacementMap,
    PlacementSpec,
    stable_hash,
)
from repro.xacml.attributes import DataType, string
from repro.xacml.context import RequestContext

KEYS = [f"key-{index}" for index in range(400)]


def three_ring(**kwargs) -> PlacementMap:
    return PlacementMap(["pdp-0", "pdp-1", "pdp-2"], **kwargs)


class TestStableHash:
    def test_deterministic_per_function(self):
        for hash_name in HASH_FUNCTIONS:
            assert stable_hash("subj-7", hash_name) == stable_hash(
                "subj-7", hash_name
            )

    def test_functions_disagree(self):
        assert stable_hash("subj-7", "crc32") != stable_hash("subj-7", "sha1")

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError, match="unknown placement hash"):
            stable_hash("x", "md5")


class TestPlacementMap:
    def test_owner_is_stable_and_order_independent(self):
        forward = three_ring()
        backward = PlacementMap(["pdp-2", "pdp-1", "pdp-0"])
        for key in KEYS:
            assert forward.owner(key) == backward.owner(key)

    def test_every_replica_owns_a_fair_share(self):
        ring = three_ring()
        shares = [
            sum(ring.owner(key) == name for key in KEYS) / len(KEYS)
            for name in ring.replicas
        ]
        assert sum(shares) == pytest.approx(1.0)
        # Virtual nodes keep the imbalance bounded.
        assert min(shares) > 0.1
        assert max(shares) < 0.6

    def test_join_moves_only_a_minority_of_keys(self):
        ring = three_ring()
        before = {key: ring.owner(key) for key in KEYS}
        ring.add_replica("pdp-3")
        moved = [key for key in KEYS if ring.owner(key) != before[key]]
        # Consistent hashing: only keys the new replica claims move,
        # and they all move *to* it.
        assert 0 < len(moved) < len(KEYS) / 2
        assert all(ring.owner(key) == "pdp-3" for key in moved)

    def test_epoch_counts_ring_changes(self):
        ring = three_ring()
        assert ring.epoch == 0
        ring.add_replica("pdp-3")
        ring.add_replica("pdp-4")
        assert ring.epoch == 2

    def test_copy_is_independent(self):
        ring = three_ring()
        view = ring.copy()
        ring.add_replica("pdp-3")
        assert "pdp-3" in ring and "pdp-3" not in view
        assert view.epoch == ring.epoch - 1

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one replica"):
            PlacementMap([])
        with pytest.raises(ValueError, match="duplicate replica"):
            PlacementMap(["a", "a"])
        with pytest.raises(ValueError, match="unknown placement hash"):
            PlacementMap(["a"], hash_name="md5")
        ring = three_ring()
        with pytest.raises(ValueError, match="already placed"):
            ring.add_replica("pdp-0")


class TestPlacementSpec:
    def test_key_of_follows_shard_axis(self):
        request = RequestContext.simple("alice", "doc", "read")
        ring = three_ring()
        assert PlacementSpec("subject", ring).key_of(request) == "alice"
        assert PlacementSpec("resource", ring).key_of(request) == "doc"

    def test_owner_of_matches_ring(self):
        spec = PlacementSpec("subject", three_ring())
        request = RequestContext.simple("alice", "doc", "read")
        assert spec.owner_of(request) == spec.ring.owner("alice")

    def test_routing_view_lags_until_synced(self):
        spec = PlacementSpec("subject", three_ring())
        view = spec.routing_view()
        spec.ring.add_replica("pdp-3")
        assert view.ring.epoch != spec.ring.epoch
        assert "pdp-3" not in view.ring

    def test_validation(self):
        with pytest.raises(ValueError, match="shard_by"):
            PlacementSpec("action", three_ring())
        with pytest.raises(ValueError, match="PlacementMap"):
            PlacementSpec("subject", ["pdp-0"])


def resolver(key: str):
    return {"urn:test:tag": [string(f"tag-of-{key}")]}


def owned_keys(partition: AttributePartition, keys) -> list[str]:
    return [key for key in keys if partition.owns(key)]


class TestAttributePartition:
    def build(self):
        spec = PlacementSpec("subject", three_ring())
        partitions = {
            name: AttributePartition(name, spec, resolver)
            for name in spec.ring.replicas
        }
        return spec, partitions

    def test_owned_lookup_faults_in_and_retains(self):
        spec, partitions = self.build()
        key = owned_keys(partitions["pdp-0"], KEYS)[0]
        partition = partitions["pdp-0"]
        values = partition.lookup(key, "urn:test:tag", DataType.STRING)
        assert [value.value for value in values] == [f"tag-of-{key}"]
        assert partition.cardinality == 1
        assert partition.stats.faults == 1
        partition.lookup(key, "urn:test:tag", DataType.STRING)
        assert partition.stats.hits == 1
        assert partition.cardinality == 1

    def test_unowned_lookup_answers_without_retaining(self):
        spec, partitions = self.build()
        partition = partitions["pdp-0"]
        foreign = next(key for key in KEYS if not partition.owns(key))
        values = partition.lookup(foreign, "urn:test:tag", DataType.STRING)
        assert values, "misrouted lookups must still be answered"
        assert partition.cardinality == 0
        assert partition.stats.unowned_lookups == 1

    def test_lookup_filters_by_data_type(self):
        spec, partitions = self.build()
        partition = partitions["pdp-0"]
        key = owned_keys(partition, KEYS)[0]
        assert partition.lookup(key, "urn:test:tag", DataType.INTEGER) == []

    def test_fleet_cardinality_partitions_touched_keys(self):
        spec, partitions = self.build()
        for key in KEYS:
            owner = spec.ring.owner(key)
            partitions[owner].lookup(key, "urn:test:tag", DataType.STRING)
        total = sum(p.cardinality for p in partitions.values())
        assert total == len(KEYS)
        # Every replica holds a strict subset — the E19 state claim.
        assert all(p.cardinality < len(KEYS) for p in partitions.values())

    def test_rebalance_evicts_exactly_the_moved_range(self):
        spec, partitions = self.build()
        for key in KEYS:
            partitions[spec.ring.owner(key)].lookup(
                key, "urn:test:tag", DataType.STRING
            )
        spec.ring.add_replica("pdp-3")
        partitions["pdp-3"] = AttributePartition("pdp-3", spec, resolver)
        moved = sum(p.rebalance() for p in partitions.values())
        newly_owned = owned_keys(partitions["pdp-3"], KEYS)
        assert moved == len(newly_owned) > 0
        # Survivors hold exactly what they still own; the join target
        # repopulates on demand.
        for name, partition in partitions.items():
            assert all(partition.owns(key) for key in partition.keys())
        for key in newly_owned:
            partitions["pdp-3"].lookup(key, "urn:test:tag", DataType.STRING)
        total = sum(p.cardinality for p in partitions.values())
        assert total == len(KEYS)
