"""The networked directory service and its TTL'd client caches."""

import pytest

from repro.domain import (
    DirectoryClient,
    DirectoryRecord,
    DirectoryService,
    LOOKUP_ACTION,
    ResourceDirectory,
)
from repro.simnet import Network
from repro.xacml import RequestContext


def build(seed=7, ttl=5.0, subscribe=True, clients=1):
    network = Network(seed=seed)
    directory = ResourceDirectory()
    directory.register("res.west", "west")
    directory.register("res.east", "east")
    service = DirectoryService("dirsvc", network, directory)
    built = [
        DirectoryClient(
            f"dircl-{index}",
            network,
            "dirsvc",
            ttl=ttl,
            subscribe=subscribe,
        )
        for index in range(clients)
    ]
    return network, service, (built[0] if clients == 1 else built)


def resolved(client, resource_id, authoritative=False):
    """Drive one ``domain_for`` to its answer, as a gateway's drain waits
    for it (a cache hit has answered before the loop would run)."""
    answers = []
    client.domain_for(resource_id, answers.append, authoritative)
    client.network.loop.run_until(answers.__len__, client.now + 10.0)
    (answer,) = answers
    return answer


def resolve_all(resolver, network, *requests):
    """One resolver call for ``requests``, driven to its answer."""
    answers = []
    resolver(list(requests), answers.append)
    network.loop.run_until(answers.__len__, network.now + 10.0)
    (domains,) = answers
    return domains


class TestDirectoryRecordWireFormat:
    def test_round_trip(self):
        record = DirectoryRecord(resource_id="res.a", domain="alpha", epoch=3)
        parsed = DirectoryRecord.from_xml(record.to_xml())
        assert parsed == record

    def test_unknown_domain_round_trips_as_none(self):
        record = DirectoryRecord(resource_id="res.a", domain=None, epoch=0)
        assert DirectoryRecord.from_xml(record.to_xml()).domain is None

    def test_hostile_resource_id_round_trips(self):
        hostile = 'res "<&> weird'
        record = DirectoryRecord(resource_id=hostile, domain="alpha", epoch=1)
        assert DirectoryRecord.from_xml(record.to_xml()).resource_id == hostile

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            DirectoryRecord.from_xml("<Nonsense/>")


class TestLookups:
    def test_lookup_resolves_and_caches(self):
        network, service, client = build()
        assert resolved(client, "res.west") == "west"
        assert service.lookups_served == 1
        # Second resolve is a cache hit: no further service traffic.
        assert resolved(client, "res.west") == "west"
        assert service.lookups_served == 1
        assert client.cache.stats.hits == 1

    def test_unknown_resource_cached_as_local(self):
        network, service, client = build()
        assert resolved(client, "res.limbo") is None
        assert resolved(client, "res.limbo") is None
        # The negative answer was cached too: one lookup, not two.
        assert service.lookups_served == 1

    def test_resource_less_request_resolves_local_without_traffic(self):
        network, service, client = build()
        answers = []
        client.resolver()([RequestContext()], answers.append)
        assert answers == [[None]]  # at once
        assert service.lookups_served == 0

    def test_ttl_expiry_forces_refresh(self):
        network, service, client = build(ttl=2.0)
        resolved(client, "res.west")
        network.run(until=network.now + 3.0)
        resolved(client, "res.west")
        assert service.lookups_served == 2

    def test_authoritative_resolver_always_asks_the_service(self):
        network, service, client = build()
        resolve = client.authoritative_resolver()
        request = RequestContext.simple("u", "res.east", "read")
        assert resolve_all(resolve, network, request, request) == ["east", "east"]
        assert service.lookups_served == 2
        assert client.authoritative_lookups == 2

    def test_unreachable_service_fails_safe_local(self):
        network, service, client = build()
        service.crash()
        assert resolved(client, "res.west") is None
        assert client.failed_lookups == 1

    def test_authoritative_lookup_fails_closed(self):
        """The serving-side re-check must never guess: treating a
        foreign request as local under a stale policy could mis-grant,
        so an unanswerable authoritative lookup answers with its
        error."""
        from repro.domain import DirectoryLookupError

        network, service, client = build()
        service.crash()
        request = RequestContext.simple("u", "res.west", "read")
        (answer,) = resolve_all(client.authoritative_resolver(), network, request)
        assert isinstance(answer, DirectoryLookupError)
        assert client.failed_lookups == 1
        # The plain (origin-side) resolver keeps the fail-safe-local
        # default.
        assert resolve_all(client.resolver(), network, request) == [None]

    def test_hostile_resource_id_survives_the_wire(self):
        network = Network(seed=11)
        directory = ResourceDirectory()
        hostile = 'res."<&>'
        directory.register(hostile, "west")
        DirectoryService("dirsvc", network, directory)
        client = DirectoryClient("dircl", network, "dirsvc")
        assert resolved(client, hostile) == "west"


class TestTransferPropagation:
    def test_transfer_patches_subscribed_caches(self):
        network, service, client = build()
        assert resolved(client, "res.west") == "west"
        service.transfer("res.west", "east")
        network.run(until=network.now + 1.0)
        # The push notice patched the entry: no re-lookup needed.
        assert resolved(client, "res.west") == "east"
        assert service.lookups_served == 1
        assert client.transfer_notices == 1
        assert client.known_epoch == 1

    def test_transfer_reaches_every_subscribed_client(self):
        network, service, clients = build(clients=3)
        for client in clients:
            assert resolved(client, "res.west") == "west"
        service.transfer("res.west", "east")
        network.run(until=network.now + 1.0)
        assert all(
            resolved(client, "res.west") == "east" for client in clients
        )
        assert service.notices_pushed == 3

    def test_unsubscribed_client_staleness_bounded_by_ttl(self):
        network, service, client = build(ttl=2.0, subscribe=False)
        assert resolved(client, "res.west") == "west"
        service.transfer("res.west", "east")
        network.run(until=network.now + 0.5)
        # Still inside the TTL: the stale answer is served (the priced
        # staleness window E18 measures).
        assert resolved(client, "res.west") == "west"
        network.run(until=network.now + 2.5)
        assert resolved(client, "res.west") == "east"

    def test_stale_notice_cannot_undo_newer_state(self):
        network, service, client = build()
        resolved(client, "res.west")
        service.transfer("res.west", "east")   # epoch 1
        service.transfer("res.west", "west")   # epoch 2
        network.run(until=network.now + 1.0)
        assert client.known_epoch == 2
        assert resolved(client, "res.west") == "west"
        # Replay the epoch-1 notice out of order: it must be ignored.
        from repro.domain import TRANSFER_KIND
        from repro.simnet import Message

        client._handle_transfer(
            Message(
                sender="dirsvc",
                recipient=client.name,
                kind=TRANSFER_KIND,
                payload=DirectoryRecord(
                    resource_id="res.west", domain="east", epoch=1
                ).to_xml(tag="DirectoryTransfer"),
            )
        )
        assert resolved(client, "res.west") == "west"

    def test_notice_applies_even_when_epoch_already_seen_via_lookup(self):
        """The epoch is directory-global: a lookup reply for *another*
        resource can carry the epoch of a transfer notice still in
        flight.  The notice must still patch its own resource — a
        global high-water mark would drop it and leave the entry stale
        for the whole TTL."""
        network, service, client = build()
        assert resolved(client, "res.west") == "west"
        service.transfer("res.west", "east")  # notice now in flight
        # Before it arrives, a lookup of another resource reports the
        # service's current (post-transfer) epoch.
        assert resolved(client, "res.east") == "east"
        assert client.known_epoch == 1
        network.run(until=network.now + 1.0)  # notice lands
        # The patch was applied despite known_epoch already being 1.
        assert resolved(client, "res.west") == "east"
        assert service.lookups_served == 2  # no re-lookup was needed

    def test_transfer_of_unknown_resource_raises_and_publishes_nothing(self):
        network, service, client = build()
        with pytest.raises(KeyError):
            service.transfer("res.typo", "east")
        assert service.transfers_published == 0

    def test_same_domain_transfer_publishes_nothing(self):
        network, service, client = build()
        service.transfer("res.west", "west")
        assert service.transfers_published == 0
        assert service.epoch == 0


class TestLookupTraffic:
    def test_lookup_messages_ride_the_simulated_network(self):
        network, service, client = build()
        resolved(client, "res.west")
        assert network.metrics.sent_by_kind[LOOKUP_ACTION] == 1
        assert network.metrics.sent_by_kind[f"{LOOKUP_ACTION}:response"] == 1
