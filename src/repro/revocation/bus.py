"""Publish/subscribe invalidation bus over simnet topic routing.

The push strategy's transport: the revocation authority publishes each
new record on a network topic; every subscribed coherence agent receives
its own copy over its own link (latency, loss, partitions all apply —
a pushed invalidation can be *lost*, which is why the pull strategy
remains the safety net in dependability deployments).
"""

from __future__ import annotations

from typing import Sequence

from ..simnet.network import Network
from .records import RevocationRecord, serialize_records

#: Message kind carried by pushed invalidations.
INVALIDATION_KIND = "revocation.invalidate"
#: Message kind carried by coalesced (batched) pushed invalidations.
BATCH_INVALIDATION_KIND = "revocation.invalidate.batch"
#: The topic revocation traffic rides on.
INVALIDATION_TOPIC = "revocation"


class InvalidationBus:
    """A named topic on the simulated network carrying revocation records."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.publications = 0
        self.messages_pushed = 0
        self.batch_publications = 0
        self.records_batched = 0

    def subscribe(self, address: str) -> None:
        self.network.subscribe(INVALIDATION_TOPIC, address)

    def subscriber_count(self) -> int:
        return len(self.network.subscribers(INVALIDATION_TOPIC))

    def publish(self, sender: str, record: RevocationRecord) -> int:
        """Push one record to every subscriber; returns messages sent."""
        sent = self.network.publish(
            sender, INVALIDATION_TOPIC, INVALIDATION_KIND, record.to_xml()
        )
        self.publications += 1
        self.messages_pushed += sent
        return sent

    def publish_batch(
        self, sender: str, records: Sequence[RevocationRecord]
    ) -> int:
        """Push N records in *one* message per subscriber.

        The coalesced form of :meth:`publish`: a revocation burst of N
        records costs ``subscribers`` messages instead of
        ``N × subscribers``.  The message-overhead saving is what the
        batched-invalidation row of experiment E15 measures; the price
        is the push-window delay the publisher held the records for.
        """
        if not records:
            return 0
        epoch = max(record.epoch for record in records)
        sent = self.network.publish(
            sender,
            INVALIDATION_TOPIC,
            BATCH_INVALIDATION_KIND,
            serialize_records(list(records), epoch),
        )
        self.batch_publications += 1
        self.records_batched += len(records)
        self.messages_pushed += sent
        return sent

    def __repr__(self) -> str:
        return (
            f"InvalidationBus({INVALIDATION_TOPIC!r}, "
            f"subscribers={self.subscriber_count()})"
        )
