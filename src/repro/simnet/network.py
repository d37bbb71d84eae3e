"""Simulated network: nodes, links and message delivery.

The network model is intentionally simple but sufficient for the paper's
communication-performance analysis:

* every node has an address and an inbox handler;
* links have a fixed propagation latency plus a bandwidth term so that
  *bigger messages take longer* (this is what makes WS-Security overhead
  measurable end-to-end, experiment E7);
* links can be partitioned and nodes crashed (experiments E10, E11);
* optional per-link loss probability, drawn from a seeded RNG for
  reproducibility.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from .clock import SimClock
from .events import EventLoop, TopicEvent
from .message import Message
from .metrics import MetricsRegistry
from ..observability.tracing import Tracer

#: Default one-way latency between two nodes in the same domain (seconds).
INTRA_DOMAIN_LATENCY = 0.0005
#: Default one-way latency between nodes in different domains (seconds).
INTER_DOMAIN_LATENCY = 0.020
#: Default link bandwidth in bytes/second (100 Mbit/s).
DEFAULT_BANDWIDTH = 12_500_000


class MessageHandler(Protocol):
    def __call__(self, message: Message) -> None: ...


@dataclass
class Link:
    """Directed connectivity descriptor between two addresses."""

    latency: float = INTER_DOMAIN_LATENCY
    bandwidth: float = DEFAULT_BANDWIDTH
    loss_probability: float = 0.0
    up: bool = True

    def transfer_time(self, size_bytes: int) -> float:
        return self.latency + size_bytes / self.bandwidth


class Node:
    """A network endpoint bound to an address.

    Subclasses (or composition users) register a handler that receives
    delivered messages.  A crashed node silently drops inbound traffic,
    matching fail-stop semantics, and tells its owner (:meth:`on_crash`)
    so volatile state dies with it however the crash was injected.
    """

    def __init__(self, address: str, network: "Network") -> None:
        self.address = address
        self.network = network
        self.alive = True
        self._handler: Optional[MessageHandler] = None
        self._crash_listener: Optional[Callable[[], None]] = None
        network._register(self)

    def on_message(self, handler: MessageHandler) -> None:
        self._handler = handler

    def on_crash(self, listener: Callable[[], None]) -> None:
        self._crash_listener = listener

    def send(self, message: Message) -> None:
        """Send a message; delivery is scheduled on the event loop."""
        self.network.transmit(message)

    def crash(self) -> None:
        self.alive = False
        if self._crash_listener is not None:
            self._crash_listener()

    def recover(self) -> None:
        self.alive = True

    def _deliver(self, message: Message) -> None:
        if not self.alive or self._handler is None:
            self.network.metrics.record_drop()
            return
        self._handler(message)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"Node({self.address}, {state})"


class Network:
    """The message fabric connecting all simulated components.

    A single :class:`Network` instance underpins one experiment run: it owns
    the event loop, the clock, the RNG, the metrics registry and the
    identifiers its components mint, making each run self-contained and
    reproducible from its seed, whatever else ran in the process.
    """

    def __init__(self, seed: int = 0) -> None:
        self.loop = EventLoop(SimClock())
        self.rng = random.Random(seed)
        self.metrics = MetricsRegistry()
        #: Decision-path tracer, off by default (``sample_rate`` 0).
        #: Set ``network.tracer.sample_rate = 1.0`` before a run to
        #: collect causal span trees; see ``repro.observability``.
        self.tracer = Tracer(now=lambda: self.loop.now)
        self._nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], Link] = {}
        self.default_link = Link()
        self._topics: dict[str, list[str]] = {}
        self.topic_log: list[TopicEvent] = []
        self._message_ids = itertools.count(1)
        self._minted: dict[str, int] = {}

    @property
    def clock(self) -> SimClock:
        return self.loop.clock

    @property
    def now(self) -> float:
        return self.loop.now

    def mint(self, prefix: str) -> str:
        """This world's next ``prefix-N`` identifier, ``N`` counting from
        1 per prefix: query (``xacmlq``), batch (``xacmlb``) and assertion
        (``saml``) ids, unique within the world that mints them."""
        count = self._minted[prefix] = self._minted.get(prefix, 0) + 1
        return f"{prefix}-{count}"

    # -- topology ----------------------------------------------------------

    def node(self, address: str) -> Node:
        """Create (or fetch) the node bound to ``address``."""
        existing = self._nodes.get(address)
        if existing is not None:
            return existing
        return Node(address, self)

    def _register(self, node: Node) -> None:
        if node.address in self._nodes:
            raise ValueError(f"address already registered: {node.address}")
        self._nodes[node.address] = node

    def get(self, address: str) -> Node:
        try:
            return self._nodes[address]
        except KeyError:
            raise KeyError(f"no node registered at {address!r}") from None

    def set_link(self, src: str, dst: str, link: Link) -> None:
        """Set the link both ways (each direction its own copy)."""
        self._links[(src, dst)] = link
        self._links[(dst, src)] = Link(
            latency=link.latency,
            bandwidth=link.bandwidth,
            loss_probability=link.loss_probability,
            up=link.up,
        )

    def link_between(self, src: str, dst: str) -> Link:
        return self._links.get((src, dst), self.default_link)

    def partition(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Cut connectivity between two addresses (network partition)."""
        link = self._links.get((src, dst))
        if link is None:
            link = Link(
                latency=self.default_link.latency,
                bandwidth=self.default_link.bandwidth,
            )
            self._links[(src, dst)] = link
        link.up = False
        if symmetric:
            self.partition(dst, src, symmetric=False)

    def heal(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Restore connectivity previously cut by :meth:`partition`."""
        link = self._links.get((src, dst))
        if link is not None:
            link.up = True
        if symmetric:
            self.heal(dst, src, symmetric=False)

    # -- topic routing -----------------------------------------------------

    def subscribe(self, topic: str, address: str) -> None:
        """Register ``address`` to receive publications on ``topic``."""
        subscribers = self._topics.setdefault(topic, [])
        if address not in subscribers:
            subscribers.append(address)

    def subscribers(self, topic: str) -> list[str]:
        return list(self._topics.get(topic, ()))

    def publish(
        self,
        sender: str,
        topic: str,
        kind: str,
        payload: object = None,
    ) -> int:
        """Fan a payload out to every subscriber of ``topic``.

        Each subscriber receives its own :class:`Message` subject to the
        sender→subscriber link (latency, loss, partitions), so a pushed
        invalidation pays N messages for N subscribers — exactly the
        overhead experiment E15 charges against the push strategy.

        Returns:
            Number of messages transmitted (the sender never receives its
            own publication).
        """
        recipients = [a for a in self._topics.get(topic, ()) if a != sender]
        for address in recipients:
            self.transmit(
                Message(
                    sender=sender,
                    recipient=address,
                    kind=kind,
                    payload=payload,
                    headers={"topic": topic},
                )
            )
        self.topic_log.append(
            TopicEvent(
                topic=topic,
                kind=kind,
                publisher=sender,
                published_at=self.now,
                subscriber_count=len(recipients),
                payload=payload,
            )
        )
        return len(recipients)

    # -- transmission ------------------------------------------------------

    def transmit(self, message: Message) -> None:
        """Stamp the message with this world's next id, then queue it for
        delivery subject to link state and loss."""
        message.msg_id = next(self._message_ids)
        self.metrics.record_send(message.kind, message.size_bytes)
        link = self.link_between(message.sender, message.recipient)
        if not link.up:
            self.metrics.record_drop()
            return
        if link.loss_probability > 0 and self.rng.random() < link.loss_probability:
            self.metrics.record_drop()
            return
        dest = self._nodes.get(message.recipient)
        if dest is None:
            self.metrics.record_drop()
            return
        delay = link.transfer_time(message.size_bytes)
        sent_at = self.now

        def deliver() -> None:
            self.metrics.record_delivery(message.size_bytes, self.now - sent_at)
            dest._deliver(message)

        self.loop.schedule(delay, deliver)

    def run(self, until: Optional[float] = None) -> int:
        """Drain the event loop; convenience passthrough."""
        return self.loop.run(until=until)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self.loop.schedule(delay, callback)
