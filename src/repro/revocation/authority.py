"""Revocation authority: the network face of the unified registry.

Serves the two query-side propagation strategies and feeds the third:

* ``revocation.status`` — OCSP-style online status: "is this one
  (kind, target) revoked right now?"  Zero staleness, one round-trip
  per check.
* ``revocation.crl`` — CRL-style pull: "give me every record after
  epoch N" (a *delta* CRL; N=0 retrieves the full list).  Staleness
  bounded by the caller's poll interval.
* push — every new registry record is published on the
  :class:`~repro.revocation.bus.InvalidationBus`, one message per
  subscriber.  Staleness bounded by propagation latency.
"""

from __future__ import annotations

import re
from typing import Optional
from xml.sax.saxutils import quoteattr

from ..components.base import Component, ComponentIdentity, RpcFault
from ..simnet.message import Message
from ..simnet.network import Network
from .bus import InvalidationBus
from .records import (
    RevocationError,
    RevocationKind,
    parse_attrs,
    serialize_records,
)
from .registry import RevocationRegistry

STATUS_ACTION = "revocation.status"
CRL_ACTION = "revocation.crl"


class RevocationAuthority(Component):
    """Network-attached component answering revocation queries.

    Args:
        bus: when given, every new record is pushed to subscribers.
        push_window: when positive, new records are *coalesced*: instead
            of one bus publication per record, records issued within a
            window are buffered and flushed as one batched publication
            when the window closes.  Trades up to ``push_window`` extra
            staleness for an N-fold message saving under revocation
            bursts (the batched-invalidation rows of experiment E15).
    """

    def __init__(
        self,
        name: str,
        network: Network,
        domain: str = "",
        identity: Optional[ComponentIdentity] = None,
        bus: Optional[InvalidationBus] = None,
        push_window: float = 0.0,
    ) -> None:
        super().__init__(name, network, domain, identity)
        self.registry = RevocationRegistry(
            authority_name=name,
            keypair=identity.keypair if identity else None,
            clock=lambda: self.now,
        )
        self.bus = bus
        self.push_window = push_window
        self.status_queries = 0
        self.crl_requests = 0
        self.invalidations_pushed = 0
        self.push_flushes = 0
        self._push_buffer: list = []
        self._flush_scheduled = False
        self.registry.add_listener(self._on_revocation)
        self.on(STATUS_ACTION, self._handle_status)
        self.on(CRL_ACTION, self._handle_crl)

    # -- issue façade ------------------------------------------------------------

    def revoke(
        self,
        kind: RevocationKind,
        target: str,
        reason: str = "",
        subject_id: str = "",
    ):
        """Issue a revocation through the registry (push fires via listener)."""
        return self.registry.revoke(
            kind, target, reason=reason, subject_id=subject_id, at=self.now
        )

    def _on_revocation(self, record) -> None:
        if self.bus is None or not self.alive:
            return
        if self.push_window <= 0:
            self.invalidations_pushed += self.bus.publish(self.name, record)
            return
        self._push_buffer.append(record)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.network.schedule(self.push_window, self._flush_push_buffer)

    def _flush_push_buffer(self) -> None:
        """Publish everything buffered during one push window as a batch."""
        self._flush_scheduled = False
        records, self._push_buffer = self._push_buffer, []
        if not records or self.bus is None or not self.alive:
            return
        self.push_flushes += 1
        self.invalidations_pushed += self.bus.publish_batch(self.name, records)

    # -- RPC handlers ------------------------------------------------------------

    def _handle_status(self, message: Message) -> str:
        match = re.match(r"<StatusRequest ([^>]*)/>", str(message.payload))
        if match is None:
            raise RpcFault("revocation:bad-request", "not a StatusRequest")
        attrs = parse_attrs(match.group(1))
        if "kind" not in attrs or "target" not in attrs:
            raise RpcFault("revocation:bad-request", "not a StatusRequest")
        try:
            kind = RevocationKind(attrs["kind"])
        except ValueError as exc:
            raise RpcFault("revocation:bad-kind", str(exc)) from exc
        self.status_queries += 1
        revoked = self.registry.is_revoked(kind, attrs["target"])
        return (
            f'<StatusResponse revoked="{str(revoked).lower()}" '
            f'epoch="{self.registry.epoch}"/>'
        )

    def _handle_crl(self, message: Message) -> str:
        match = re.match(r'<CrlRequest since="(\d+)"/>', str(message.payload))
        if match is None:
            raise RpcFault("revocation:bad-request", "not a CrlRequest")
        self.crl_requests += 1
        records = self.registry.records_since(int(match.group(1)))
        return serialize_records(records, self.registry.epoch)


# -- client-side helpers (used by strategies) -----------------------------------

def status_request(kind: RevocationKind, target: str) -> str:
    return (
        f"<StatusRequest kind={quoteattr(kind.value)} "
        f"target={quoteattr(target)}/>"
    )


def parse_status(xml_text: str) -> tuple[bool, int]:
    """Parse a StatusResponse into (revoked, authority epoch)."""
    match = re.match(
        r'<StatusResponse revoked="(true|false)" epoch="(\d+)"/>', xml_text
    )
    if match is None:
        raise RevocationError(f"not a StatusResponse: {xml_text[:80]!r}")
    return match.group(1) == "true", int(match.group(2))


def crl_request(since_epoch: int) -> str:
    return f'<CrlRequest since="{since_epoch}"/>'
