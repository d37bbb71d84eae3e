"""Messages exchanged over the simulated network.

A :class:`Message` carries an opaque payload plus explicitly-accounted
wire size.  Size accounting is central to the reproduction: the paper's
"Communication Performance" challenge (Section 3.2) argues that
authorisation traffic — especially WS-Security-protected XML — can dominate
the higher-level protocol, so every experiment reports message counts and
bytes as measured here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

#: Fixed per-message envelope overhead in bytes (HTTP + TCP/IP headers).
#: Chosen to match a typical HTTP/1.1 POST carrying a SOAP envelope.
TRANSPORT_OVERHEAD_BYTES = 320


def payload_size(payload: Any) -> int:
    """Estimate the wire size of a payload in bytes.

    Strings and bytes are measured exactly (UTF-8 for strings), which is the
    common case: SOAP envelopes, XACML contexts and SAML assertions are all
    serialized to XML text before being sent.  Other objects fall back to
    the length of their ``repr`` — an approximation only used by low-level
    tests, never by the benchmarks.
    """
    if payload is None:
        return 0
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    size = getattr(payload, "wire_size", None)
    if isinstance(size, int):
        return size
    return len(repr(payload).encode("utf-8"))


@dataclass
class Message:
    """A single simulated network message.

    Attributes:
        sender: address of the sending node.
        recipient: address of the destination node.
        kind: application-level message type tag, e.g. ``"xacml.request"``.
        payload: opaque content; its size is measured by ``payload_size``.
        size_bytes: total wire footprint (payload + transport overhead).
        msg_id: unique id within its world, for reply correlation; the
            :class:`~repro.simnet.network.Network` stamps it at transmit.
        reply_to: id of the request this message answers, if any.
        headers: small key/value metadata (e.g. signature markers).
    """

    sender: str
    recipient: str
    kind: str
    payload: Any = None
    msg_id: int = 0
    reply_to: Optional[int] = None
    headers: dict[str, Any] = field(default_factory=dict)
    size_bytes: int = -1

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            self.size_bytes = payload_size(self.payload) + TRANSPORT_OVERHEAD_BYTES

    def reply(self, kind: str, payload: Any, **headers: Any) -> "Message":
        """Build a response message addressed back to the sender."""
        return Message(
            sender=self.recipient,
            recipient=self.sender,
            kind=kind,
            payload=payload,
            reply_to=self.msg_id,
            headers=dict(headers),
        )

    def __repr__(self) -> str:
        return (
            f"Message(#{self.msg_id} {self.sender}->{self.recipient} "
            f"{self.kind} {self.size_bytes}B)"
        )
