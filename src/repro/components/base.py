"""Component base: network-attached services with RPC and identity.

Every authorisation component (PEP, PDP, PAP, PIP, capability service,
registry front-ends) is a :class:`Component`: a named endpoint on the
simulated network that registers operation handlers by message kind and
can issue synchronous RPCs to peers.

:meth:`Component.call` is synchronous *in simulated time*: the caller
drives the shared event loop until the reply lands or the deadline
passes.  A handler may itself issue nested calls (PDP → PIP during
evaluation) — deterministic because there is a single event queue, but
a handler that waits serves other queries re-entrantly meanwhile, which
ROADMAP direction 9 removes site by site.  Decision traffic no longer
uses it: a PEP's queries, like every fabric tier's, are sent on a
:class:`~repro.components.fabric.BatchWireCore` and their replies,
faults and deadlines handled as events; ``authorize`` is a send plus a
top-level wait.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..simnet.message import Message
from ..simnet.network import Network, Node
from ..wss.keys import KeyPair, KeyStore
from ..wss.pki import Certificate, TrustValidator

#: Default RPC deadline in simulated seconds.
DEFAULT_TIMEOUT = 2.0


class RpcTimeout(Exception):
    """The peer did not answer before the deadline (crash/partition)."""

    def __init__(self, caller: str, callee: str, kind: str, deadline: float) -> None:
        super().__init__(
            f"{caller} -> {callee} {kind!r}: no reply by t={deadline:.3f}"
        )
        self.callee = callee
        self.kind = kind


class RpcFault(Exception):
    """The peer answered with an application-level fault."""

    def __init__(self, code: str, reason: str) -> None:
        super().__init__(f"{code}: {reason}")
        self.code = code
        self.reason = reason


@dataclass(frozen=True)
class ComponentIdentity:
    """Key material and trust configuration of one component."""

    name: str
    keypair: KeyPair
    certificate: Certificate
    keystore: KeyStore
    validator: TrustValidator


Handler = Callable[[Message], Any]


class Component:
    """Base class for network-attached authorisation components.

    Args:
        name: unique component name; doubles as the network address.
        network: the shared simulated network.
        domain: owning administrative domain name ("" for global infra).
        identity: key material; None runs the component unauthenticated
            (used by tests and by experiments isolating protocol costs).
    """

    def __init__(
        self,
        name: str,
        network: Network,
        domain: str = "",
        identity: Optional[ComponentIdentity] = None,
    ) -> None:
        self.name = name
        self.network = network
        self.domain = domain
        self.identity = identity
        self.node: Node = network.node(name)
        self.node.on_message(self._dispatch)
        self._clock = network.clock
        self._handlers: dict[str, Handler] = {}
        self._pending: dict[int, list[Message]] = {}
        self._rpc_ids = itertools.count(1)
        # Liveness probe used by heartbeat monitors and health probers.
        self.on("ping", lambda message: "<Pong/>")

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.node.alive

    def crash(self) -> None:
        self.node.crash()

    def recover(self) -> None:
        self.node.recover()

    @property
    def now(self) -> float:
        return self._clock.now

    # -- server side ---------------------------------------------------------

    def on(self, kind: str, handler: Handler) -> None:
        """Register a handler for inbound messages of ``kind``.

        The handler's return value, if not None, is sent back as a reply
        of kind ``f"{kind}:response"``.  Raising :class:`RpcFault` sends a
        fault reply instead, and so does an :class:`RpcTimeout` from a
        call the handler made (code ``upstream-timeout``): a peer that is
        down is the caller's fault to report, not an exception for the
        event loop every component shares.
        """
        self._handlers[kind] = handler

    def _dispatch(self, message: Message) -> None:
        if message.reply_to is not None and message.reply_to in self._pending:
            self._pending[message.reply_to].append(message)
            return
        handler = self._handlers.get(message.kind)
        if handler is None:
            return  # unknown operation: drop, like an unbound SOAP action
        try:
            result = handler(message)
        except RpcFault as fault:
            self._reply_fault(message, fault)
            return
        except RpcTimeout as timeout:
            self._reply_fault(message, RpcFault("upstream-timeout", str(timeout)))
            return
        if result is not None:
            self.node.send(message.reply(kind=f"{message.kind}:response", payload=result))

    def _reply_fault(self, message: Message, fault: RpcFault) -> None:
        self.node.send(
            message.reply(
                kind=f"{message.kind}:fault",
                payload=f"<Fault code=\"{fault.code}\">{fault.reason}</Fault>",
            )
        )

    # -- client side -----------------------------------------------------------

    def call(
        self,
        recipient: str,
        kind: str,
        payload: Any,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> Message:
        """Synchronous RPC: send, then drive the loop until reply/deadline.

        Raises:
            RpcTimeout: no reply before the deadline.
            RpcFault: the peer replied with a fault.
        """
        request = Message(
            sender=self.name, recipient=recipient, kind=kind, payload=payload
        )
        slot: list[Message] = []
        self._pending[request.msg_id] = slot
        deadline = self.now + timeout
        try:
            self.node.send(request)
            arrived = self.network.loop.run_until(lambda: bool(slot), deadline)
            if not arrived:
                raise RpcTimeout(self.name, recipient, kind, deadline)
        finally:
            self._pending.pop(request.msg_id, None)
        reply = slot[0]
        if reply.kind.endswith(":fault"):
            code, reason = _parse_fault(str(reply.payload))
            raise RpcFault(code, reason)
        return reply

    def notify(self, recipient: str, kind: str, payload: Any) -> None:
        """One-way message; no reply expected."""
        self.node.send(
            Message(sender=self.name, recipient=recipient, kind=kind, payload=payload)
        )

    # -- envelope helpers --------------------------------------------------------

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"{type(self).__name__}({self.name}, {state})"


def _parse_fault(payload: str) -> tuple[str, str]:
    import re

    match = re.match(r"<Fault code=\"([^\"]*)\">(.*)</Fault>$", payload, re.DOTALL)
    if match is None:
        return ("unknown", payload)
    return (match.group(1), match.group(2))
