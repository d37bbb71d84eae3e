"""Component base: network-attached services with RPC and identity.

Every authorisation component (PEP, PDP, PAP, PIP, capability service,
registry front-ends) is a :class:`Component`: a named endpoint on the
simulated network that registers operation handlers by message kind and
asks its peers for replies.

:meth:`Component.ask` is the one way to wait for a reply: it sends one
message and runs an on-reply or on-error continuation from the event
that delivers the reply, the fault or the deadline.  ``Component`` is
the only place a reply is matched to its request, and a crash is
fail-stop: it drops the pending asks, so a crashed component's
continuations never run — except an ask it makes for a caller on
another component (a gateway's directory lookup, a PEP's status
check), which fails at once, so that caller settles.  A handler or
timer never waits: what it needs from a peer it asks for, a run of
peers it asks in turn (:meth:`Component.in_turn`), a periodic duty
runs in rounds (:meth:`Component.every`), and a reply that comes
later goes out through :meth:`Component.respond`.  :meth:`Component.call` is ``ask``
plus a driver wait — it runs the shared event loop until the ask
settles — for drivers and setup only: the loop refuses to nest, so a
handler that calls it raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Optional

from ..simnet.events import EventHandle
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

    #: Kinds of the asks this component makes for a caller on another
    #: component, which a crash of this one leaves up: a crash fails
    #: them at once, as timeouts, instead of dropping them.
    caller_kinds: frozenset[str] = frozenset()

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
        self.node.on_crash(self._crashed)
        self._clock = network.clock
        self._handlers: dict[str, Handler] = {}
        #: Request message id -> ``(request, on_reply, on_error,
        #: deadline)`` of the ask awaiting its reply.
        self._asks: dict[int, tuple[Message, Callable, Callable, EventHandle]] = {}
        #: One re-arm per :meth:`every`, run on a crash.
        self._rounds: list[Callable[[], None]] = []
        # Liveness probe used by heartbeat monitors and health probers.
        self.on("ping", lambda message: "<Pong/>")

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.node.alive

    def crash(self) -> None:
        self.node.crash()

    def _crashed(self) -> None:
        """Fail-stop: pending asks are volatile state; their deadlines
        are cancelled and their continuations never run — but the ask of
        one of :attr:`caller_kinds` fails now, as an event, as if its
        deadline had come."""
        loop = self.network.loop
        asks, self._asks = self._asks, {}
        for request, _, on_error, deadline in asks.values():
            loop.cancel(deadline)
            if request.kind in self.caller_kinds:
                error = RpcTimeout(self.name, request.recipient, request.kind, self.now)
                loop.schedule(0.0, partial(on_error, error))
        for rearm in self._rounds:
            rearm()

    def recover(self) -> None:
        self.node.recover()

    @property
    def now(self) -> float:
        return self._clock.now

    # -- server side ---------------------------------------------------------

    def on(self, kind: str, handler: Handler) -> None:
        """Register a handler for inbound messages of ``kind``.

        The handler's return value, if not None, is sent back as a reply
        of kind ``f"{kind}:response"``; raising :class:`RpcFault` sends a
        fault reply instead (see :meth:`respond`).  A handler that
        answers later — once an ask of its own settles — returns None
        and responds from the continuation.
        """
        self._handlers[kind] = handler

    def _dispatch(self, message: Message) -> None:
        if message.reply_to in self._asks:
            _, on_reply, on_error, deadline = self._asks.pop(message.reply_to)
            self.network.loop.cancel(deadline)
            if message.kind.endswith(":fault"):
                on_error(RpcFault(*_parse_fault(str(message.payload))))
            else:
                on_reply(message)
            return
        handler = self._handlers.get(message.kind)
        if handler is None:
            return  # unknown operation: drop, like an unbound SOAP action
        try:
            result = handler(message)
        except RpcFault as fault:
            result = fault
        if result is not None:
            self.respond(message, result)

    def respond(self, message: Message, result: Any) -> None:
        """Send ``result`` as the reply to ``message``: an
        :class:`RpcFault` as a fault (kind ``f"{kind}:fault"``), anything
        else as the response (``f"{kind}:response"``)."""
        if isinstance(result, RpcFault):
            kind = f"{message.kind}:fault"
            result = f"<Fault code=\"{result.code}\">{result.reason}</Fault>"
        else:
            kind = f"{message.kind}:response"
        self.node.send(message.reply(kind=kind, payload=result))

    # -- client side -----------------------------------------------------------

    def ask(
        self,
        recipient: str,
        kind: str,
        payload: Any,
        on_reply: Callable[[Message], None],
        on_error: Callable[[Exception], None],
        timeout: float = DEFAULT_TIMEOUT,
        headers: Optional[dict[str, Any]] = None,
    ) -> Message:
        """Send one request; settle it exactly once, as an event.

        ``on_reply`` receives the reply; ``on_error`` an
        :class:`RpcFault` when the peer answered with a fault, or an
        :class:`RpcTimeout` when the deadline, ``timeout`` seconds after
        the send, fires first.  The deadline is scheduled at the send,
        so a reply due at the very instant of the deadline is late; a
        late reply is dropped.  Returns the request sent.
        """
        request = Message(self.name, recipient, kind, payload, headers=headers or {})
        self.node.send(request)
        deadline = self.network.loop.schedule(timeout, partial(self._expire, request))
        self._asks[request.msg_id] = (request, on_reply, on_error, deadline)
        return request

    def forget(self, msg_id: int) -> None:
        """Drop one pending ask: neither continuation runs, and its
        reply, should one come, is dropped like a late one."""
        self.network.loop.cancel(self._asks.pop(msg_id)[3])

    def _expire(self, request: Message) -> None:
        _, _, on_error, _ = self._asks.pop(request.msg_id)
        on_error(RpcTimeout(self.name, request.recipient, request.kind, self.now))

    def in_turn(
        self,
        items: Iterable,
        step: Callable[[Any, Callable[[], None]], None],
        done: Callable[[], None],
    ) -> None:
        """Run ``step(item, settled)`` for each of ``items``, one at a time.

        A step settles by calling ``settled()`` — from an ask's
        continuation, or at once when it needs no peer — and the next
        item starts only then; ``done()`` runs once the last has
        settled.  A step that never settles ends the turn there (it
        found what it was after, or a crash dropped its ask).  Steps
        that settle at once are taken in a loop, not by recursion.
        """
        items = iter(items)
        inline = None  # while a step runs: whether it has settled yet

        def settled() -> None:
            nonlocal inline
            if inline is not None:  # inside the step below: the loop goes on
                inline = True
                return
            for item in items:
                inline = False
                step(item, settled)
                if not inline:
                    inline = None
                    return
            inline = None
            done()

        settled()

    def every(self, period: float, round_: Callable[[Callable[[], None]], None]) -> None:
        """Run ``round_(end)`` in rounds, the first ``period`` seconds
        from now and each next one ``period`` after the last calls
        ``end()``.

        A round due while this component is down runs nothing: the next
        is due a period later.  A crash ends the round in flight — its
        asks are dropped, so it never ends — and re-arms the timer, a
        period from the crash.
        """
        loop = self.network.loop

        def tick() -> None:
            if self.alive:
                round_(arm)
            else:
                arm()

        def arm() -> None:
            nonlocal timer
            loop.cancel(timer)  # still pending only when a crash re-arms
            timer = loop.schedule(period, tick)

        timer = loop.schedule(period, tick)
        self._rounds.append(arm)

    def call(
        self,
        recipient: str,
        kind: str,
        payload: Any,
    ) -> Message:
        """:meth:`ask`, then run the event loop until it settles (at the
        latest :data:`DEFAULT_TIMEOUT` after the send).

        For drivers and setup only: the loop refuses to nest, so a
        handler or timer that calls this raises ``RuntimeError``.

        Raises:
            RpcTimeout: no reply before the deadline.
            RpcFault: the peer replied with a fault.
        """
        settled: list = []
        deadline = self.now + DEFAULT_TIMEOUT
        self.ask(recipient, kind, payload, settled.append, settled.append)
        if not self.network.loop.run_until(settled.__len__, deadline):
            # This component crashed while it waited: the ask is gone.
            raise RpcTimeout(self.name, recipient, kind, deadline)
        if isinstance(settled[0], Exception):
            raise settled[0]
        return settled[0]

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
