"""Policy Administration Point: the policy repository and its interface.

"The PAP components provide administrators the ability to insert policies
into the authorisation system" (paper §2.2).  This PAP stores versioned
policy elements, serves retrieval queries from PDPs (the remote fetches
that caching and syndication — E5/E6 — exist to reduce) and accepts
publish/withdraw operations, optionally guarded by an authorisation hook
so the access control system protects itself with its own machinery
(paper §3.2, "Security of Access Control Systems").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

from ..simnet.message import Message
from ..simnet.network import Network
from ..xacml.parser import parse_policy
from ..xacml.policy import Policy, PolicySet, child_identifier
from ..xacml.serializer import serialize_policy
from ..xacml.validation import is_deployable
from .base import Component, ComponentIdentity, RpcFault

PolicyElement = Union[Policy, PolicySet]

#: Guard callback: (operation, requester, policy_id) -> allowed?
AdminGuard = Callable[[str, str, str], bool]


@dataclass
class RepositoryEntry:
    element: PolicyElement
    version: int
    published_at: float
    publisher: str = ""


class PolicyRepository:
    """Versioned store of policy elements.

    Every mutation bumps a global revision counter; PDP policy caches use
    the revision to detect staleness cheaply.
    """

    def __init__(self) -> None:
        self._entries: dict[str, RepositoryEntry] = {}
        self.revision = 0

    def publish(
        self, element: PolicyElement, at: float = 0.0, publisher: str = ""
    ) -> int:
        identifier = child_identifier(element)
        self.revision += 1
        previous = self._entries.get(identifier)
        version = previous.version + 1 if previous else 1
        self._entries[identifier] = RepositoryEntry(
            element=element, version=version, published_at=at, publisher=publisher
        )
        return version

    def withdraw(self, identifier: str) -> bool:
        if identifier in self._entries:
            del self._entries[identifier]
            self.revision += 1
            return True
        return False

    def get(self, identifier: str) -> Optional[PolicyElement]:
        entry = self._entries.get(identifier)
        return entry.element if entry else None

    def all_elements(self) -> list[PolicyElement]:
        return [entry.element for entry in self._entries.values()]

    def identifiers(self) -> list[str]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, identifier: str) -> bool:
        return identifier in self._entries


def serialize_bundle(elements: list[PolicyElement], revision: int) -> str:
    inner = "".join(serialize_policy(element) for element in elements)
    return f'<PolicyBundle revision="{revision}">{inner}</PolicyBundle>'


def parse_bundle(xml_text: str) -> tuple[list[PolicyElement], int]:
    match = re.match(
        r'<PolicyBundle revision="(\d+)">(.*)</PolicyBundle>$', xml_text, re.DOTALL
    )
    if match is None:
        raise ValueError("not a PolicyBundle")
    revision = int(match.group(1))
    inner = match.group(2)
    elements: list[PolicyElement] = []
    # Split top-level <Policy>/<PolicySet> elements with a nesting-aware scan.
    position = 0
    while position < len(inner):
        open_match = re.match(r"<(Policy|PolicySet)[ >]", inner[position:])
        if open_match is None:
            break
        tag = open_match.group(1)
        depth = 0
        cursor = position
        token = re.compile(f"<{tag}[ >]|</{tag}>")
        while True:
            next_token = token.search(inner, cursor)
            if next_token is None:
                raise ValueError(f"unbalanced <{tag}> in bundle")
            if next_token.group(0).startswith(f"</{tag}"):
                depth -= 1
            else:
                depth += 1
            cursor = next_token.end()
            if next_token.group(0).startswith(f"</{tag}") and depth == 0:
                break
        # PolicySet can contain Policy; scanning for the *same* tag keeps
        # the depth bookkeeping correct because inner Policies inside a
        # PolicySet only match when tag == "Policy".
        end = inner.find(">", cursor - 1) + 1 if inner[cursor - 1] != ">" else cursor
        elements.append(parse_policy(inner[position:end]))
        position = end
    return elements, revision


class PolicyAdministrationPoint(Component):
    """Network-attached PAP.

    Operations (message kinds):

    * ``pap.retrieve`` — return all stored elements as a PolicyBundle;
    * ``pap.revision`` — return just the revision counter (cheap
      freshness probe for PDP policy caches);
    * ``pap.publish`` — store a policy (validated first);
    * ``pap.withdraw`` — remove a policy by id.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        domain: str = "",
        identity: Optional[ComponentIdentity] = None,
        guard: Optional[AdminGuard] = None,
        validate_on_publish: bool = True,
    ) -> None:
        super().__init__(name, network, domain, identity)
        self.repository = PolicyRepository()
        self.guard = guard
        self.validate_on_publish = validate_on_publish
        self.retrievals_served = 0
        #: Addresses notified on every policy change (paper §3.2: caching
        #: "reduces the flexibility of revoking old access control rules";
        #: invalidation push is the standard mitigation beyond TTLs).
        self._change_subscribers: list[str] = []
        self.invalidations_sent = 0
        self.on("pap.retrieve", self._handle_retrieve)
        self.on("pap.revision", self._handle_revision)
        self.on("pap.publish", self._handle_publish)
        self.on("pap.withdraw", self._handle_withdraw)
        self.on("pap.subscribe", self._handle_subscribe)

    # -- local API (used by in-domain administrators) ---------------------------

    def publish(self, element: PolicyElement, publisher: str = "local-admin") -> int:
        self._check_guard("publish", publisher, child_identifier(element))
        if self.validate_on_publish and not is_deployable(element):
            raise RpcFault(
                "pap:invalid-policy",
                f"policy {child_identifier(element)!r} failed validation",
            )
        version = self.repository.publish(element, at=self.now, publisher=publisher)
        self._notify_change(child_identifier(element))
        return version

    def withdraw(self, identifier: str, requester: str = "local-admin") -> bool:
        self._check_guard("withdraw", requester, identifier)
        removed = self.repository.withdraw(identifier)
        if removed:
            self._notify_change(identifier)
        return removed

    # -- change notification -----------------------------------------------------

    def subscribe_changes(self, address: str) -> None:
        """Register a component for policy-change notifications."""
        if address not in self._change_subscribers:
            self._change_subscribers.append(address)

    def _notify_change(self, policy_id: str) -> None:
        payload = (
            f'<PolicyChanged policyId="{policy_id}" '
            f'revision="{self.repository.revision}"/>'
        )
        for subscriber in self._change_subscribers:
            self.invalidations_sent += 1
            self.notify(subscriber, "pap.changed", payload)

    def _handle_subscribe(self, message: Message) -> str:
        self.subscribe_changes(message.sender)
        return "<Ack/>"

    def _check_guard(self, operation: str, requester: str, policy_id: str) -> None:
        if self.guard is not None and not self.guard(operation, requester, policy_id):
            raise RpcFault(
                "pap:unauthorised",
                f"{requester!r} may not {operation} {policy_id!r}",
            )

    # -- message handlers ---------------------------------------------------------

    def _handle_retrieve(self, message: Message) -> str:
        self.retrievals_served += 1
        return serialize_bundle(
            self.repository.all_elements(), self.repository.revision
        )

    def _handle_revision(self, message: Message) -> str:
        return f'<PapRevision value="{self.repository.revision}"/>'

    def _handle_publish(self, message: Message) -> str:
        element = parse_policy(str(message.payload))
        version = self.publish(element, publisher=message.sender)
        return f'<PapAck policyId="{child_identifier(element)}" version="{version}"/>'

    def _handle_withdraw(self, message: Message) -> str:
        match = re.match(r'<PapWithdraw policyId="([^"]*)"/>$', str(message.payload))
        if match is None:
            raise RpcFault("pap:bad-request", "malformed withdraw")
        removed = self.withdraw(match.group(1), requester=message.sender)
        return f'<PapAck policyId="{match.group(1)}" removed="{str(removed).lower()}"/>'


def parse_revision(xml_text: str) -> int:
    match = re.match(r'<PapRevision value="(\d+)"/>$', xml_text)
    if match is None:
        raise ValueError("not a PapRevision")
    return int(match.group(1))


def parse_change_notice(xml_text: str) -> Optional[int]:
    """The revision a ``pap.changed`` notice announces, None if malformed."""
    match = re.match(
        r'<PolicyChanged policyId="[^"]*" revision="(\d+)"/>$', xml_text
    )
    return None if match is None else int(match.group(1))
