"""Trust negotiation: establishing trust between strangers.

For "highly dynamic multi-domain computing environments [where] neither
identity- nor capability-based approaches ... provide required
functionality", the paper (Section 3.1) describes *trust negotiation*: "a
bilateral and iterative exchange of policies and credentials to
incrementally establish trust", citing Winsborough et al. and the Traust
authorisation service of Lee et al.

The model here follows the standard automated-trust-negotiation (ATN)
formulation:

* each party holds **credentials**, each guarded by a **disclosure
  policy** — a set of credential types the *other* party must have shown
  first (empty set = freely disclosable);
* the resource itself is guarded by the provider's **access policy**;
* negotiation proceeds in rounds; in each round a party discloses every
  credential whose guard is satisfied by what it has seen so far;
* success when the access policy is satisfied; failure at a fixpoint
  (no new disclosures possible).

The :class:`TraustServer` wraps a negotiation endpoint as a network
component that converts a successful negotiation into a short-lived
capability token, exactly the bridge role Traust plays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..components.base import Component, ComponentIdentity, RpcFault
from ..saml.assertions import (
    Assertion,
    AttributeStatement,
    SignedAssertion,
    sign_assertion,
)
from ..simnet.message import Message
from ..simnet.network import Network

#: Safety bound on negotiation rounds (a fixpoint is reached far earlier).
MAX_ROUNDS = 32


@dataclass(frozen=True)
class Credential:
    """A typed credential, e.g. ``employee-badge`` issued by ``acme``."""

    credential_type: str
    issuer: str
    subject_id: str

    def describe(self) -> str:
        return f"{self.credential_type}@{self.issuer}"


@dataclass(frozen=True)
class DisclosurePolicy:
    """Guard on a credential: which peer credential types unlock it."""

    credential_type: str
    requires: frozenset[str] = frozenset()

    def unlocked_by(self, seen_types: set[str]) -> bool:
        return self.requires <= seen_types


@dataclass
class NegotiationParty:
    """One side of a negotiation: credentials plus disclosure guards."""

    name: str
    credentials: list[Credential] = field(default_factory=list)
    disclosure_policies: dict[str, DisclosurePolicy] = field(default_factory=dict)

    def add_credential(
        self, credential: Credential, requires: frozenset[str] = frozenset()
    ) -> None:
        self.credentials.append(credential)
        self.disclosure_policies[credential.credential_type] = DisclosurePolicy(
            credential_type=credential.credential_type, requires=requires
        )

    def disclosable(self, seen_types: set[str], already: set[str]) -> list[Credential]:
        out = []
        for credential in self.credentials:
            if credential.credential_type in already:
                continue
            policy = self.disclosure_policies.get(credential.credential_type)
            if policy is None or policy.unlocked_by(seen_types):
                out.append(credential)
        return out


@dataclass
class NegotiationOutcome:
    success: bool
    rounds: int
    messages: int
    disclosed_by_requester: list[Credential] = field(default_factory=list)
    disclosed_by_provider: list[Credential] = field(default_factory=list)
    reason: str = ""


def negotiate(
    requester: NegotiationParty,
    provider: NegotiationParty,
    access_policy: frozenset[str],
) -> NegotiationOutcome:
    """Run an eager bilateral trust negotiation.

    Args:
        access_policy: credential types the requester must disclose for
            the provider to grant access.

    The eager strategy discloses everything currently unlocked each round
    — the baseline strategy in the ATN literature; it terminates at a
    fixpoint and finds success whenever success is reachable.
    """
    requester_shown: set[str] = set()
    provider_shown: set[str] = set()
    outcome = NegotiationOutcome(success=False, rounds=0, messages=0)
    for round_number in range(1, MAX_ROUNDS + 1):
        outcome.rounds = round_number
        progressed = False
        # Requester discloses first (it wants something), then provider.
        newly_requester = requester.disclosable(provider_shown, requester_shown)
        if newly_requester:
            progressed = True
            outcome.messages += 1
            for credential in newly_requester:
                requester_shown.add(credential.credential_type)
                outcome.disclosed_by_requester.append(credential)
        if access_policy <= requester_shown:
            outcome.success = True
            outcome.reason = "access policy satisfied"
            return outcome
        newly_provider = provider.disclosable(requester_shown, provider_shown)
        if newly_provider:
            progressed = True
            outcome.messages += 1
            for credential in newly_provider:
                provider_shown.add(credential.credential_type)
                outcome.disclosed_by_provider.append(credential)
        if not progressed:
            outcome.reason = "fixpoint: no further disclosures possible"
            return outcome
    outcome.reason = f"round limit {MAX_ROUNDS} reached"
    return outcome


class TraustServer(Component):
    """Traust-style negotiation endpoint minting capability tokens.

    Operation ``traust.negotiate``: the payload names the requester party
    (registered beforehand, standing in for the interactive protocol) and
    the resource scope; on success the server issues a short-lived signed
    assertion granting the negotiated scope.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        domain: str,
        identity: ComponentIdentity,
        token_lifetime: float = 120.0,
    ) -> None:
        super().__init__(name, network, domain, identity)
        self.token_lifetime = token_lifetime
        self.provider_party = NegotiationParty(name=name)
        self._access_policies: dict[str, frozenset[str]] = {}
        self._known_parties: dict[str, NegotiationParty] = {}
        self.negotiations = 0
        self.successes = 0
        self.on("traust.negotiate", self._handle_negotiate)

    def protect_resource(self, resource_id: str, required: frozenset[str]) -> None:
        self._access_policies[resource_id] = required

    def register_party(self, party: NegotiationParty) -> None:
        self._known_parties[party.name] = party

    def negotiate_for(
        self, party_name: str, resource_id: str
    ) -> tuple[NegotiationOutcome, Optional[SignedAssertion]]:
        party = self._known_parties.get(party_name)
        if party is None:
            raise RpcFault("traust:unknown-party", f"{party_name!r} not registered")
        access_policy = self._access_policies.get(resource_id)
        if access_policy is None:
            raise RpcFault(
                "traust:unknown-resource", f"{resource_id!r} not protected here"
            )
        self.negotiations += 1
        outcome = negotiate(party, self.provider_party, access_policy)
        if not outcome.success:
            return outcome, None
        self.successes += 1
        assertion = Assertion(
            issuer=self.identity.name,
            subject_id=party_name,
            issue_instant=self.now,
            not_before=self.now,
            not_on_or_after=self.now + self.token_lifetime,
            statements=(
                AttributeStatement(
                    attributes=(
                        ("urn:repro:traust:scope", resource_id),
                        *(
                            ("urn:repro:traust:disclosed", c.describe())
                            for c in outcome.disclosed_by_requester
                        ),
                    )
                ),
            ),
            assertion_id=self.network.mint("saml"),
        )
        signed = sign_assertion(
            assertion, self.identity.keypair, self.identity.certificate
        )
        return outcome, signed

    def _handle_negotiate(self, message: Message) -> str:
        import re

        match = re.match(
            r'<TraustRequest party="([^"]*)" resource="([^"]*)"/>$',
            str(message.payload),
        )
        if match is None:
            raise RpcFault("traust:bad-request", "malformed negotiation request")
        outcome, token = self.negotiate_for(match.group(1), match.group(2))
        token_xml = token.to_xml() if token is not None else ""
        return (
            f'<TraustResponse success="{str(outcome.success).lower()}" '
            f'rounds="{outcome.rounds}" messages="{outcome.messages}">'
            f"{token_xml}</TraustResponse>"
        )
