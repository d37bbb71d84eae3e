"""Coherence agent: applies revocation state to a domain's caches.

The paper's staleness warning (§3.2) names the cache sites that can
serve a revoked world; the agent guards PEP decision caches, PDP policy
caches and the federated gateway's shared remote-decision cache.  A
:class:`CoherenceAgent` is one network endpoint per domain that keeps a
local view of the revocation registry — fed by whichever
:mod:`~repro.revocation.strategies` strategy it runs — and, on every
newly learned record, *selectively* invalidates exactly the entries the
record touches instead of flushing whole caches or waiting out TTLs.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..components.base import Component, ComponentIdentity
from ..components.cache import DecisionCache
from ..components.pdp import PolicyDecisionPoint
from ..components.pep import PolicyEnforcementPoint
from ..domain.trust import TrustKind
from ..simnet.message import Message
from ..simnet.network import Network
from ..xacml.context import RequestContext
from .authority import (
    CRL_ACTION,
    STATUS_ACTION,
    crl_request,
    parse_status,
    status_request,
)
from .records import (
    RevocationError,
    RevocationKind,
    RevocationRecord,
    parse_records,
    subject_access_target,
    trust_edge_of,
    verify_record,
)


class CoherenceAgent(Component):
    """Per-domain revocation view wired into local caches and verifiers.

    Args:
        authority_address: the :class:`RevocationAuthority` this agent
            queries (pull/online strategies) or receives pushes from.
        strategy: propagation strategy instance; attached on construction.
        authority_key: the authority's public key.  When given, pushed
            invalidations must carry a valid signature over their TBS
            bytes or they are dropped — without it a forged publication
            on the bus could deny arbitrary subjects and flush caches;
            the checks use the agent identity's key store.

    A crash fails the status checks on the wire at once (see
    :attr:`~repro.components.base.Component.caller_kinds`): the PEPs
    waiting on them are up, and deny.
    """

    caller_kinds = frozenset({STATUS_ACTION})

    def __init__(
        self,
        name: str,
        network: Network,
        authority_address: str,
        strategy,
        domain: str = "",
        identity: Optional[ComponentIdentity] = None,
        authority_key=None,
    ) -> None:
        super().__init__(name, network, domain, identity)
        self.authority_address = authority_address
        self.strategy = strategy
        self.authority_key = authority_key
        self.keystore = identity.keystore if identity is not None else None
        if authority_key is not None and self.keystore is None:
            raise ValueError(f"{name}: authority_key requires an identity")
        self._revoked: dict[tuple[str, str], RevocationRecord] = {}
        self.known_epoch = 0
        self.records_applied = 0
        self.invalidations_received = 0
        self.rejected_invalidations = 0
        self.decision_entries_invalidated = 0
        self.remote_entries_invalidated = 0
        self._peps: list[PolicyEnforcementPoint] = []
        self._pdps: list[PolicyDecisionPoint] = []
        self._gateways: list = []
        strategy.attach(self)

    # -- protection wiring -------------------------------------------------------

    def protect_pep(self, pep: PolicyEnforcementPoint) -> None:
        """Invalidate this PEP's decision cache on matching revocations,
        and consult this agent before the PEP serves any decision (cached
        or fresh), so revocations the agent already knows about deny
        immediately."""
        if pep.revocation_guard is not None:
            # Silent overwrite would leave the displaced agent's
            # revocations un-enforced at decision time.
            raise ValueError(f"PEP {pep.name!r} already has a revocation guard")
        self._peps.append(pep)
        pep.revocation_guard = self._pep_guard

    def protect_pdp(self, pdp: PolicyDecisionPoint) -> None:
        """Invalidate this PDP's policy cache on policy-level revocations."""
        self._pdps.append(pdp)

    def protect_gateway(self, gateway) -> None:
        """Invalidate a federated gateway's remote-decision cache.

        The gateway-tier cache (:attr:`~repro.components.federation.
        FederatedGateway.remote_cache`) holds decisions *another*
        domain made; within this domain it is the widest-blast-radius
        cache a stale revocation can hide in — one stale entry grants
        every PEP behind the gateway.  On every newly learned record
        the agent selectively drops the entries the record touches
        (same key discipline as PEP decision caches), so a revoked
        remote subject stops being served from the gateway tier within
        the strategy's coherence window.  A revoked trust edge whose
        truster is the gateway's domain also withdraws the gateway's
        peer or origin entry for the trusted domain.
        """
        self._gateways.append(gateway)

    # -- revocation state --------------------------------------------------------

    def is_revoked_locally(self, kind: RevocationKind, target: str) -> bool:
        return (kind.value, target) in self._revoked

    def apply(self, record: RevocationRecord) -> bool:
        """Fold one record into the local view; returns True if it was new.

        Application is idempotent (duplicate pushes and overlapping delta
        pulls are expected) and performs the selective cache coherence
        the record calls for.
        """
        if record.key in self._revoked:
            return False
        self._revoked[record.key] = record
        # Deliberately NOT advancing known_epoch here: the pull cursor
        # only moves on authoritative CRL replies (fetch_delta), so a
        # lost push leaves a gap the next delta pull still recovers.
        self.records_applied += 1
        # Neither a delegation nor a trust-edge record names a subject
        # that a selective key could match: a withdrawn delegation
        # changes which delegated policies reduce to an authority, and a
        # withdrawn trust edge voids whatever was decided on the trusted
        # domain's word.  So these records flush the caches and reload
        # PDP policy, and a trust edge also withdraws the protected
        # gateways' tables (_withdraw_trust).
        transitive = record.kind in (
            RevocationKind.DELEGATION,
            RevocationKind.TRUST_EDGE,
        )
        subject = record.subject_id

        def invalidate(cache: DecisionCache) -> int:
            if not transitive and subject:
                return cache.invalidate_for(subject)
            cache.invalidate_all()
            return 0

        for pep in self._peps:
            self.decision_entries_invalidated += invalidate(pep.decision_cache)
        for gateway in self._gateways:
            self.remote_entries_invalidated += invalidate(gateway.remote_cache)
        if transitive:
            for pdp in self._pdps:
                pdp.invalidate_policy_cache()
        if record.kind is RevocationKind.TRUST_EDGE:
            # After the flush: slots failed here may be resubmitted at
            # once, and must not meet a stale cached grant.
            self._withdraw_trust(record.target)
        return True

    def _withdraw_trust(self, target: str) -> None:
        """Apply a revoked edge ``(g, d, kind)`` to gateways of domain g.

        DECISION drops peer d: the forwarding side is the one that
        enforces d's decisions.  IDENTITY drops origin d: d's forwards
        carry its claims about its own subjects.
        """
        truster, trusted, kind = trust_edge_of(target)
        for gateway in self._gateways:
            if gateway.domain != truster:
                continue
            if kind == TrustKind.DECISION.value:
                gateway.withdraw_peer(trusted)
            elif kind == TrustKind.IDENTITY.value:
                gateway.withdraw_origin(trusted)

    # -- guards ------------------------------------------------------------------

    def _pep_guard(
        self, request: RequestContext, then: Callable[[Optional[str]], None]
    ) -> None:
        """A PEP's revocation guard: the strategy decides (an online
        one asks the authority first)."""
        subject = request.subject_id
        if not subject:
            then(None)
            return
        self.strategy.check(
            self,
            RevocationKind.ENTITLEMENT,
            subject_access_target(subject),
            lambda revoked: then(f"access for subject {subject!r} revoked" if revoked else None),
        )

    # -- transports used by strategies -------------------------------------------

    def handle_invalidation(self, message: Message) -> None:
        """Inbound push from the invalidation bus.

        Malformed or (when an authority key is configured) unsigned/
        forged records are dropped and counted, never applied.
        """
        self.invalidations_received += 1
        try:
            record = RevocationRecord.from_xml(str(message.payload))
        except RevocationError:
            self.rejected_invalidations += 1
            return None
        self._verify_and_apply(record)
        return None

    def handle_batch_invalidation(self, message: Message) -> None:
        """Inbound coalesced push: one message carrying N records.

        Each record is verified and applied individually, so one forged
        record smuggled into a batch is rejected without poisoning its
        genuine siblings.
        """
        self.invalidations_received += 1
        try:
            records, _ = parse_records(str(message.payload))
        except RevocationError:
            self.rejected_invalidations += 1
            return None
        for record in records:
            self._verify_and_apply(record)
        return None

    def _verify_and_apply(self, record: RevocationRecord) -> bool:
        if self.authority_key is not None and not verify_record(
            record, self.keystore, self.authority_key
        ):
            self.rejected_invalidations += 1
            return False
        return self.apply(record)

    def _ask_authority(
        self, kind: str, payload: str, parse: Callable, then: Callable, on_error: Callable
    ) -> None:
        """Ask the authority; ``then`` gets the parsed reply, ``on_error``
        the timeout, fault or malformed reply (a compromised or
        misconfigured endpoint must degrade the strategy, never crash
        the simulation)."""

        def answered(reply: Message) -> None:
            try:
                parsed = parse(str(reply.payload))
            except RevocationError as exc:
                on_error(exc)
                return
            then(parsed)

        self.ask(self.authority_address, kind, payload, answered, on_error)

    def fetch_delta(self, then: Callable[[int], None], on_error: Callable) -> None:
        """Pull every record after our epoch; ``then`` gets the newly
        applied count."""

        def apply_delta(delta: tuple[list[RevocationRecord], int]) -> None:
            records, epoch = delta
            applied = 0
            for record in records:
                if self.authority_key is not None and not verify_record(
                    record, self.keystore, self.authority_key
                ):
                    # Advance only past the contiguous verified prefix: the
                    # bad record (and what follows) is retried next poll,
                    # but the verified prefix is never refetched.
                    self.rejected_invalidations += 1
                    break
                if self.apply(record):
                    applied += 1
                self.known_epoch = max(self.known_epoch, record.epoch)
            else:
                self.known_epoch = max(self.known_epoch, epoch)
            then(applied)

        self._ask_authority(
            CRL_ACTION, crl_request(self.known_epoch), parse_records, apply_delta, on_error
        )

    def query_status(
        self, kind: RevocationKind, target: str, then: Callable[[bool], None], on_error: Callable
    ) -> None:
        """One OCSP-style online check against the authority; ``then``
        gets whether ``target`` is revoked."""
        self._ask_authority(
            STATUS_ACTION,
            status_request(kind, target),
            parse_status,
            lambda status: then(status[0]),
            on_error,
        )

    def __repr__(self) -> str:
        return (
            f"CoherenceAgent({self.name}, strategy={self.strategy.name}, "
            f"epoch={self.known_epoch}, records={len(self._revoked)})"
        )
