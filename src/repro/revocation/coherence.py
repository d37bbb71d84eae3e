"""Coherence agent: applies revocation state to a domain's caches.

The paper's staleness warning (§3.2) names three cache sites that can
serve a revoked world: PEP decision caches, PDP policy caches, and
relying-party capability-token validation; the gateway tier adds
a fourth — the federated gateway's shared remote-decision cache.  A
:class:`CoherenceAgent` is one network endpoint per domain that keeps a
local view of the revocation registry — fed by whichever
:mod:`~repro.revocation.strategies` strategy it runs — and, on every
newly learned record, *selectively* invalidates exactly the entries the
record touches instead of flushing whole caches or waiting out TTLs.
"""

from __future__ import annotations

from typing import Optional

from ..components.base import Component, ComponentIdentity
from ..components.cache import DecisionCache
from ..components.pdp import PolicyDecisionPoint
from ..components.pep import PolicyEnforcementPoint
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
    capability_target,
    parse_records,
    subject_access_target,
    subject_capability_target,
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
            on the bus could deny arbitrary subjects and flush caches.
        keystore: key store used for signature checks; defaults to the
            agent identity's store when an identity is configured.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        authority_address: str,
        strategy,
        domain: str = "",
        identity: Optional[ComponentIdentity] = None,
        authority_key=None,
        keystore=None,
    ) -> None:
        super().__init__(name, network, domain, identity)
        self.authority_address = authority_address
        self.strategy = strategy
        self.authority_key = authority_key
        self.keystore = keystore if keystore is not None else (
            identity.keystore if identity is not None else None
        )
        if authority_key is not None and self.keystore is None:
            raise ValueError(
                f"{name}: authority_key requires a keystore (or identity)"
            )
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

    def protect_pep(
        self, pep: PolicyEnforcementPoint, install_guard: bool = True
    ) -> None:
        """Invalidate this PEP's decision cache on matching revocations.

        When ``install_guard`` is set the PEP also consults this agent
        before serving any decision (cached or fresh), so revocations the
        agent already knows about deny immediately.
        """
        self._peps.append(pep)
        if install_guard:
            if pep.revocation_guard is not None:
                # Silent overwrite would leave the displaced agent's
                # revocations un-enforced at decision time.
                raise ValueError(
                    f"PEP {pep.name!r} already has a revocation guard; "
                    "pass install_guard=False to only manage its cache"
                )
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
        the strategy's coherence window.
        """
        self._gateways.append(gateway)

    def protect_verifier(self, verifier) -> None:
        """Reject revoked capability assertions at verification time.

        Works entirely through the installed hook (unlike PEPs/PDPs
        there is no apply()-time interaction with verifiers).
        """
        verifier.revocation_check = self._capability_check

    # -- revocation state --------------------------------------------------------

    def is_revoked_locally(self, kind: RevocationKind, target: str) -> bool:
        return (kind.value, target) in self._revoked

    def is_revoked(self, kind: RevocationKind, target: str) -> bool:
        """Strategy-mediated check (may cost a round-trip, see strategies)."""
        return self.strategy.check(self, kind, target)

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
        # A removed delegation or trust edge kills whole chains downstream
        # of it (cascades die implicitly via reduction / trust walks), and
        # some records carry no subject or resource at all: no selective
        # key can name every affected decision, so the caches are flushed.
        transitive = record.kind in (
            RevocationKind.DELEGATION,
            RevocationKind.TRUST_EDGE,
        )
        subject, resource = record.subject_id or None, record.resource_id or None

        def invalidate(cache: DecisionCache) -> int:
            if not transitive and (subject or resource):
                return cache.invalidate_for(subject, resource)
            cache.invalidate_all()
            return 0

        for pep in self._peps:
            self.decision_entries_invalidated += invalidate(pep.decision_cache)
        for gateway in self._gateways:
            self.remote_entries_invalidated += invalidate(gateway.remote_cache)
        if transitive:
            for pdp in self._pdps:
                pdp.invalidate_policy_cache()
        return True

    # -- guards ------------------------------------------------------------------

    def _pep_guard(self, request: RequestContext) -> Optional[str]:
        subject = request.subject_id
        if subject and self.is_revoked(
            RevocationKind.ENTITLEMENT, subject_access_target(subject)
        ):
            return f"access for subject {subject!r} revoked"
        return None

    def _capability_check(self, assertion) -> Optional[str]:
        if self.is_revoked(
            RevocationKind.CAPABILITY, capability_target(assertion.assertion_id)
        ):
            return f"capability {assertion.assertion_id!r} revoked"
        subject = getattr(assertion, "subject_id", "")
        if subject and self.is_revoked(
            RevocationKind.CAPABILITY, subject_capability_target(subject)
        ):
            return f"all capabilities of {subject!r} revoked"
        return None

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

    def fetch_delta(self) -> int:
        """Pull every record after our epoch; returns newly applied count."""
        reply = self.call(
            self.authority_address, CRL_ACTION, crl_request(self.known_epoch)
        )
        records, epoch = parse_records(str(reply.payload))
        applied = 0
        for record in records:
            if self.authority_key is not None and not verify_record(
                record, self.keystore, self.authority_key
            ):
                # Advance only past the contiguous verified prefix: the
                # bad record (and what follows) is retried next poll,
                # but the verified prefix is never refetched.
                self.rejected_invalidations += 1
                return applied
            if self.apply(record):
                applied += 1
            self.known_epoch = max(self.known_epoch, record.epoch)
        self.known_epoch = max(self.known_epoch, epoch)
        return applied

    def query_status(self, kind: RevocationKind, target: str) -> bool:
        """One OCSP-style online check against the authority."""
        reply = self.call(
            self.authority_address, STATUS_ACTION, status_request(kind, target)
        )
        revoked, _ = parse_status(str(reply.payload))
        return revoked

    def __repr__(self) -> str:
        return (
            f"CoherenceAgent({self.name}, strategy={self.strategy.name}, "
            f"epoch={self.known_epoch}, records={len(self._revoked)})"
        )
