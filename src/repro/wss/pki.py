"""Public Key Infrastructure: certificates, authorities, chains, revocation.

The paper (Section 3.1) identifies PKI as "a fundamental block of building
trust between collaborating parties": enforcement points validate
capabilities by walking a chain to a trusted anchor, and components
mutually authenticate before exchanging decisions (Section 3.2).

Certificates here are structurally faithful X.509 analogues: subject,
issuer, validity window, the subject's public key, optional extensions
(``basicConstraints`` on an intermediate CA), and an issuer signature
over the TBS ("to-be-signed") serialization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .keys import KeyPair, KeyStore, PublicKey

#: How long a CA's own certificate is valid (simulated seconds: ten years).
CA_VALIDITY = 10 * 365 * 86400.0


class CertificateError(Exception):
    """Raised when certificate validation fails."""


@dataclass(frozen=True)
class Certificate:
    """An X.509-style certificate binding a subject name to a public key."""

    subject: str
    issuer: str
    public_key: PublicKey
    not_before: float
    not_after: float
    serial: int
    signature: str
    extensions: tuple[tuple[str, str], ...] = ()
    #: The hash of the eight fields above, taken once: the token and
    #: verified-signature memos look a certificate up on every envelope.
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        fields = (
            self.subject, self.issuer, self.public_key, self.not_before,
            self.not_after, self.serial, self.signature, self.extensions,
        )  # fmt: skip
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

    def tbs_bytes(self) -> bytes:
        """The byte string the issuer signs (TBSCertificate analogue)."""
        ext = ";".join(f"{k}={v}" for k, v in self.extensions)
        return (
            f"cert|{self.serial}|{self.subject}|{self.issuer}|"
            f"{self.public_key.key_id}|{self.not_before}|{self.not_after}|{ext}"
        ).encode("utf-8")

    @property
    def wire_size(self) -> int:
        # Approximate DER footprint: TBS bytes + 64-byte signature + framing.
        return len(self.tbs_bytes()) + 64 + 96

    def __repr__(self) -> str:
        return f"Certificate({self.subject} <- {self.issuer} #{self.serial})"


class CertificateAuthority:
    """Issues and revokes certificates; may itself be certified by a parent.

    A root CA is self-signed (``parent=None``).  Intermediate CAs form
    chains, which :class:`TrustValidator` walks back to a configured anchor
    set — the concrete mechanism behind the paper's "established trust
    relationship" between PEPs and capability/credential services (Fig. 2).

    Revocations are recorded in one place, the
    :class:`~repro.revocation.registry.RevocationRegistry` the CA is bound
    to (``bind_revocation_registry``): a bound CA reads its certificates'
    revocation state there, an unbound one holds no revocations.  A CA
    certificate is valid for :data:`CA_VALIDITY` from time 0.
    """

    def __init__(
        self,
        name: str,
        keystore: KeyStore,
        parent: Optional["CertificateAuthority"] = None,
    ) -> None:
        self.name = name
        self.keystore = keystore
        self.parent = parent
        self.keypair: KeyPair = keystore.generate(label=f"ca:{name}")
        self._revocation_registry = None
        self.certificate = (
            self._self_sign()
            if parent is None
            else parent.issue(
                subject=name,
                public_key=self.keypair.public,
                not_before=0.0,
                lifetime=CA_VALIDITY,
                extensions=(("basicConstraints", "CA:TRUE"),),
            )
        )

    def _self_sign(self) -> Certificate:
        unsigned = Certificate(
            subject=self.name,
            issuer=self.name,
            public_key=self.keypair.public,
            not_before=0.0,
            not_after=CA_VALIDITY,
            serial=self.keystore.mint_serial(),
            signature="",
        )
        signature = self.keypair.sign(unsigned.tbs_bytes())
        return Certificate(
            subject=unsigned.subject,
            issuer=unsigned.issuer,
            public_key=unsigned.public_key,
            not_before=unsigned.not_before,
            not_after=unsigned.not_after,
            serial=unsigned.serial,
            signature=signature,
        )

    def issue(
        self,
        subject: str,
        public_key: PublicKey,
        not_before: float,
        lifetime: float,
        extensions: tuple[tuple[str, str], ...] = (),
    ) -> Certificate:
        """Issue a certificate for ``subject`` signed by this CA."""
        unsigned = Certificate(
            subject=subject,
            issuer=self.name,
            public_key=public_key,
            not_before=not_before,
            not_after=not_before + lifetime,
            serial=self.keystore.mint_serial(),
            signature="",
            extensions=extensions,
        )
        signature = self.keypair.sign(unsigned.tbs_bytes())
        return Certificate(
            subject=unsigned.subject,
            issuer=unsigned.issuer,
            public_key=unsigned.public_key,
            not_before=unsigned.not_before,
            not_after=unsigned.not_after,
            serial=unsigned.serial,
            signature=signature,
            extensions=extensions,
        )

    def bind_revocation_registry(self, registry) -> None:
        """Read revocation state from the unified registry.

        The registry is duck-typed (it offers ``certificate_revoked``)
        to keep this low layer free of upward imports.
        """
        self._revocation_registry = registry

    def is_revoked(self, certificate: Certificate) -> bool:
        registry = self._revocation_registry
        return registry is not None and registry.certificate_revoked(certificate.serial)


class TrustValidator:
    """Validates certificates against a set of trusted anchor CAs.

    This is the relying-party side of the PKI: each domain configures which
    root (and hence which collaborating organisations) it trusts, realising
    the paper's per-domain trust autonomy.

    A validator remembers which issuer signatures it has verified — the
    ``(issuer key id, certificate)`` pairs, by value, at most
    :attr:`SIGNATURES_REMEMBERED` of them, oldest out first — so a
    certificate seen on every message is not HMACed on every message.
    *Only the signature is remembered, and only when it verified*: the
    validity window, issuer resolution and revocation are judged afresh
    at every hop of every call, a certificate that differs in any field
    is another pair, and so is the same certificate under an issuer of
    the same name with another key.
    """

    #: Bound of the verified-signature table.
    SIGNATURES_REMEMBERED = 1024

    def __init__(self, keystore: KeyStore, anchors: list[CertificateAuthority]) -> None:
        self.keystore = keystore
        self._anchors: dict[str, CertificateAuthority] = {a.name: a for a in anchors}
        self._intermediates: dict[str, CertificateAuthority] = {}
        self._verified: dict[tuple[str, Certificate], None] = {}

    def add_anchor(self, ca: CertificateAuthority) -> None:
        self._anchors[ca.name] = ca

    def add_intermediate(self, ca: CertificateAuthority) -> None:
        """Register a non-anchor CA whose chain may pass through an anchor."""
        self._intermediates[ca.name] = ca

    def validate(self, certificate: Certificate, at: float) -> None:
        """Raise :class:`CertificateError` unless the certificate is valid.

        Checks, in order: validity window, issuer resolution up to a trusted
        anchor, signature at each hop, and revocation at each hop.
        """
        chain_cert = certificate
        hops = 0
        while True:
            hops += 1
            if hops > 16:
                raise CertificateError("certificate chain too long (>16 hops)")
            if not (chain_cert.not_before <= at <= chain_cert.not_after):
                raise CertificateError(
                    f"certificate for {chain_cert.subject!r} outside validity "
                    f"window at t={at} "
                    f"[{chain_cert.not_before}, {chain_cert.not_after}]"
                )
            issuer = self._anchors.get(chain_cert.issuer) or self._intermediates.get(
                chain_cert.issuer
            )
            if issuer is None:
                raise CertificateError(
                    f"no trust path: unknown issuer {chain_cert.issuer!r} "
                    f"for subject {chain_cert.subject!r}"
                )
            if issuer.is_revoked(chain_cert):
                raise CertificateError(
                    f"certificate #{chain_cert.serial} for "
                    f"{chain_cert.subject!r} is revoked"
                )
            pair = (issuer.keypair.public.key_id, chain_cert)
            if pair not in self._verified:
                ok = self.keystore.verify(
                    issuer.keypair.public,
                    chain_cert.tbs_bytes(),
                    chain_cert.signature,
                )
                if not ok:
                    raise CertificateError(
                        f"bad signature on certificate for {chain_cert.subject!r}"
                    )
                if len(self._verified) >= self.SIGNATURES_REMEMBERED:
                    del self._verified[next(iter(self._verified))]
                self._verified[pair] = None
            if chain_cert.issuer in self._anchors:
                return
            chain_cert = issuer.certificate
