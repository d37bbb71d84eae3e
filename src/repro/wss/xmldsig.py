"""XML Digital Signature (XML-DSig) analogue.

The paper requires that "messages carrying access request queries need to
be ... signed.  Signatures guarantee authenticity of messages which is
mandatory to ensure that only valid policies are evaluated and that only
valid access control decisions are enforced" (Section 3.2).

A :class:`SignedDocument` wraps an XML string with an enveloped-signature
block carrying the signer's certificate subject, a digest of the canonical
content and the signature tag.  The serialized form *includes* the
signature block, so signed messages are measurably larger on the wire —
the size penalty experiment E7 quantifies.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Optional

from .keys import KeyPair, KeyStore
from .pki import Certificate, TrustValidator


class SignatureError(Exception):
    """Raised when signature verification fails."""


def canonicalize(xml_text: str) -> str:
    """A lightweight exclusive-canonicalization analogue.

    Collapses inter-element whitespace so that pretty-printing does not
    break verification — the property real C14N provides.
    """
    collapsed = re.sub(r">\s+<", "><", xml_text.strip())
    return collapsed


@dataclass(frozen=True)
class SignedDocument:
    """An XML document plus its enveloped signature block."""

    content: str
    digest: str
    signature: str
    signer_subject: str
    certificate: Certificate

    def to_xml(self) -> str:
        """Serialized form with the ds:Signature element appended."""
        return (
            f"{self.content}"
            f"<ds:Signature xmlns:ds=\"http://www.w3.org/2000/09/xmldsig#\">"
            f"<ds:SignedInfo>"
            f"<ds:CanonicalizationMethod Algorithm=\"sim:c14n\"/>"
            f"<ds:SignatureMethod Algorithm=\"sim:hmac-sha256\"/>"
            f"<ds:Reference URI=\"\"><ds:DigestValue>{self.digest}</ds:DigestValue>"
            f"</ds:Reference></ds:SignedInfo>"
            f"<ds:SignatureValue>{self.signature}</ds:SignatureValue>"
            f"<ds:KeyInfo><ds:X509Data><ds:X509SubjectName>"
            f"{self.signer_subject}</ds:X509SubjectName>"
            f"<ds:X509SerialNumber>{self.certificate.serial}"
            f"</ds:X509SerialNumber></ds:X509Data></ds:KeyInfo>"
            f"</ds:Signature>"
        )

    @property
    def wire_size(self) -> int:
        return len(self.to_xml().encode("utf-8"))


def sign_document(
    content: str, keypair: KeyPair, certificate: Certificate
) -> SignedDocument:
    """Sign XML ``content`` with ``keypair``, attaching ``certificate``.

    The certificate must bind the signer's public key; mismatches are
    programming errors caught immediately rather than at verification time.
    """
    if certificate.public_key.key_id != keypair.public.key_id:
        raise ValueError(
            "certificate public key does not match signing key "
            f"({certificate.subject})"
        )
    canonical = canonicalize(content)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    signature = keypair.sign(digest.encode("ascii"))
    return SignedDocument(
        content=content,
        digest=digest,
        signature=signature,
        signer_subject=certificate.subject,
        certificate=certificate,
    )


def verify_document(
    doc: SignedDocument,
    keystore: KeyStore,
    validator: Optional[TrustValidator] = None,
    at: float = 0.0,
) -> None:
    """Verify digest, signature and (optionally) the signer's trust chain.

    Raises:
        SignatureError: content was altered or the signature is forged.
        CertificateError: the signer's certificate has no valid trust path.
    """
    canonical = canonicalize(doc.content)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    if digest != doc.digest:
        raise SignatureError(
            f"digest mismatch for document signed by {doc.signer_subject!r}: "
            "content was modified after signing"
        )
    if not keystore.verify(
        doc.certificate.public_key, digest.encode("ascii"), doc.signature
    ):
        raise SignatureError(
            f"invalid signature value on document from {doc.signer_subject!r}"
        )
    if validator is not None:
        validator.validate(doc.certificate, at=at)
