"""XML Encryption (XML-Enc) analogue.

Per the paper (Section 3.2): "Encryption guarantees that no information
about access control policies or issued authorisation queries is
revealed."  An :class:`EncryptedDocument` replaces plaintext XML with an
``xenc:EncryptedData`` element addressed to one recipient public key.

Encryption is hybrid in shape (like real XML-Enc): the body is
symmetric-streamed, keyed to the recipient via the KeyStore-mediated
construction in :mod:`repro.wss.keys`.  Base64 expansion of the body is
modelled explicitly (4/3 factor) so ciphertext is measurably larger than
plaintext — part of the E7 message-overhead experiment.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass

from .keys import Ciphertext, KeyPair, KeyStore


class DecryptionError(Exception):
    """Raised when decryption fails (wrong recipient or corrupt body)."""


@dataclass(frozen=True)
class EncryptedDocument:
    """XML content encrypted for a single recipient."""

    ciphertext: Ciphertext
    recipient_hint: str

    def to_xml(self) -> str:
        body_b64 = base64.b64encode(self.ciphertext.body).decode("ascii")
        nonce_b64 = base64.b64encode(self.ciphertext.nonce).decode("ascii")
        return (
            f"<xenc:EncryptedData xmlns:xenc=\"http://www.w3.org/2001/04/xmlenc#\">"
            f"<xenc:EncryptionMethod Algorithm=\"sim:stream-sha256\"/>"
            f"<ds:KeyInfo xmlns:ds=\"http://www.w3.org/2000/09/xmldsig#\">"
            f"<ds:KeyName>{self.recipient_hint}</ds:KeyName></ds:KeyInfo>"
            f"<xenc:CipherData><xenc:CipherValue nonce=\"{nonce_b64}\">"
            f"{body_b64}</xenc:CipherValue></xenc:CipherData>"
            f"</xenc:EncryptedData>"
        )

    @property
    def wire_size(self) -> int:
        return len(self.to_xml().encode("utf-8"))


def decrypt_document(doc: EncryptedDocument, keypair: KeyPair) -> str:
    """Decrypt with the recipient's key pair; raises on wrong recipient."""
    try:
        plaintext = keypair.decrypt(doc.ciphertext)
    except PermissionError as exc:
        raise DecryptionError(str(exc)) from exc
    return plaintext.decode("utf-8")
