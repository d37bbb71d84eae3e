"""XML Encryption (XML-Enc) analogue.

Per the paper (Section 3.2): "Encryption guarantees that no information
about access control policies or issued authorisation queries is
revealed."  An :class:`EncryptedDocument` is XML content encrypted to
one recipient public key; WS-Security writes it into an envelope as an
``xenc:EncryptedData`` body (:func:`repro.wsvc.ws_security.secure_envelope`,
whose base64 makes ciphertext measurably larger than plaintext — part
of the E7 message-overhead experiment).

Encryption is hybrid in shape (like real XML-Enc): the body is
symmetric-streamed, keyed to the recipient via the KeyStore-mediated
construction in :mod:`repro.wss.keys`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .keys import Ciphertext, KeyPair


class DecryptionError(Exception):
    """Raised when decryption fails (wrong recipient or corrupt body)."""


@dataclass(frozen=True)
class EncryptedDocument:
    """XML content encrypted for a single recipient."""

    ciphertext: Ciphertext


def decrypt_document(doc: EncryptedDocument, keypair: KeyPair) -> str:
    """Decrypt with the recipient's key pair; raises on wrong recipient."""
    try:
        plaintext = keypair.decrypt(doc.ciphertext)
    except PermissionError as exc:
        raise DecryptionError(str(exc)) from exc
    return plaintext.decode("utf-8")
