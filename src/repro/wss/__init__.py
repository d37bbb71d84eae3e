"""Security substrate: keys, PKI and XML-DSig/Enc analogues.

See DESIGN.md §2 for the substitution rationale: the package reproduces
the *access structure* of the real standards (who can sign, verify,
encrypt, decrypt, and with which trust path) with dependency-free
hash-based constructions, plus byte-accurate size modelling so security
overheads are measurable.
"""

from .keys import Ciphertext, KeyPair, KeyStore, PublicKey
from .pki import (
    Certificate,
    CertificateAuthority,
    CertificateError,
    TrustValidator,
)
from .xmldsig import (
    SignatureError,
    SignedDocument,
    canonicalize,
    is_authentic,
    sign_document,
    verify_document,
)
from .xmlenc import (
    DecryptionError,
    EncryptedDocument,
    decrypt_document,
    encrypt_document,
)

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "CertificateError",
    "Ciphertext",
    "DecryptionError",
    "EncryptedDocument",
    "KeyPair",
    "KeyStore",
    "PublicKey",
    "SignatureError",
    "SignedDocument",
    "TrustValidator",
    "canonicalize",
    "decrypt_document",
    "encrypt_document",
    "is_authentic",
    "sign_document",
    "verify_document",
]
