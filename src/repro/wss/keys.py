"""Key material for the simulated security substrate.

Substitution note (see DESIGN.md §2): the paper's architectures rest on
XML Digital Signature / XML Encryption over RSA key pairs.  What the
*architecture* needs from cryptography is the access structure — "only the
holder of the private key can sign; anyone with the public key can verify;
only the holder of the private key can decrypt" — not number-theoretic
hardness.  We reproduce exactly that access structure with HMAC-SHA256:

* a :class:`KeyPair` holds a 32-byte secret (``private``) and a public
  identifier derived by hashing it (``public``);
* signing computes ``HMAC(private, data)``; verification recomputes it —
  but verification must be possible with only the *public* part, so the
  signer also binds the public id into the tag and the verifier checks the
  binding through a registry-free construction described in
  :mod:`repro.wss.xmldsig`.

Within the simulation no component ever reads another component's
``private`` attribute, which is what makes forgery impossible *in the
model* — the same guarantee RSA gives a real deployment.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field


#: SHA-256's block size in bytes: the HMAC key length.
_SHA256_BLOCK = 64


def _derive_public(private: bytes) -> str:
    return hashlib.sha256(b"public-of:" + private).hexdigest()


@dataclass(frozen=True)
class PublicKey:
    """The shareable half of a key pair: an opaque 64-hex-char identifier."""

    key_id: str


@dataclass(frozen=True)
class KeyPair:
    """A private/public key pair.

    Create with :func:`generate_keypair`; the private half must never be
    passed to another component (tests assert this discipline).
    """

    private: bytes = field(repr=False)
    public: PublicKey = field()
    #: HMAC-SHA256's inner and outer padded keys, derived from
    #: :attr:`private` once rather than on every signature.
    _pads: tuple[bytes, bytes] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = self.private
        if len(key) > _SHA256_BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_SHA256_BLOCK, b"\0")
        # RFC 2104 §2: the inner and outer pads XOR 0x36 and 0x5C into
        # every key byte.
        object.__setattr__(
            self,
            "_pads",
            (bytes(b ^ 0x36 for b in key), bytes(b ^ 0x5C for b in key)),
        )

    def sign(self, data: bytes) -> str:
        """Produce a signature tag over ``data``.

        The tag commits to both the data and the public key id so that a
        verifier holding only :attr:`public` can check it via
        :func:`verify`.  The MAC is ``hmac.new(private, data, sha256)``,
        spelled out over the precomputed pads: the same bytes, without
        setting up a keyed MAC per call.
        """
        inner, outer = self._pads
        mac = hashlib.sha256(outer + hashlib.sha256(inner + data).digest())
        return hashlib.sha256(
            (mac.hexdigest() + self.public.key_id).encode("ascii")
        ).hexdigest()

    def decrypt(self, ciphertext: "Ciphertext") -> bytes:
        """Recover a payload encrypted to this key pair's public key."""
        if ciphertext.recipient != self.public.key_id:
            raise PermissionError(
                "ciphertext was not encrypted to this key "
                f"(recipient {ciphertext.recipient[:8]}..., "
                f"we are {self.public.key_id[:8]}...)"
            )
        pad = _keystream(self.private, ciphertext.nonce, len(ciphertext.body))
        return bytes(a ^ b for a, b in zip(ciphertext.body, pad, strict=True))


@dataclass(frozen=True)
class Ciphertext:
    """An encrypted payload addressed to a single public key."""

    recipient: str
    nonce: bytes
    body: bytes

    @property
    def wire_size(self) -> int:
        return len(self.body) + len(self.nonce) + 64


def _keystream(private: bytes, nonce: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        block = hashlib.sha256(private + nonce + counter.to_bytes(4, "big")).digest()
        out.extend(block)
        counter += 1
    return bytes(out[:length])


class KeyStore:
    """Generates key pairs and (for the encryption model) resolves them.

    Real public-key encryption lets anyone encrypt to a public key while
    only the private key decrypts.  Our HMAC construction needs the private
    bytes to build the keystream, so encryption is mediated by the KeyStore
    that *created* the pair: ``encrypt_to`` looks the pair up internally and
    never reveals it to the caller.  One KeyStore per simulated world
    plays the role of the mathematics, and mints that world's
    certificate serials.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._counter = 0
        self._pairs: dict[str, KeyPair] = {}
        self._serial = 999

    def mint_serial(self) -> int:
        """The next certificate serial, from 1000.  Every CA built on
        this store draws from it, so serials stay unique across the CAs
        of a VO: revocation keys a certificate by serial alone."""
        self._serial += 1
        return self._serial

    def generate(self, label: str = "") -> KeyPair:
        """Deterministically generate a fresh key pair."""
        self._counter += 1
        private = hashlib.sha256(
            f"key:{self._seed}:{self._counter}:{label}".encode("utf-8")
        ).digest()
        pair = KeyPair(private=private, public=PublicKey(_derive_public(private)))
        self._pairs[pair.public.key_id] = pair
        return pair

    def encrypt_to(self, public: PublicKey, plaintext: bytes) -> Ciphertext:
        """Encrypt ``plaintext`` so only the holder of ``public`` reads it."""
        pair = self._pairs.get(public.key_id)
        if pair is None:
            raise KeyError(f"unknown public key {public.key_id[:8]}...")
        self._counter += 1
        nonce = hashlib.sha256(
            f"nonce:{self._seed}:{self._counter}".encode("ascii")
        ).digest()[:12]
        pad = _keystream(pair.private, nonce, len(plaintext))
        body = bytes(a ^ b for a, b in zip(plaintext, pad, strict=True))
        return Ciphertext(recipient=public.key_id, nonce=nonce, body=body)

    def verify(self, public: PublicKey, data: bytes, signature: str) -> bool:
        """Verify a signature tag against a public key.

        Mirrors :meth:`KeyPair.sign`: the KeyStore recomputes the tag using
        the registered pair.  A verifier that holds a public key not minted
        by this store cannot validate anything — exactly the situation of a
        relying party without a trust path, which the PKI layer
        (:mod:`repro.wss.pki`) turns into an explicit trust decision.
        """
        pair = self._pairs.get(public.key_id)
        if pair is None:
            return False
        expected = pair.sign(data)
        return hmac.compare_digest(expected, signature)
