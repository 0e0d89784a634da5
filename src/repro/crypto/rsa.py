"""Textbook RSA-FDH signatures, built from scratch.

The paper's prototype uses 512-bit RSA for ordinary signatures (S4,
"Parameters"): fast to generate/verify, and safe in combination with hourly
key rotation because factoring a 512-bit modulus takes the adversary hours.
We reproduce the same construction -- full-domain-hash RSA -- so that real
signature bytes of the modeled size flow through the wire codec and the
bandwidth/storage measurements in the evaluation are genuine.

Signing uses the standard CRT decomposition (p, q, d_p, d_q, q_inv): two
half-size exponentiations plus a recombination, which is ~3-4x faster than
a full-size ``pow(h, d, n)`` and produces *bit-identical* signatures -- the
recombined value is the unique solution mod n, so key rotation, multisig
interop, and every recorded transcript are unaffected.

Security caveat (documented in DESIGN.md): this is a simulator; we default to
512-bit keys like the paper but nothing here is hardened against
side channels etc.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.crypto.hashing import hash_to_int
from repro.crypto.primes import generate_prime

DEFAULT_KEY_BITS = 512
_PUBLIC_EXPONENT = 65537

@dataclass(frozen=True)
class RSAPublicKey:
    """An RSA public key (n, e)."""

    n: int
    e: int = _PUBLIC_EXPONENT

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    def verify(self, message: bytes, signature: "RSASignature") -> bool:
        """Verify an RSA-FDH signature over ``message``."""
        if not 0 < signature.value < self.n:
            return False
        expected = hash_to_int(message, self.n)
        return pow(signature.value, self.e, self.n) == expected

    def to_bytes(self) -> bytes:
        size = (self.n.bit_length() + 7) // 8
        return size.to_bytes(2, "big") + self.n.to_bytes(size, "big") + self.e.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "RSAPublicKey":
        size = int.from_bytes(data[:2], "big")
        n = int.from_bytes(data[2 : 2 + size], "big")
        e = int.from_bytes(data[2 + size : 6 + size], "big")
        return cls(n=n, e=e)


@dataclass(frozen=True)
class RSASignature:
    """An RSA signature: a single integer modulo n."""

    value: int
    key_bits: int = DEFAULT_KEY_BITS

    @property
    def size_bytes(self) -> int:
        return (self.key_bits + 7) // 8

    def to_bytes(self) -> bytes:
        size = self.size_bytes
        return size.to_bytes(2, "big") + self.value.to_bytes(size, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "RSASignature":
        """Parse ``to_bytes`` output, validating the length prefix.

        The prefix is attacker-controlled wire data, so it is checked
        against the actual buffer instead of trusted: the value must occupy
        exactly ``size`` bytes with nothing missing and nothing trailing.
        Raises ValueError on malformed input.

        ``key_bits`` is recovered as ``size * 8``; for non-byte-aligned
        moduli this rounds up to the serialized width, which re-serializes
        to identical bytes (``size_bytes`` is already the rounded width).
        """
        if len(data) < 2:
            raise ValueError("truncated RSA signature: missing length prefix")
        size = int.from_bytes(data[:2], "big")
        if size == 0:
            raise ValueError("RSA signature with zero-length value")
        if len(data) != 2 + size:
            raise ValueError(
                f"RSA signature length mismatch: prefix says {size} bytes, "
                f"buffer carries {len(data) - 2}"
            )
        value = int.from_bytes(data[2 : 2 + size], "big")
        return cls(value=value, key_bits=size * 8)


class RSAKeyPair:
    """An RSA keypair capable of signing.

    Key generation is deterministic given ``seed`` so that whole simulations
    are reproducible.  The seed is therefore *required*: a silent fallback
    to entropy-seeded randomness would break that documented contract.
    Callers that key material per node should derive the seed from the node
    id (see :class:`repro.crypto.rotation.KeyRotationManager`).
    """

    def __init__(self, bits: int = DEFAULT_KEY_BITS, seed: Optional[int] = None):
        if bits < 128:
            raise ValueError("RSA modulus must be at least 128 bits")
        if seed is None:
            raise ValueError(
                "RSAKeyPair requires an explicit seed (deterministic keygen "
                "is part of the reproducibility contract); derive one from "
                "the node id if no natural seed exists"
            )
        rng = random.Random(seed)
        while True:
            p = generate_prime(bits // 2, rng)
            q = generate_prime(bits - bits // 2, rng)
            if p == q:
                continue
            phi = (p - 1) * (q - 1)
            if phi % _PUBLIC_EXPONENT == 0:
                continue
            n = p * q
            if n.bit_length() != bits:
                continue
            break
        self._bits = bits
        self._n = n
        self._d = pow(_PUBLIC_EXPONENT, -1, phi)
        # CRT parameters: two half-size exponentiations replace one
        # full-size one; the recombination is exact, so signatures are
        # bit-identical to the plain path.
        self._p = p
        self._q = q
        self._d_p = self._d % (p - 1)
        self._d_q = self._d % (q - 1)
        self._q_inv = pow(q, -1, p)
        self.public_key = RSAPublicKey(n=n, e=_PUBLIC_EXPONENT)

    @property
    def bits(self) -> int:
        return self._bits

    def sign(self, message: bytes) -> RSASignature:
        """Produce an RSA-FDH signature over ``message`` (CRT fast path)."""
        digest = hash_to_int(message, self._n)
        m1 = pow(digest % self._p, self._d_p, self._p)
        m2 = pow(digest % self._q, self._d_q, self._q)
        h = ((m1 - m2) * self._q_inv) % self._p
        value = m2 + h * self._q
        return RSASignature(value=value, key_bits=self._bits)

    def sign_plain(self, message: bytes) -> RSASignature:
        """Reference non-CRT path: one full-size exponentiation.

        Kept as the reference the bit-identity property test compares
        :meth:`sign` against.
        """
        digest = hash_to_int(message, self._n)
        value = pow(digest, self._d, self._n)
        return RSASignature(value=value, key_bits=self._bits)
