"""Hashing helpers and authenticators.

REBOUND's auditing layer (paper S3.8) structures messages so that the
signature covers a small, detachable *authenticator* containing a hash of
the message; the authenticator can travel in place of the full message
whenever the contents are not needed (e.g. on the beta->rho paths that carry
a downstream task's view of tau's output back to tau's replicas).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def hash_bytes(*parts: bytes) -> bytes:
    """Return the SHA-256 digest of the concatenation of ``parts``.

    Each part is length-prefixed before hashing so that the encoding is
    injective (``hash_bytes(b"ab", b"c") != hash_bytes(b"a", b"bc")``).
    """
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


def hash_hex(*parts: bytes) -> str:
    """Hex form of :func:`hash_bytes`, convenient for logging and dict keys."""
    return hash_bytes(*parts).hex()


def derive_seed(*parts: object) -> int:
    """A 64-bit RNG seed from ``parts`` (ints and strs), stable across processes.

    The builtin ``hash()`` of anything containing a ``str`` is salted per
    interpreter (``PYTHONHASHSEED``), so seeds -- and every key, signature
    and transcript derived from them -- must not depend on it.
    """
    return int.from_bytes(hash_bytes(*(repr(p).encode() for p in parts))[:8], "big")


def hash_to_int(data: bytes, modulus: int) -> int:
    """Hash ``data`` to an integer in ``[1, modulus)`` (full-domain hash).

    Used by both the RSA-FDH and the multisignature scheme.  The digest is
    expanded with counter-mode SHA-256 until it has enough bits, then reduced
    modulo ``modulus``; the result is forced nonzero.
    """
    if modulus <= 1:
        raise ValueError("modulus must be > 1")
    nbytes = (modulus.bit_length() + 7) // 8 + 8
    buf = b""
    counter = 0
    while len(buf) < nbytes:
        buf += hashlib.sha256(counter.to_bytes(4, "big") + data).digest()
        counter += 1
    value = int.from_bytes(buf[:nbytes], "big") % modulus
    return value if value != 0 else 1


@dataclass(frozen=True)
class Authenticator:
    """A signed, detachable digest of a message (paper S3.8).

    Attributes:
        sender: identifier of the node that produced the message.
        round: round number in which the message was produced.
        path_id: identifier of the path the message travelled on.
        digest: SHA-256 digest of the message payload.
        signature: the sender's signature over (sender, round, path_id,
            digest); stored as opaque bytes so the authenticator is agnostic
            to the signature scheme in use.
    """

    sender: int
    round: int
    path_id: int
    digest: bytes
    signature: bytes = b""

    def signed_portion(self) -> bytes:
        """The byte string that the signature must cover."""
        return hash_bytes(
            self.sender.to_bytes(8, "big", signed=False),
            self.round.to_bytes(8, "big", signed=False),
            self.path_id.to_bytes(8, "big", signed=False),
            self.digest,
        )

    def with_signature(self, signature: bytes) -> "Authenticator":
        """Return a copy of this authenticator carrying ``signature``."""
        return Authenticator(
            sender=self.sender,
            round=self.round,
            path_id=self.path_id,
            digest=self.digest,
            signature=signature,
        )

    def matches_payload(self, payload: bytes) -> bool:
        """True if this authenticator's digest matches ``payload``."""
        return self.digest == hash_bytes(payload)


def make_authenticator(
    sender: int, round_no: int, path_id: int, payload: bytes
) -> Authenticator:
    """Build an (unsigned) authenticator for ``payload``."""
    return Authenticator(
        sender=sender, round=round_no, path_id=path_id, digest=hash_bytes(payload)
    )
