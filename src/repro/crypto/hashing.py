"""Hashing helpers: injective digests, stable seeds and full-domain hashes.

The detachable authenticator of paper S3.8 is not a type here: it is the
signed :func:`repro.core.evidence.data_body` of a
:class:`repro.core.forwarding.DataPacket`.
"""

from __future__ import annotations

import hashlib


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
