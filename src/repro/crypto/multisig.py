"""BLS-style multisignatures as the integer algebra REBOUND-MULTI runs.

The paper (S3.6, S4) uses the multisignature scheme of Boldyreva, built on a
Gap-Diffie-Hellman group with pairings (via the PBC library): signatures from
different signer sets over the same message can be combined into a single
signature, verified against an *aggregate public key* that is itself the
combination of the signers' keys.  Including the same signer twice is
harmless.

We reproduce the identical algebra in an insecure "toy" group: the additive
group Z_q for a large prime q, where

    pk_i  = x_i * g           (mod q)
    sig_i = x_i * H(m)        (mod q)
    verify(sig, apk, m):  sig * g == H(m) * apk   (mod q)

Because everything is linear, sums of signatures verify against sums of
public keys -- exactly the aggregation behaviour of BLS -- while discrete
logs are trivially computable, so this carries *zero* cryptographic security.
That substitution is deliberate and documented in DESIGN.md S4: every
experiment in the paper measures message sizes, operation counts, and
latencies (via the cost model), none of which depend on hardness.

Keys and signatures are plain ints: a relay aggregates by adding signatures
mod q (:meth:`repro.core.identity.NodeCrypto.ms_combine`), and the aggregate
key comes from the coverage DP (:mod:`repro.core.heartbeat`).
:meth:`MultisigGroup.verify` is the one place the group equation is written.

Sizes are matched to the paper's parameters: a 256-bit group yields 32-byte
signatures and 32-byte public keys.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.crypto.hashing import hash_to_int
from repro.crypto.primes import generate_prime

DEFAULT_GROUP_BITS = 256


class MultisigGroup:
    """Shared group parameters for the multisignature scheme.

    All nodes in a deployment share one group (q, g); individual keypairs are
    derived from it.  Deterministic given ``seed``.
    """

    def __init__(self, bits: int = DEFAULT_GROUP_BITS, seed: int = 0):
        rng = random.Random(seed)
        self.q = generate_prime(bits, rng)
        self.g = rng.randrange(1, self.q)
        self.bits = bits

    @property
    def element_size(self) -> int:
        """Size in bytes of one group element (signature or public key)."""
        return (self.bits + 7) // 8

    def hash_to_group(self, message: bytes) -> int:
        return hash_to_int(message, self.q)

    def verify(
        self, body: bytes, sig_value: int, apk: int, h: Optional[int] = None
    ) -> bool:
        """Whether ``sig_value`` signs ``body`` under the (possibly
        aggregate) key ``apk``: ``sig * g == H(body) * apk (mod q)``.  A
        caller that already holds ``H(body)`` passes it as ``h``."""
        if h is None:
            h = self.hash_to_group(body)
        return (sig_value * self.g) % self.q == (h * apk) % self.q

    def keypair(self, seed: Optional[int] = None) -> "MultisigKeyPair":
        return MultisigKeyPair(self, seed=seed)


class MultisigKeyPair:
    """One node's multisignature keypair; ``public_key`` is its int value."""

    def __init__(self, group: MultisigGroup, seed: Optional[int] = None):
        rng = random.Random(seed)
        self.group = group
        self._x = rng.randrange(1, group.q)
        self.public_key = (self._x * group.g) % group.q

    def sign(self, message: bytes) -> int:
        return (self._x * self.group.hash_to_group(message)) % self.group.q
