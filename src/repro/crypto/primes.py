"""Prime generation for the RSA substrate and the multisignature group.

Deterministic given a seed, so that simulations are reproducible.  Uses
Miller-Rabin with enough rounds for the key sizes we use (<= 2048 bits); for
deterministic behaviour the witnesses are drawn from a seeded PRNG.
"""

from __future__ import annotations

import random
from typing import Optional

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)


def is_probable_prime(n: int, rng: Optional[random.Random] = None, rounds: int = 24) -> bool:
    """Miller-Rabin primality test.

    Args:
        n: candidate integer.
        rng: PRNG used to draw witnesses; a fresh default instance is used
            when omitted.
        rounds: number of Miller-Rabin rounds (error probability 4**-rounds).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = rng or random.Random(0xC0FFEE ^ n)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random probable prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size must be at least 8 bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if is_probable_prime(candidate, rng):
            return candidate

