"""Cryptographic substrate for REBOUND.

Everything here is implemented from scratch (no external crypto libraries):

* :mod:`repro.crypto.hashing` -- injective SHA-256 digests, stable seeds and
  the full-domain hash both signature schemes use.
* :mod:`repro.crypto.primes` -- Miller-Rabin primality testing and prime
  generation, used by RSA and the multisignature group.
* :mod:`repro.crypto.rsa` -- textbook RSA-FDH signatures over SHA-256
  (the paper's prototype uses 512-bit RSA with key rotation, see paper S4).
* :mod:`repro.crypto.multisig` -- a BLS-style multisignature with the exact
  aggregation algebra of Boldyreva's scheme, instantiated as integers mod q
  in an insecure "toy" group (see DESIGN.md S4 for the substitution
  rationale); :meth:`~repro.crypto.multisig.MultisigGroup.verify` is its one
  check.
* :mod:`repro.crypto.rotation` -- periodic weak-key rotation signed by a
  strong permanent key (paper S4, "Key rotation").
* :mod:`repro.crypto.cost_model` -- counts cryptographic operations and
  attributes the paper's measured per-operation timings so that simulated
  CPU costs match the evaluation's cost accounting.

Verification verdicts are memoized per system, on the key directory
(:class:`repro.core.identity.Directory`), not here: this package keeps no
process-wide state (``tests/test_crypto_state.py`` guards that).
"""

from repro.crypto.hashing import hash_bytes
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, RSASignature
from repro.crypto.multisig import MultisigGroup, MultisigKeyPair
from repro.crypto.rotation import KeyRotationManager, RotatingKey
from repro.crypto.cost_model import CryptoCostModel, CryptoCounters

__all__ = [
    "hash_bytes",
    "RSAKeyPair",
    "RSAPublicKey",
    "RSASignature",
    "MultisigGroup",
    "MultisigKeyPair",
    "KeyRotationManager",
    "RotatingKey",
    "CryptoCostModel",
    "CryptoCounters",
]
