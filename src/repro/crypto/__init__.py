"""Cryptographic substrate for REBOUND.

Everything here is implemented from scratch (no external crypto libraries):

* :mod:`repro.crypto.primes` -- Miller-Rabin primality testing and prime
  generation, used by the RSA implementation.
* :mod:`repro.crypto.rsa` -- textbook RSA-FDH signatures over SHA-256
  (the paper's prototype uses 512-bit RSA with key rotation, see paper S4).
* :mod:`repro.crypto.multisig` -- a BLS-style multisignature with the exact
  aggregation algebra of Boldyreva's scheme, instantiated in an insecure
  "toy" group (see DESIGN.md S4 for the substitution rationale).
* :mod:`repro.crypto.rotation` -- periodic weak-key rotation signed by a
  strong permanent key (paper S4, "Key rotation").
* :mod:`repro.crypto.cost_model` -- counts cryptographic operations and
  attributes the paper's measured per-operation timings so that simulated
  CPU costs match the evaluation's cost accounting.

Verification verdicts are memoized per system, on the key directory
(:class:`repro.core.identity.Directory`), not here: this package keeps no
process-wide verification state.
"""

from repro.crypto.hashing import Authenticator, hash_bytes, hash_hex
from repro.crypto.rsa import RSAKeyPair, RSAPublicKey, RSASignature
from repro.crypto.multisig import (
    MultisigGroup,
    MultisigKeyPair,
    MultisigPublicKey,
    Multisignature,
    verify_multisig_values_batch,
)
from repro.crypto.rotation import KeyRotationManager, RotatingKey
from repro.crypto.cost_model import CryptoCostModel, CryptoCounters

__all__ = [
    "Authenticator",
    "hash_bytes",
    "hash_hex",
    "RSAKeyPair",
    "RSAPublicKey",
    "RSASignature",
    "MultisigGroup",
    "MultisigKeyPair",
    "MultisigPublicKey",
    "Multisignature",
    "verify_multisig_values_batch",
    "KeyRotationManager",
    "RotatingKey",
    "CryptoCostModel",
    "CryptoCounters",
]
