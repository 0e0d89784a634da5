"""Cost accounting for cryptographic operations.

The paper's evaluation reports *counts* of cryptographic operations per
round (Fig. 5c, Fig. 8b) and converts them to CPU time using measured
per-operation costs (S4 "Parameters"; S4.1 for the Raspberry Pi platform).
We reproduce that methodology: every signing/verification site in the
protocol stack increments counters on a :class:`CryptoCounters` instance,
and :class:`CryptoCostModel` attributes per-operation timings.

Two calibrated profiles are provided:

* ``x86`` -- the simulation platform of S4: RSA-512 sign 1.17 ms / verify
  1.18 ms; multisig combine 3.34 us; public-key combine 3.28 us.
* ``rpi4`` -- the testbed platform of S4.1: RSA-512 sign ~750 us / verify
  ~49 us.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Mapping


@dataclass
class CryptoCounters:
    """Mutable per-node (or per-system) operation counters."""

    rsa_sign: int = 0
    rsa_verify: int = 0
    ms_sign: int = 0
    ms_verify: int = 0
    ms_combine_sig: int = 0
    ms_combine_key: int = 0

    def merge(self, other: "CryptoCounters") -> None:
        self.rsa_sign += other.rsa_sign
        self.rsa_verify += other.rsa_verify
        self.ms_sign += other.ms_sign
        self.ms_verify += other.ms_verify
        self.ms_combine_sig += other.ms_combine_sig
        self.ms_combine_key += other.ms_combine_key

    def total_signatures(self) -> int:
        return self.rsa_sign + self.ms_sign

    def total_verifications(self) -> int:
        return self.rsa_verify + self.ms_verify

    def as_dict(self) -> Dict[str, int]:
        return {
            "rsa_sign": self.rsa_sign,
            "rsa_verify": self.rsa_verify,
            "ms_sign": self.ms_sign,
            "ms_verify": self.ms_verify,
            "ms_combine_sig": self.ms_combine_sig,
            "ms_combine_key": self.ms_combine_key,
        }

    def copy(self) -> "CryptoCounters":
        return CryptoCounters(**self.as_dict())

    def diff(self, earlier: "CryptoCounters") -> "CryptoCounters":
        """Counters accumulated since ``earlier`` (a snapshot of self)."""
        return CryptoCounters(
            rsa_sign=self.rsa_sign - earlier.rsa_sign,
            rsa_verify=self.rsa_verify - earlier.rsa_verify,
            ms_sign=self.ms_sign - earlier.ms_sign,
            ms_verify=self.ms_verify - earlier.ms_verify,
            ms_combine_sig=self.ms_combine_sig - earlier.ms_combine_sig,
            ms_combine_key=self.ms_combine_key - earlier.ms_combine_key,
        )


# Per-operation costs in seconds.
_PROFILES: Mapping[str, Mapping[str, float]] = MappingProxyType({
    # Paper S4 "Parameters" (simulation platform).
    "x86": MappingProxyType({
        "rsa_sign": 1.17e-3,
        "rsa_verify": 1.18e-3,
        "ms_sign": 1.17e-3,
        "ms_verify": 1.18e-3,
        "ms_combine_sig": 3.34e-6,
        "ms_combine_key": 3.28e-6,
    }),
    # Paper S4.1 (Raspberry Pi 4 testbed, RSA-512).
    "rpi4": MappingProxyType({
        "rsa_sign": 750e-6,
        "rsa_verify": 49e-6,
        "ms_sign": 750e-6,
        "ms_verify": 750e-6,
        "ms_combine_sig": 10e-6,
        "ms_combine_key": 10e-6,
    }),
})


@dataclass(frozen=True)
class CryptoCostModel:
    """Attributes wall-clock cost to counted operations.

    Attributes:
        profile: one of ``"x86"`` or ``"rpi4"`` (see module docstring).
    """

    profile: str = "x86"

    def costs(self) -> Mapping[str, float]:
        try:
            return _PROFILES[self.profile]
        except KeyError:
            raise ValueError(f"unknown crypto cost profile: {self.profile!r}")

    def cpu_seconds(self, counters: CryptoCounters) -> float:
        """Total CPU time attributed to ``counters`` under this profile."""
        costs = self.costs()
        return (
            counters.rsa_sign * costs["rsa_sign"]
            + counters.rsa_verify * costs["rsa_verify"]
            + counters.ms_sign * costs["ms_sign"]
            + counters.ms_verify * costs["ms_verify"]
            + counters.ms_combine_sig * costs["ms_combine_sig"]
            + counters.ms_combine_key * costs["ms_combine_key"]
        )
