"""The REBOUND algorithm: bounded-time recovery for the Byzantine model.

This package implements the paper's primary contribution:

* :mod:`repro.core.config` -- deployment parameters (fmax, fconc, round
  length, protocol variant, optimization toggles).
* :mod:`repro.core.bounds` -- every protocol and oracle window, derived
  from (d_max, audit_interval, controller count).
* :mod:`repro.core.evidence` -- link-failure declarations (LFDs), proofs of
  misbehavior (PoMs), evidence sets, verification, and the derivation of
  failure patterns (KN, KL) from evidence (paper S3.2).
* :mod:`repro.core.heartbeat` -- heartbeat construction for REBOUND-BASIC
  (individually signed) and REBOUND-MULTI (multisignature aggregation with
  ball-coverage descriptors, paper S3.6).
* :mod:`repro.core.paths` -- data/audit path computation per mode
  (paper S3.8's four path kinds).
* :mod:`repro.core.forwarding` -- the forwarding layer (paper S3.3-3.6):
  evidence flooding with per-hop attribution, bounded-time stabilization.
* :mod:`repro.core.auditing` -- the auditing layer (paper S3.7-3.8):
  deterministic replay by replicas, authenticator exchange, equivocation
  detection.
* :mod:`repro.core.node` -- a full REBOUND controller node.
* :mod:`repro.core.runtime` -- system assembly, fault injection, recovery
  measurement.
"""

from repro.core.config import ReboundConfig
from repro.core.evidence import (
    LFD,
    BadComputationPoM,
    EquivocationPoM,
    EvidenceSet,
    StateChainPoM,
)
from repro.core.runtime import ReboundSystem

__all__ = [
    "ReboundConfig",
    "LFD",
    "EquivocationPoM",
    "BadComputationPoM",
    "StateChainPoM",
    "EvidenceSet",
    "ReboundSystem",
]
