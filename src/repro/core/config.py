"""REBOUND deployment configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

VARIANT_BASIC = "basic"
VARIANT_MULTI = "multi"


@dataclass
class ReboundConfig:
    """Parameters of a REBOUND deployment.

    Admission quotas and the bounded evidence/challenge stores
    (:mod:`repro.core.quotas`) are not parameters: every deployment runs
    with them, at the caps :mod:`repro.core.bounds` derives.

    Attributes:
        fmax: total faults planned for (size of the mode tree).
        fconc: maximum concurrent faults within one recovery window; also
            the number of replicas per task (paper S2.5, S3.7).
        round_length_us: length of one protocol round in microseconds (the
            testbed uses 40 ms rounds, equal to the task period).
        variant: ``"basic"`` (S3.5 optimizations, individual RSA
            signatures) or ``"multi"`` (adds S3.6 multisignatures).
        d_max: message-expiry horizon in rounds (the max-fail distance bound
            of S3.5).  ``None`` lets the runtime compute it from the
            topology.
        utilization_cap: EDF budget per controller left for application
            tasks after the REBOUND protocol task.
        expiry_optimization: drop heartbeats older than ``d_max`` rounds
            (second refinement of S3.5).  Disabled only for ablations.
        bus_broadcast: broadcast heartbeats on buses instead of unicasting
            to each bus neighbor (third refinement of S3.5).
        signature_spot_checking: on buses, have each broadcast signature
            verified by a subset of fmax+1 members instead of everyone
            (third refinement of S3.5, challenge-based).
        rsa_bits: modulus size for ordinary signatures (paper: 512).
        multisig_bits: group size for multisignatures (paper: 256).
        scheduler_method: per-mode placement engine, ``"greedy"`` or
            ``"ilp"``.
        protocol_enabled: set False for the *unprotected* baseline of
            Fig. 8/10/11: no heartbeats, no omission detection, no
            auditing replicas -- just task execution and data routing.
        durability_enabled: persist every node's protocol state to disk
            as an append-only HMAC-chained event log
            (:mod:`repro.durability`), enabling verified
            crash-restart-rejoin.  Off by default; the write path is
            observation-only, so transcripts are byte-identical either way.
        durability_dir: root directory for the per-node durable stores
            (``<dir>/node_<id>/``).  Required when durability is enabled.
        snapshot_interval: rounds between ``persist-snapshot`` records:
            the chained inventory of a consistent cut (evidence digest,
            heartbeat-store size, quota ledger, mode pointer).
        stabilize_enabled: run a periodic :class:`~repro.stabilize.StateAuditor`
            on every node -- each ``audit_interval`` rounds the auditor
            digests local state (evidence root, epoch digest cache, mode
            pointer, quota ledger) into an audit beacon, cross-checks it
            against quorum evidence, and on divergence resyncs the node
            from a quorum reference plus the durable verified prefix
            (when durability is on).  Off by default.  The audit pass is
            observation-only -- transcripts byte-identical either way --
            when nothing is corrupted and every flood reaches every correct
            controller within ``d_max`` rounds of entering the system.
            It stays opt-in until the quorum is limited to reachable
            peers: forced on at 20a65c2, the golden cells were unchanged
            and both steady ledger workloads cost about 1.0x, but
            ``StateAuditor._quorum_items`` reads peers across a partition,
            which fails two partition tests (a device-side extent check
            and the emergency shut-off flow), and
            ``durable_grid20_restart`` (seed 1, 6 s) read ``readmit_share``
            0.13 -> 0.75, a transcript change that needs its own ledger
            pair.
        audit_interval: rounds between state audits.  Together with
            ``d_max`` it fixes the self-stabilization convergence bound
            ``Bounds.convergence_s`` (:mod:`repro.core.bounds`) asserted by
            the monitor's Req-S check (docs/PROTOCOL.md section 16).
    """

    fmax: int = 1
    fconc: int = 1
    round_length_us: int = 40_000
    variant: str = VARIANT_MULTI
    d_max: Optional[int] = None
    utilization_cap: float = 0.9
    expiry_optimization: bool = True
    bus_broadcast: bool = True
    signature_spot_checking: bool = True
    rsa_bits: int = 512
    multisig_bits: int = 256
    scheduler_method: str = "greedy"
    protocol_enabled: bool = True
    durability_enabled: bool = False
    durability_dir: Optional[str] = None
    snapshot_interval: int = 8
    stabilize_enabled: bool = False
    audit_interval: int = 4

    def __post_init__(self) -> None:
        if self.fmax < 0 or self.fconc < 0:
            raise ValueError("fmax and fconc must be non-negative")
        if self.fconc > self.fmax:
            raise ValueError("fconc cannot exceed fmax")
        if self.variant not in (VARIANT_BASIC, VARIANT_MULTI):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.round_length_us <= 0:
            raise ValueError("round length must be positive")
        if not 0 < self.utilization_cap <= 1:
            raise ValueError("utilization cap must be in (0, 1]")
        if self.snapshot_interval <= 0:
            raise ValueError("snapshot interval must be positive")
        if self.durability_enabled and not self.durability_dir:
            raise ValueError("durability_enabled requires durability_dir")
        if self.audit_interval <= 0:
            raise ValueError("audit interval must be positive")

    @property
    def round_length_ms(self) -> float:
        return self.round_length_us / 1000.0
