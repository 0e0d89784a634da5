"""Deterministic chaos-injection layer + BTR invariant monitor.

Three pieces (docs/PROTOCOL.md section 9):

* :mod:`repro.chaos.impairments` -- seeded, composable
  :class:`ImpairmentPlan`\\ s (drop / duplicate / reorder / corrupt /
  delay / link flaps / partitions) applied by :class:`ChaosRoundNetwork`
  at the network layer, each classified *in-budget* or *out-of-budget*
  against the deployment's fault budget;
* :mod:`repro.chaos.monitor` -- :class:`BTRMonitor`, a per-round oracle
  for the paper's Reqs. 1-3 (bounded detection, bounded recovery,
  accuracy) plus structural invariants, raising typed
  :class:`InvariantViolation`\\ s with replayable repro dicts;
* :mod:`repro.chaos.campaign` -- the sweep runner behind
  ``python -m repro chaos``, with failure shrinking and
  ``BENCH_chaos.json`` reporting.
"""

from repro.chaos.impairments import (
    IN_BUDGET,
    OUT_OF_BUDGET,
    NOOP_PLAN,
    ChaosRoundNetwork,
    ImpairmentPlan,
    ImpairmentStats,
    LinkFlap,
    Partition,
)
from repro.chaos.corruption import (
    CORRUPTIONS,
    EpochDesync,
    EvidenceBitFlip,
    ModePointerScramble,
    QuotaLedgerCorrupt,
    TransientCorruption,
)
from repro.chaos.monitor import (
    AccuracyViolation,
    BTRMonitor,
    DetectionTimeoutViolation,
    InvariantViolation,
    MemoryBoundViolation,
    RecoveryTimeoutViolation,
    StabilizationViolation,
    StructuralViolation,
)
from repro.chaos.restart import CrashRestartBehavior, LogTamperBehavior
from repro.chaos.campaign import (
    BEHAVIORS,
    PLANS,
    PRESETS,
    CampaignCell,
    noop_transcript_check,
    run_campaign,
    run_cell,
    shrink_cell,
)

__all__ = [
    "IN_BUDGET",
    "OUT_OF_BUDGET",
    "NOOP_PLAN",
    "ChaosRoundNetwork",
    "ImpairmentPlan",
    "ImpairmentStats",
    "LinkFlap",
    "Partition",
    "CORRUPTIONS",
    "EpochDesync",
    "EvidenceBitFlip",
    "ModePointerScramble",
    "QuotaLedgerCorrupt",
    "TransientCorruption",
    "AccuracyViolation",
    "BTRMonitor",
    "DetectionTimeoutViolation",
    "InvariantViolation",
    "MemoryBoundViolation",
    "RecoveryTimeoutViolation",
    "StabilizationViolation",
    "StructuralViolation",
    "CrashRestartBehavior",
    "LogTamperBehavior",
    "BEHAVIORS",
    "PLANS",
    "PRESETS",
    "CampaignCell",
    "noop_transcript_check",
    "run_campaign",
    "run_cell",
    "shrink_cell",
]
