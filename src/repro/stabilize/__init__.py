"""Self-stabilization: periodic state audit + quorum resync (PROTOCOL.md §16).

The BTR fault model (paper §2) covers nodes that are *correct* or
*faulty-and-evicted*; a transiently corrupted evidence store, epoch digest,
mode pointer, or quota ledger on an otherwise-correct node is outside it.
Following the self-stabilizing BRB line of work (Duvignau–Raynal–Schiller,
PAPERS.md), every node runs a periodic :class:`StateAuditor` that digests
its protocol state into an audit beacon, checks it against invariants that
hold *by construction* in any uncorrupted execution, cross-checks the
evidence root against quorum, and on divergence resyncs the node from a
quorum reference plus the durable verified prefix (PR 8) -- converging back
to quorum-consistent state within ``Bounds.convergence_s`` rounds
(:mod:`repro.core.bounds`), the Req-S bound asserted by
:class:`~repro.chaos.monitor.BTRMonitor`.
"""

from repro.stabilize.auditor import StateAuditor

__all__ = ["StateAuditor"]
