"""Byzantine fault tolerance baselines (paper S5.6, Fig. 9): an analytic
cost model only.

:mod:`repro.bft.replication` holds the *scheduling* cost models used by
the Fig. 9 comparison: a BFT-protected task needs 3f+1 executing copies
(asynchronous PBFT) or 2f+1 (synchronous BFT), against REBOUND's f+1;
workloads are packed onto a node set under EDF capacity and the useful
(replica-free) utilization is measured.
"""

from repro.bft.replication import (
    ReplicationSchedulingModel,
    pbft_model,
    rebound_model,
    sync_bft_model,
)

__all__ = [
    "ReplicationSchedulingModel",
    "pbft_model",
    "sync_bft_model",
    "rebound_model",
]
