"""Scheduling cost models for the Fig. 9 comparison (paper S5.6).

The paper derives scheduling constraints for PBFT analogous to REBOUND's
(S3.9 / [51, SF]), packs randomly generated workloads onto node sets under
either defense (allowing the scheduler to drop excess tasks), and measures
the median *useful* utilization -- the total utilization of the admitted
tasks not counting their replicas.

The key structural difference is the number of executing copies per task:

* asynchronous BFT (PBFT): 3f + 1
* synchronous BFT:         2f + 1
* REBOUND:                  f + 1   (fconc = f replicas + the primary)

All three share the same packing machinery (:class:`ScheduleBuilder` with
the appropriate copy count), so the comparison isolates exactly the
replication factor, as the paper's does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.topology import Topology, fully_connected_topology
from repro.sched.assign import ScheduleBuilder
from repro.sched.task import Workload


@dataclass(frozen=True)
class ReplicationSchedulingModel:
    """A defense's replication requirement for the packing comparison.

    Attributes:
        name: label for reports.
        slope, intercept: executing copies per task are
            ``slope * f + intercept``.
    """

    name: str
    slope: int
    intercept: int

    def copies(self, f: int) -> int:
        return self.slope * f + self.intercept


def pbft_model() -> ReplicationSchedulingModel:
    """Asynchronous BFT: 3f + 1 executing copies."""
    return ReplicationSchedulingModel(name="pbft", slope=3, intercept=1)


def sync_bft_model() -> ReplicationSchedulingModel:
    """Synchronous BFT (e.g. Sync HotStuff): 2f + 1 executing copies."""
    return ReplicationSchedulingModel(name="sync-bft", slope=2, intercept=1)


def rebound_model() -> ReplicationSchedulingModel:
    """REBOUND: the primary plus fconc = f replicas."""
    return ReplicationSchedulingModel(name="rebound", slope=1, intercept=1)


def useful_utilization(
    workload: Workload,
    n_nodes: int,
    f: int,
    model: ReplicationSchedulingModel,
    utilization_cap: float = 0.9,
    topology: Optional[Topology] = None,
) -> float:
    """Pack ``workload`` under ``model`` and return the admitted useful
    utilization (replica-free), the Fig. 9 metric.

    The scheduler drops excess flows (least critical first), exactly like
    the paper's setup where systems are packed with more tasks than they
    can handle.
    """
    copies = model.copies(f)
    if copies > n_nodes:
        return 0.0  # cannot even place one task's copy set
    topo = topology or fully_connected_topology(n_nodes)
    builder = ScheduleBuilder(
        topo,
        workload,
        fconc=copies - 1,
        utilization_cap=utilization_cap,
        method="greedy",
    )
    schedule = builder.build()
    return sum(
        workload.flows[flow_id].utilization for flow_id in schedule.active_flows
    )
