#!/usr/bin/env python3
"""Partitions and graceful degradation (paper S2.7, Requirement 4).

REBOUND cannot promise global consistency when the adversary partitions
the network -- no protocol can.  Its weaker guarantee: within bounded time,
every correct node either receives the evidence or concludes the issuer is
unreachable, so *each partition knows its own extent* and makes local
decisions independently.

This example builds a barbell topology (two controller clusters joined by
two bridge links), cuts both bridges, and shows each side settling into a
mode that keeps the flows whose sensors and actuators it can still reach.

Run:  python examples/partition_recovery.py
"""

from repro.core import ReboundConfig, ReboundSystem
from repro.net.topology import ROLE_ACTUATOR, ROLE_SENSOR, Topology
from repro.sched.task import CRITICALITY_HIGH, CRITICALITY_MEDIUM, MS, Flow, Task, Workload


def barbell_topology() -> Topology:
    """Controllers 0-2 (west) and 3-5 (east), bridged by 2-3 and 1-4.

    Each side has its own sensor and actuator.
    """
    topo = Topology()
    for i in range(6):
        topo.add_node(i)
    topo.add_node(6, role=ROLE_SENSOR, name="S-west")
    topo.add_node(7, role=ROLE_ACTUATOR, name="A-west")
    topo.add_node(8, role=ROLE_SENSOR, name="S-east")
    topo.add_node(9, role=ROLE_ACTUATOR, name="A-east")
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3), (1, 4)]:
        topo.add_link(a, b)
    topo.add_bus([6, 7, 0, 1, 2], name="west-bus")
    topo.add_bus([8, 9, 3, 4, 5], name="east-bus")
    return topo


def barbell_workload() -> Workload:
    def task(tid, fid):
        return Task(task_id=tid, flow_id=fid, name=f"T{tid}",
                    period_us=40 * MS, wcet_us=8 * MS, deadline_us=40 * MS)

    west = Flow(flow_id=0, name="west-control", criticality=CRITICALITY_HIGH,
                tasks=(task(1, 0),), sensors=(6,), actuators=(7,))
    east = Flow(flow_id=1, name="east-control", criticality=CRITICALITY_MEDIUM,
                tasks=(task(2, 1),), sensors=(8,), actuators=(9,))
    return Workload([west, east])


def main() -> None:
    topo = barbell_topology()
    config = ReboundConfig(fmax=2, fconc=1, variant="multi", rsa_bits=256)
    system = ReboundSystem(topo, barbell_workload(), config, seed=1)

    print("Warm-up: both flows running across the barbell...")
    system.run(12)
    print(f"  modes: {dict(system.mode_census())}")

    print(f"\nRound {system.round_no}: cutting both bridge links (2-3, 1-4)")
    system.cut_link_now(2, 3)
    system.cut_link_now(1, 4)
    system.run(14)

    print("  per-node failure patterns after stabilization:")
    for node_id in system.correct_controllers():
        node = system.nodes[node_id]
        pattern = node.fault_pattern
        schedule = node.current_schedule
        active = sorted(
            system.workload.flows[f].name for f in schedule.active_flows
        )
        print(f"   node {node_id}: links_out={sorted(pattern.links)} "
              f"active flows={active}")

    west_nodes = [0, 1, 2]
    east_nodes = [3, 4, 5]
    west_active = {
        f for n in west_nodes
        for f in system.nodes[n].current_schedule.active_flows
    }
    east_active = {
        f for n in east_nodes
        for f in system.nodes[n].current_schedule.active_flows
    }
    print(f"\n  west side keeps flow(s): "
          f"{sorted(system.workload.flows[f].name for f in west_active)}")
    print(f"  east side keeps flow(s): "
          f"{sorted(system.workload.flows[f].name for f in east_active)}")
    print("  -> each partition keeps serving what it can reach; neither "
          "blocks waiting for the other.")


if __name__ == "__main__":
    main()
