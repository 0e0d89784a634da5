"""Unit tests for sensor/actuator devices and the partition guarantee."""

import pytest

from repro.core import ReboundConfig, ReboundSystem
from repro.faults.adversary import CrashBehavior, EquivocateBehavior, RandomOutputBehavior
from repro.net.topology import ROLE_ACTUATOR, ROLE_SENSOR, Topology, chemical_plant_topology
from repro.plant.fixedpoint import encode_micro
from repro.sched.task import (
    CRITICALITY_HIGH,
    CRITICALITY_MEDIUM,
    MS,
    Flow,
    Task,
    Workload,
    chemical_plant_workload,
)


def _chain_topology():
    """sensor - c0 - c1 - c2 - actuator, controllers fully meshed."""
    topo = Topology()
    for i in range(3):
        topo.add_node(i)
    topo.add_node(3, role=ROLE_SENSOR, name="S")
    topo.add_node(4, role=ROLE_ACTUATOR, name="A")
    topo.add_link(0, 1)
    topo.add_link(1, 2)
    topo.add_link(0, 2)
    topo.add_bus([3, 0, 1, 2], name="sensor-bus")
    topo.add_bus([4, 0, 1, 2], name="actuator-bus")
    return topo


def _one_flow_workload():
    task = Task(task_id=1, flow_id=0, name="T1", period_us=40 * MS,
                wcet_us=8 * MS, deadline_us=40 * MS)
    return Workload([
        Flow(flow_id=0, name="f", criticality=CRITICALITY_HIGH,
             tasks=(task,), sensors=(3,), actuators=(4,)),
    ])


def _system(seed=1, **cfg):
    config = ReboundConfig(fmax=2, fconc=1, variant="multi", rsa_bits=256, **cfg)
    return ReboundSystem(_chain_topology(), _one_flow_workload(), config, seed=seed)


class TestSensorDevice:
    def test_sensor_emits_each_round(self):
        system = _system()
        system.run(6)
        sensor = system.sensors[3]
        assert sensor.readings_sent >= 5

    def test_custom_read_function_reaches_actuator(self):
        readings = []

        def read(round_no):
            readings.append(round_no)
            return encode_micro(round_no * 1000)

        config = ReboundConfig(fmax=2, fconc=1, variant="multi", rsa_bits=256)
        system = ReboundSystem(_chain_topology(), _one_flow_workload(), config,
                               sensor_reads={3: read}, seed=1)
        system.run(6)
        assert readings
        actuator = system.actuators[4]
        assert actuator.trace, "actuator never received a command"


class TestActuatorDevice:
    def test_rejects_commands_from_wrong_origin(self):
        """After a mode switch, the old (compromised) primary's commands
        are rejected because its origin no longer matches the path source."""
        system = _system()
        system.run(10)
        primary = system.nodes[0].current_schedule.primary_of(1)
        system.inject_now(primary, RandomOutputBehavior(seed=3))
        system.run(12)
        actuator = system.actuators[4]
        # Post-recovery commands keep flowing from the new primary.
        new_primary = system.target_schedule().primary_of(1)
        assert new_primary != primary
        recent_origins = {o for r, _p, o in actuator.trace if r > system.round_no - 3}
        assert primary not in recent_origins
        assert new_primary in recent_origins

    def test_applied_in_round(self):
        system = _system()
        system.run(6)
        actuator = system.actuators[4]
        r = actuator.trace[-1][0]
        assert actuator.applied_in_round(r)

    def test_devices_follow_mode_changes(self):
        system = _system()
        system.run(8)
        primary = system.nodes[0].current_schedule.primary_of(1)
        system.inject_now(primary, CrashBehavior())
        system.run(12)
        actuator = system.actuators[4]
        # The actuator's own independent mode lookup matches the controllers'.
        assert actuator.schedule is not None
        assert actuator.schedule.primary_of(1) == system.target_schedule().primary_of(1)


class TestDevicesRunTheControllersMode:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_equivocation_pom_reaches_every_device(self, seed):
        """Under MULTI an equivocation PoM embeds partial-multisig record
        signatures.  Devices verify it as controllers do, so every sensor and
        actuator adopts the controllers' mode, and no correct controller is
        ever blamed for the devices lagging behind."""
        config = ReboundConfig(fmax=1, fconc=1, variant="multi", rsa_bits=256)
        system = ReboundSystem(
            chemical_plant_topology(), chemical_plant_workload(), config, seed=seed
        )
        system.run(10)
        system.inject_now(3, EquivocateBehavior())
        system.run(30)
        correct = system.correct_controllers()
        schedule = system.nodes[correct[0]].current_schedule
        assert schedule.failed_nodes == frozenset({3})
        for node_id in correct:
            assert system.nodes[node_id].current_schedule == schedule
        for device in (*system.sensors.values(), *system.actuators.values()):
            assert device.schedule == schedule, device.node_id
        for node_id in correct:
            assert system.nodes[node_id].fault_pattern.nodes.isdisjoint(correct)


class TestPartitionStabilization:
    """Requirement 4: within bounded time, each correct node either has the
    evidence or has concluded the issuer's side is unreachable -- each
    partition knows its own extent and acts locally."""

    def _barbell(self):
        topo = Topology()
        for i in range(6):
            topo.add_node(i)
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]:
            topo.add_link(a, b)
        return topo

    def test_partition_sides_know_their_extent(self):
        topo = self._barbell()
        config = ReboundConfig(fmax=2, fconc=1, variant="multi", rsa_bits=256)
        system = ReboundSystem(topo, Workload([]), config, seed=1)
        system.run(10)
        system.cut_link_now(2, 3)  # the single bridge
        system.run(12)
        # Every node learned the bridge is out (both endpoints declared it,
        # and each side floods internally).
        for node_id in system.correct_controllers():
            pattern = system.nodes[node_id].fault_pattern
            assert (2, 3) in pattern.links, f"node {node_id} missed the cut"
        # No node was condemned.
        for node_id in system.correct_controllers():
            assert not system.nodes[node_id].fault_pattern.nodes

    def test_evidence_does_not_cross_partition(self):
        """Evidence born inside one partition stays there (and that is
        fine: the other side independently concluded the bridge is dead)."""
        topo = self._barbell()
        config = ReboundConfig(fmax=3, fconc=1, variant="multi", rsa_bits=256)
        system = ReboundSystem(topo, Workload([]), config, seed=1)
        system.run(10)
        system.cut_link_now(2, 3)
        system.run(10)
        # A second fault strictly inside the east side.
        system.cut_link_now(3, 4)
        system.run(10)
        west = [0, 1, 2]
        east = [3, 4, 5]
        for node_id in east:
            assert (3, 4) in system.nodes[node_id].fault_pattern.links
        for node_id in west:
            assert (3, 4) not in system.nodes[node_id].fault_pattern.links
