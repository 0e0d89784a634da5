"""Tests for metrics collection and recovery measurement.

Recovery is read from a flight-recorder trace with
:func:`repro.obs.timeline.reconstruct`, as ``python -m repro trace`` does.
"""

import pytest

from repro.analysis.metrics import MetricsCollector
from repro.core import ReboundConfig, ReboundSystem
from repro.crypto.cost_model import CryptoCostModel
from repro.faults.adversary import CrashBehavior
from repro.net.topology import chemical_plant_topology
from repro.obs.recorder import FlightRecorder
from repro.obs.timeline import (
    FaultGroundTruth,
    NodeRecovery,
    RecoveryDecomposition,
    reconstruct,
)
from repro.sched.task import chemical_plant_workload


def _plant_system() -> ReboundSystem:
    topo = chemical_plant_topology()
    wl = chemical_plant_workload()
    cfg = ReboundConfig(fmax=2, fconc=1, variant="multi", rsa_bits=256)
    return ReboundSystem(topo, wl, cfg, seed=1)


@pytest.fixture
def system():
    return _plant_system()


class TestMetricsCollector:
    def test_snapshots_accumulate(self, system):
        collector = MetricsCollector(system)
        snapshots = collector.run_and_sample(5)
        assert len(snapshots) == 5
        assert snapshots[-1].round_no == 5

    def test_deltas_not_cumulative(self, system):
        """Each snapshot covers one round, not the whole history."""
        collector = MetricsCollector(system)
        collector.run_and_sample(6)
        ops = [s.ops_per_node() for s in collector.snapshots[2:]]
        # Steady state: per-round ops should be flat, not growing.
        assert max(ops) < 2 * min(ops) + 5

    def test_steady_state_average(self, system):
        collector = MetricsCollector(system)
        collector.run_and_sample(6)
        steady = collector.steady_state(tail=3)
        assert steady.bytes_per_link > 0
        assert steady.storage_per_node > 0

    def test_steady_state_requires_samples(self, system):
        collector = MetricsCollector(system)
        with pytest.raises(ValueError):
            collector.steady_state()

    def test_cpu_seconds(self, system):
        collector = MetricsCollector(system)
        collector.run_and_sample(3)
        snap = collector.snapshots[-1]
        model = CryptoCostModel(profile="x86")
        assert snap.cpu_seconds_per_node(model) > 0


class TestRecoveryMeasurement:
    def test_crash_timeline(self):
        # Record from construction: the initial modes tell the timeline
        # which nodes were already clean when the fault hit.
        with FlightRecorder().recording() as recorder:
            system = _plant_system()
            system.run(10)
            victim = system.topology.node_by_name("N4")
            system.inject_now(victim, CrashBehavior())
            system.run(30)
        assert recorder.dropped == 0
        timeline = reconstruct(recorder.events())
        assert timeline.truth.nodes == {victim: 11}  # first active round
        assert timeline.convergence_round is not None
        assert timeline.detection_round is not None
        assert timeline.detection_round - 11 <= 3
        assert timeline.recovery_rounds <= 8
        assert timeline.detection_round <= timeline.convergence_round

    def test_recovery_time_units(self):
        timeline = RecoveryDecomposition(
            truth=FaultGroundTruth(nodes={4: 10}),
            per_node={},
            detection_round=11,
            convergence_round=15,
        )
        # Counted from the fault's activation: 5 x 40 ms rounds = 200 ms.
        assert timeline.recovery_rounds == 5

    def test_unrecovered_timeline(self):
        node = NodeRecovery(node=0, fault_round=10, detection_round=11)
        assert not node.recovered
        assert node.total_rounds is None
        timeline = RecoveryDecomposition(
            truth=FaultGroundTruth(nodes={4: 10}),
            per_node={0: node},
            detection_round=11,
            convergence_round=None,
        )
        assert timeline.recovery_rounds is None
        assert timeline.max_node_total() is None
