"""System-level durability tests: crash-restart-rejoin within the
recovery bound, tamper refusal on restore, transcript transparency.

The paper's operator-repair story (S2.4) meets the durable store here:
a crashed controller restarts from ``verified snapshot + chained
suffix``, rejoins through the blessing flow, and the whole arc stays
inside ``r_max = 2*d_max + 4`` of the restart round.  A corrupted log is
*refused* -- the detection lands in
``system.durability_tamper_detections`` and the node rejoins from the
verified prefix instead of silently replaying forged records.

The Hypothesis property pins the determinism contract: a node swapped
for its own sealed-snapshot restore (``restore_exact()``) continues the
deployment byte-identically to one that never snapshotted, admission
quota ledger included.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.metrics import transcript_entry
from repro.chaos import BTRMonitor, CrashRestartBehavior, LogTamperBehavior
from repro.core import ReboundConfig, ReboundSystem
from repro.durability import ChainedEventLog, NodeDurableStore, derive_key
from repro.durability.store import LOG_NAME
from repro.faults.adversary import CrashBehavior
from repro.net.topology import chemical_plant_topology, erdos_renyi_topology
from repro.sched.task import chemical_plant_workload
from repro.sched.workload import WorkloadGenerator

#: root-mode census for the plant's four controllers.
PLANT_ROOT = {((), ()): 4}


def _plant(durability_dir=None, seed=1):
    kwargs = {}
    if durability_dir is not None:
        kwargs = {
            "durability_enabled": True,
            "durability_dir": durability_dir,
            "snapshot_interval": 8,
        }
    config = ReboundConfig(fmax=3, fconc=1, variant="multi", rsa_bits=256, **kwargs)
    return ReboundSystem(
        chemical_plant_topology(), chemical_plant_workload(), config, seed=seed
    )


def _er6(durability_dir=None, seed=7, snapshot_interval=8):
    topology = erdos_renyi_topology(6, seed=seed)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    kwargs = {}
    if durability_dir is not None:
        kwargs = {
            "durability_enabled": True,
            "durability_dir": durability_dir,
            "snapshot_interval": snapshot_interval,
        }
    config = ReboundConfig(
        fmax=2, fconc=1, variant="multi", rsa_bits=256, **kwargs
    )
    return ReboundSystem(topology, workload, config, seed=seed)


class TestCrashRestartRejoin:
    def test_rejoin_within_recovery_bound(self, tmp_path):
        system = _plant(str(tmp_path))
        monitor = BTRMonitor(record_only=True, in_budget=True,
                             require_detection=True)
        system.attach_monitor(monitor)
        victim = max(system.topology.controllers)
        behavior = CrashRestartBehavior(down_rounds=2)
        system.run(10)
        system.inject_now(victim, behavior)
        r_max = 2 * system.config.d_max + 4
        converged_round = None
        for _ in range(3 * r_max):
            system.run_round()
            if (
                behavior.restart_round is not None
                and dict(system.mode_census()) == PLANT_ROOT
            ):
                converged_round = system.round_no
                break
        system.close()
        assert behavior.restart_round is not None
        result = behavior.restore_result
        # The restore came from the round-8 interval snapshot, untampered.
        assert result.snapshot_round == 8
        assert not result.tampered
        assert system.durability_tamper_detections == []
        # Req. 2 around the restart: back to the root mode within r_max.
        assert converged_round is not None
        assert converged_round - behavior.restart_round <= r_max
        assert monitor.violations == []

    @pytest.mark.parametrize("mode", LogTamperBehavior.MODES)
    def test_log_tamper_is_detected_and_refused(self, tmp_path, mode):
        system = _plant(str(tmp_path))
        victim = max(system.topology.controllers)
        behavior = LogTamperBehavior(mode, down_rounds=2)
        system.run(10)
        system.inject_now(victim, behavior)
        converged = False
        for _ in range(40):
            system.run_round()
            if (
                behavior.restart_round is not None
                and dict(system.mode_census()) == PLANT_ROOT
            ):
                converged = True
                break
        system.close()
        assert behavior.tampered
        assert behavior.restore_result is not None
        assert behavior.restore_result.tampered
        detections = system.durability_tamper_detections
        assert len(detections) == 1
        assert detections[0]["node"] == victim
        assert "log" in detections[0]["reason"]
        # Refusal is not rejection of the node: it still rejoins and the
        # deployment still converges back to the root mode.
        assert converged

    def test_restart_requires_durability_enabled(self):
        system = _er6(None)
        try:
            with pytest.raises(RuntimeError, match="durability_enabled"):
                system.restart_from_durable(system.topology.controllers[0])
        finally:
            system.close()


class TestTranscriptTransparency:
    def test_durability_is_observation_only(self, tmp_path):
        """Byte-identical transcripts with persistence on vs off, across a
        crash (so evidence actually flows), and every on-disk chain
        verifies afterwards."""

        def run(durability_dir):
            system = _er6(durability_dir)
            transcript = []
            for r in range(1, 15):
                if r == 6:
                    system.inject_now(
                        system.topology.controllers[0], CrashBehavior()
                    )
                system.run_round()
                transcript.append(transcript_entry(system))
            system.close()
            return transcript

        assert run(None) == run(str(tmp_path))
        topology = erdos_renyi_topology(6, seed=7)
        names = sorted(os.listdir(tmp_path))
        assert len(names) == len(topology.controllers)
        crashed = topology.controllers[0]
        for name in names:
            node_id = int(name.split("_")[1])
            log = ChainedEventLog(
                os.path.join(tmp_path, name, LOG_NAME), derive_key(7, node_id)
            )
            records = log.verify()  # raises on any chain damage
            if node_id != crashed:
                # survivors all cut the round-8 snapshot; the victim died
                # at round 6, so its (clean) chain may be empty.
                assert records


class TestExactRestoreProperty:
    @settings(
        derandomize=True,
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=4),
        cut=st.integers(min_value=5, max_value=9),
        extra=st.integers(min_value=3, max_value=6),
    )
    def test_restore_exact_is_transcript_transparent(self, seed, cut, extra):
        """``restore(snapshot(node))`` continues byte-identically to the
        never-snapshotted run."""
        durability_dir = tempfile.mkdtemp(prefix="rebound-prop-durable-")
        control = _er6(None, seed=seed)
        durable = _er6(durability_dir, seed=seed, snapshot_interval=64)
        try:
            for _ in range(cut):
                control.run_round()
                durable.run_round()
                assert transcript_entry(control) == transcript_entry(durable)
            victim = durable.topology.controllers[
                seed % len(durable.topology.controllers)
            ]
            node = durable.nodes[victim]
            store = node.durable
            store.snapshot(node, durable.round_no)
            restored = store.restore_exact()
            restored.durable = store
            durable.nodes[victim] = restored
            durable.network.attach(victim, restored)
            # The sealed snapshot also re-verifies from a cold store.
            check = NodeDurableStore(
                durability_dir, victim, seed=seed, snapshot_interval=64
            ).load()
            assert not check.tampered
            assert check.node is not None
            for _ in range(extra):
                control.run_round()
                durable.run_round()
                assert transcript_entry(control) == transcript_entry(durable)
        finally:
            control.close()
            durable.close()
            shutil.rmtree(durability_dir, ignore_errors=True)
