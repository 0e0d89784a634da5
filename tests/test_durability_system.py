"""System-level durability tests: crash-restart-rejoin within the
recovery bound, tamper refusal on restore, transcript transparency.

The paper's operator-repair story (S2.4) meets the durable store here:
a crashed controller restarts as a fresh node fed the evidence of its
verified chained log, rejoins through the same blessing flow as an
operator repair, and the whole arc stays inside ``r_max = 2*d_max + 4``
of the restart round.  A corrupted log is *refused* -- the detection
lands in ``system.durability_tamper_detections`` and the node rejoins
from the verified prefix instead of silently replaying forged records.

The Hypothesis property pins what a restart rebuilds from: at any cut,
the evidence decoded from a node's verified log has the live node's
evidence digest, and its prefix up to the last ``persist-snapshot``
record has the digest that record names.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.metrics import transcript_entry
from repro.chaos import BTRMonitor, CrashRestartBehavior, LogTamperBehavior
from repro.core import ReboundConfig, ReboundSystem
from repro.core.evidence import EvidenceSet
from repro.durability import ChainedEventLog, derive_key
from repro.durability.store import LOG_NAME
from repro.faults.adversary import CrashBehavior, EquivocateBehavior
from repro.net.message import decode
from repro.obs.events import EV_PERSIST_EVIDENCE, EV_PERSIST_SNAPSHOT
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
                # survivors all chained the round-8 snapshot record, and a
                # snapshot writes nothing but that record; the victim died
                # at round 6, so its (clean) chain may be empty.
                assert [r["round"] for r in records
                        if r["kind"] == EV_PERSIST_SNAPSHOT] == [8]
                assert sorted(os.listdir(tmp_path / name)) == [
                    LOG_NAME, LOG_NAME + ".head"]


def _evidence_set(items):
    evidence = EvidenceSet()
    for item in items:
        evidence.add(item)
    return evidence


def _run_until_restart(system, behavior, limit=20):
    for _ in range(limit):
        if behavior.restart_round is not None:
            return
        system.run_round()
    raise AssertionError("the victim never restarted")


class TestOneRejoin:
    def test_repair_keeps_the_store_and_a_restart_restores_its_digest(
        self, tmp_path
    ):
        """A repair chains the evidence it seeds into the node's own store,
        so a later crash-restart rebuilds the evidence the node held."""
        system = _er6(str(tmp_path))
        victim = system.topology.controllers[0]
        try:
            system.run(3)
            system.inject_now(victim, CrashBehavior())  # down from round 4
            system.run(7)
            system.repair_and_bless(victim)
            system.run(4)
            assert system.nodes[victim].durable is not None
            held = system.nodes[victim].evidence.digest()
            behavior = CrashRestartBehavior(down_rounds=2)
            system.inject_now(victim, behavior)
            _run_until_restart(system, behavior)
        finally:
            system.close()
        result = behavior.restore_result
        assert not result.tampered
        assert result.node is system.nodes[victim]
        assert _evidence_set(result.evidence).digest() == held

    def test_a_restart_chains_no_evidence_twice(self, tmp_path):
        system = _er6(str(tmp_path))
        controllers = system.topology.controllers
        victim = controllers[-1]
        a, b = next(
            link for link in system.topology.p2p_links
            if victim not in link and set(link) <= set(controllers)
        )
        try:
            system.run(8)
            system.cut_link_now(a, b)  # cut from round 9
            system.run(3)
            behavior = CrashRestartBehavior(down_rounds=2)
            system.inject_now(victim, behavior)  # down from round 12
            _run_until_restart(system, behavior)
            system.run(3)
        finally:
            system.close()
        records = ChainedEventLog(
            os.path.join(tmp_path, f"node_{victim:04d}", LOG_NAME),
            derive_key(7, victim),
        ).verify()
        encodings = [
            r["data"]["enc"] for r in records if r["kind"] == EV_PERSIST_EVIDENCE
        ]
        assert behavior.restore_result.evidence
        assert len(encodings) == len(set(encodings))

    def test_tamper_without_a_log_file_tampers_nothing(self, tmp_path):
        """A crash before the first record leaves no log: the tamper
        behavior treats it as empty instead of raising."""
        system = _er6(str(tmp_path))
        victim = system.topology.controllers[0]
        behavior = LogTamperBehavior("bitflip", down_rounds=2)
        try:
            system.inject_now(victim, behavior)  # down from round 1
            _run_until_restart(system, behavior)
        finally:
            system.close()
        assert not behavior.tampered
        assert not behavior.restore_result.tampered
        assert system.durability_tamper_detections == []


class TestLogDigestProperty:
    @settings(
        derandomize=True,
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=4),
        cut=st.integers(min_value=5, max_value=16),
        fault=st.sampled_from(["crash", "equivocate", "link"]),
    )
    def test_verified_log_rebuilds_the_live_digest(self, seed, cut, fault):
        """Every node's verified log decodes to its live evidence digest,
        and the prefix before its last ``persist-snapshot`` record to the
        digest that record names."""
        durability_dir = tempfile.mkdtemp(prefix="rebound-prop-durable-")
        system = _er6(durability_dir, seed=seed, snapshot_interval=4)
        controllers = system.topology.controllers
        victim = controllers[seed % len(controllers)]
        try:
            system.run(3)
            if fault == "crash":
                system.inject_now(victim, CrashBehavior())
            elif fault == "equivocate":
                system.inject_now(victim, EquivocateBehavior())
            else:
                neighbour = next(
                    n for n in system.topology.neighbors(victim)
                    if n in controllers
                )
                system.cut_link_now(victim, neighbour)
            system.run(cut - 3)
            for node_id, node in system.nodes.items():
                evidence, records, error = node.durable.verified_evidence()
                assert error is None
                assert _evidence_set(evidence).digest() == node.evidence.digest()
                snapshots = [
                    r for r in records if r["kind"] == EV_PERSIST_SNAPSHOT
                ]
                if not snapshots:
                    continue
                last = snapshots[-1]["data"]
                before_cut = [
                    decode(bytes.fromhex(r["data"]["enc"]))
                    for r in records[: last["log_count"]]
                    if r["kind"] == EV_PERSIST_EVIDENCE
                ]
                assert (
                    _evidence_set(before_cut).digest().hex()
                    == last["evidence_digest"]
                )
        finally:
            system.close()
            shutil.rmtree(durability_dir, ignore_errors=True)
