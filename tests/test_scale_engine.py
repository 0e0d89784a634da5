"""Scale-out round engine: sharded-vs-serial equivalence and telemetry
hygiene.

The headline property: on any small topology, under any impairment plan
Hypothesis draws, running the deployment on the sharded engine (2 or 4
fork workers) produces *byte-identical* per-round transcripts, identical
logical crypto counters, and identical BTRMonitor verdicts to the plain
serial engine.  Alongside it: a regression pin that worker processes never
double count inherited parent telemetry.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.metrics import transcript_entry
from repro.chaos import BTRMonitor, ChaosRoundNetwork, ImpairmentPlan
from repro.core import ReboundConfig, ReboundSystem
from repro.faults.adversary import CrashBehavior, EquivocateBehavior
from repro.net.topology import erdos_renyi_topology, grid_topology
from repro.obs import registry
from repro.sched.workload import WorkloadGenerator

ROUNDS = 14


def _workload(seed: int):
    return WorkloadGenerator(
        seed=seed, chain_length_range=(1, 2)
    ).workload(target_utilization=1.5)


def _run(system, rounds=ROUNDS, inject=None):
    """Rounds + monitor verdicts + transcript + logical counters."""
    monitor = BTRMonitor(record_only=True, in_budget=False)
    transcript = []
    try:
        for r in range(rounds):
            if inject is not None and r == inject[0]:
                system.inject_now(inject[1], inject[2]())
            system.run_round()
            monitor.observe(system)
            transcript.append(transcript_entry(system))
        counters = system.total_crypto_counters()
    finally:
        system.close()
    verdicts = [(type(v).__name__, str(v)) for v in monitor.violations]
    return transcript, counters, verdicts


class TestShardedEquivalence:
    @settings(
        derandomize=True,
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        topo_seed=st.integers(min_value=0, max_value=6),
        plan_kind=st.sampled_from(["none", "dup", "reorder", "dup+delay"]),
        workers=st.sampled_from([2, 4]),
    )
    def test_sharded_matches_serial(self, topo_seed, plan_kind, workers):
        """Byte-identical transcripts, counters, and monitor verdicts on
        random small topologies and impairment plans."""
        plan = {
            "none": ImpairmentPlan(seed=topo_seed),
            "dup": ImpairmentPlan(seed=topo_seed, dup_prob=0.3),
            "reorder": ImpairmentPlan(seed=topo_seed, reorder_prob=0.5),
            "dup+delay": ImpairmentPlan(
                seed=topo_seed, dup_prob=0.15, delay_prob=0.1,
                max_delay_rounds=2,
            ),
        }[plan_kind]

        def build(w):
            topology = erdos_renyi_topology(6 + topo_seed % 3, seed=topo_seed)
            config = ReboundConfig(
                fmax=1, fconc=1, variant="multi", rsa_bits=256
            )
            return ReboundSystem(
                topology, _workload(topo_seed), config, seed=topo_seed,
                network_factory=lambda t: ChaosRoundNetwork(t, plan),
                scale_workers=w,
            )

        assert _run(build(0)) == _run(build(workers))

    def test_sharded_crash_fault_matches_serial(self):
        """A crash fault on the 20-node grid: the scenario victim is
        parent-pinned, detection/mode-switch flow through the engine."""
        def build(w):
            config = ReboundConfig(
                fmax=1, fconc=1, variant="multi", rsa_bits=256
            )
            return ReboundSystem(
                grid_topology(4, 5), _workload(0), config, seed=0,
                scale_workers=w,
            )

        inject = (6, 19, CrashBehavior)
        assert _run(build(0), inject=inject) == _run(build(2), inject=inject)

    def test_worker_recall_on_unpinned_victim(self):
        """Injecting into a worker-resident node recalls it to the parent
        mid-run without perturbing the transcript."""
        def build(w):
            config = ReboundConfig(
                fmax=1, fconc=1, variant="multi", rsa_bits=256
            )
            return ReboundSystem(
                grid_topology(4, 5), _workload(0), config, seed=0,
                scale_workers=w,
            )

        inject = (5, 13, EquivocateBehavior)
        assert _run(build(0), inject=inject) == _run(build(3), inject=inject)

    def test_recall_flushes_worker_durable_state(self, tmp_path):
        """Flush-barrier regression: recalling a worker-resident node must
        flush its chained durable log *before* the node pickles back to
        the parent, and shutdown must flush every resident node -- the
        serial and sharded runs stay byte-identical with persistence on,
        and every worker-written chain verifies cleanly afterwards."""
        import os

        from repro.durability import ChainedEventLog, derive_key
        from repro.durability.store import LOG_NAME

        def build(w, durability_dir):
            config = ReboundConfig(
                fmax=1, fconc=1, variant="multi", rsa_bits=256,
                durability_enabled=True, durability_dir=durability_dir,
                snapshot_interval=8,
            )
            return ReboundSystem(
                grid_topology(4, 5), _workload(0), config, seed=0,
                scale_workers=w,
            )

        serial_dir = str(tmp_path / "serial")
        shard_dir = str(tmp_path / "shard")
        # Victim 13 is worker-resident (unpinned), so the injection forces
        # a mid-run recall through the release path.
        inject = (5, 13, EquivocateBehavior)
        serial = _run(build(0, serial_dir), inject=inject)
        sharded = _run(build(3, shard_dir), inject=inject)
        assert serial == sharded
        names = sorted(os.listdir(shard_dir))
        assert len(names) == 20
        for name in names:
            node_id = int(name.split("_")[1])
            log = ChainedEventLog(
                os.path.join(shard_dir, name, LOG_NAME), derive_key(0, node_id)
            )
            assert log.verify()  # non-empty: the round-8 snapshot landed


class TestWorkerTelemetryHygiene:
    def test_workers_reset_inherited_stats(self):
        """Fork workers must zero the telemetry they inherit: the parent
        builds the deployment (hundreds of signatures) before forking, and
        none of that may reappear in worker snapshots or the merge."""
        registry.ensure_default_components()
        registry.reset_all()
        config = ReboundConfig(fmax=1, fconc=1, variant="multi", rsa_bits=256)
        system = ReboundSystem(
            grid_topology(4, 5), _workload(0), config, seed=0,
            scale_workers=2,
        )
        try:
            # Pile up parent-side telemetry before the engine forks: if
            # workers inherited it, each snapshot would carry >= this much.
            pair = system.directory._rsa_pairs[0]
            for _ in range(2000):
                pair.sign(b"pre-fork sentinel")
            prefork = registry.stats_snapshot()["rsa_sign"]["crt_signs"]
            assert prefork >= 2000
            for _ in range(2):
                system.run_round()
            snapshots = system._engine.worker_snapshots()
            assert len(snapshots) == 2
            for snapshot in snapshots:
                # Two rounds of one shard's work is far below the parent's
                # construction-time signing; inheritance would replicate it.
                assert snapshot["rsa_sign"]["crt_signs"] < prefork
            merged = system.fastpath_stats()
            parent_now = registry.stats_snapshot()["rsa_sign"]["crt_signs"]
            worker_sum = sum(
                s["rsa_sign"]["crt_signs"] for s in snapshots
            )
            assert merged["rsa_sign"]["crt_signs"] == parent_now + worker_sum
        finally:
            system.close()

    def test_merge_stats_snapshots_semantics(self):
        base = {
            "cache": {"hits": 2, "misses": 2, "hit_rate": 0.5,
                      "capacity": 64},
        }
        extras = [
            {"cache": {"hits": 6, "misses": 0, "hit_rate": 1.0,
                       "capacity": 32}},
            {"other": {"count": 3}},
        ]
        merged = registry.merge_stats_snapshots(base, extras)
        assert merged["cache"]["hits"] == 8
        assert merged["cache"]["misses"] == 2
        assert merged["cache"]["capacity"] == 64  # base wins, not summed
        assert merged["cache"]["hit_rate"] == pytest.approx(0.8)
        assert merged["other"]["count"] == 3
        # The inputs are not mutated.
        assert base["cache"]["hits"] == 2
