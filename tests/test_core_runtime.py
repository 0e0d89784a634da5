"""Unit tests for the system runtime and the identity/crypto directory."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReboundConfig, ReboundSystem, identity
from repro.core.identity import DOMAIN_AUDITING, DOMAIN_FORWARDING, Directory
from repro.crypto.hashing import derive_seed
from repro.crypto.rsa import RSAKeyPair
from repro.faults.adversary import CrashBehavior, SilenceBehavior
from repro.net.topology import (
    chemical_plant_topology,
    erdos_renyi_topology,
    line_topology,
    ring_topology,
)
from repro.sched.modegen import EMPTY_SCENARIO
from repro.sched.task import Workload, chemical_plant_workload
from repro.sched.workload import WorkloadGenerator


def _plant(**cfg_kwargs):
    cfg = ReboundConfig(fmax=2, fconc=1, variant="multi", rsa_bits=256, **cfg_kwargs)
    return ReboundSystem(
        chemical_plant_topology(), chemical_plant_workload(), cfg, seed=1
    )


class TestDmaxResolution:
    def test_ring(self):
        cfg = ReboundConfig(fmax=1, fconc=1, rsa_bits=256)
        system = ReboundSystem(ring_topology(6), Workload([]), cfg, seed=0)
        # diameter 3 + fmax 1 + 1 = 5.
        assert cfg.d_max == 5

    def test_line(self):
        cfg = ReboundConfig(fmax=2, fconc=1, rsa_bits=256)
        ReboundSystem(line_topology(4), Workload([]), cfg, seed=0)
        assert cfg.d_max == 3 + 2 + 1

    def test_explicit_d_max_preserved(self):
        cfg = ReboundConfig(fmax=1, fconc=1, d_max=9, rsa_bits=256)
        ReboundSystem(ring_topology(5), Workload([]), cfg, seed=0)
        assert cfg.d_max == 9


class TestRuntimeQueries:
    def test_mode_census_counts_correct_only(self):
        system = _plant()
        system.run(10)
        victim = system.topology.node_by_name("N1")
        system.inject_now(victim, SilenceBehavior())
        system.run(8)
        census = system.mode_census()
        assert sum(census.values()) == 3  # the faulty node is not counted

    def test_target_schedule_tracks_truth(self):
        system = _plant()
        system.run(10)
        victim = system.topology.node_by_name("N3")
        system.inject_now(victim, CrashBehavior())
        target = system.target_schedule()
        assert victim not in target.placements.values()

    def test_total_crypto_counters_accumulate(self):
        system = _plant()
        before = system.total_crypto_counters().total_signatures()
        system.run(5)
        after = system.total_crypto_counters().total_signatures()
        assert after > before

    def test_mean_storage_positive(self):
        system = _plant()
        system.run(5)
        assert system.mean_storage_bytes() > 0


class TestDirectory:
    def test_register_idempotent(self):
        directory = Directory(rsa_bits=256, seed=3)
        directory.register(1)
        key_a = directory.rsa_pair(1).public_key
        directory.register(1)
        assert directory.rsa_pair(1).public_key == key_a

    def test_distinct_nodes_distinct_keys(self):
        directory = Directory(rsa_bits=256, seed=3)
        directory.register(1)
        directory.register(2)
        assert directory.rsa_pair(1).public_key != directory.rsa_pair(2).public_key
        assert directory.ms_public(1) != directory.ms_public(2)

    def test_counters_split_by_domain(self):
        directory = Directory(rsa_bits=256, seed=3)
        directory.register(1)
        crypto = directory.crypto_for(1)
        crypto.sign(b"x", domain=DOMAIN_FORWARDING)
        crypto.sign(b"y", domain=DOMAIN_AUDITING)
        crypto.sign(b"z", domain=DOMAIN_AUDITING)
        assert crypto.counters[DOMAIN_FORWARDING].rsa_sign == 1
        assert crypto.counters[DOMAIN_AUDITING].rsa_sign == 2
        assert crypto.total_counters().rsa_sign == 3

    def test_sign_verify_roundtrip(self):
        directory = Directory(rsa_bits=256, seed=3)
        directory.register(1)
        directory.register(2)
        alice = directory.crypto_for(1)
        bob = directory.crypto_for(2)
        sig = alice.sign(b"msg")
        assert bob.verify(1, b"msg", sig)
        assert not bob.verify(2, b"msg", sig)
        assert not bob.verify(1, b"other", sig)
        assert not bob.verify(1, b"msg", b"\x00\x02zz")

    def test_ms_verify_value(self):
        directory = Directory(rsa_bits=256, multisig_bits=128, seed=3)
        for node in (1, 2):
            directory.register(node)
        alice = directory.crypto_for(1)
        bob = directory.crypto_for(2)
        body = b"heartbeat-body"
        value = alice.ms_sign(body)
        apk = directory.ms_public(1)
        ok = bob.ms_verify_value(body, value, apk, 1 << 1, cache_key=("t", 1))
        assert ok
        bad = bob.ms_verify_value(body, value + 1, apk, 1 << 1, cache_key=("t", 1))
        assert not bad
        assert bob.ms_verify_record(1, body, value.to_bytes(16, "big"))
        assert not bob.ms_verify_record(2, body, value.to_bytes(16, "big"))

    def test_aggregate_key_charged_once_per_node(self):
        """ms_combine_key is charged once per distinct signer (the popcount
        of the signer mask), the first time each node uses a key."""
        directory = Directory(rsa_bits=256, multisig_bits=128, seed=3)
        for node in range(4):
            directory.register(node)
        q = directory.group.q
        # Multiset {1: 1, 2: 2, 3: 1}: three distinct signers.
        apk = sum(
            m * directory.ms_public(n) for n, m in ((1, 1), (2, 2), (3, 1))
        ) % q
        signers = 1 << 1 | 1 << 2 | 1 << 3
        alice, bob = directory.crypto_for(0), directory.crypto_for(1)

        def combines(crypto):
            return crypto.counters[DOMAIN_FORWARDING].ms_combine_key

        # An aggregate column's rows name their key (epoch, sender, age).
        key = (b"epoch", 5, 1)
        row = (0, 9, 1, apk, signers, True)  # origin round, sig, age, ...
        alice.ms_verify_value(b"hb", 7, apk, signers, cache_key=key)
        assert combines(alice) == 3
        alice.ms_verify_value(b"hb", 8, apk, signers, cache_key=key)
        alice.ms_verify_batch(b"epoch", 5, [row])
        assert combines(alice) == 3  # already paid for this key
        alice.ms_verify_batch(b"epoch", 5, [row[:2] + (2,) + row[3:]])
        assert combines(alice) == 6  # a new key (another age) is paid again
        # Another node pays for its own memo, whatever alice computed.
        bob.ms_verify_batch(b"epoch", 5, [row])
        assert combines(bob) == 3
        # Building a column charges nothing.
        assert alice.ms_warm_batch([(b"hb", 10, apk)]) == [False]
        assert combines(alice) == 6

    def test_operator_verify(self):
        directory = Directory(rsa_bits=256, seed=3)
        directory.register(1)
        crypto = directory.crypto_for(1)
        sig = directory.operator.sign(b"bless").to_bytes()
        assert crypto.verify_operator(b"bless", sig)
        assert not crypto.verify_operator(b"curse", sig)
        assert not crypto.verify_operator(b"bless", b"junk")


class TestCoverageRegistry:
    def test_one_calculator_per_distinct_pattern(self, monkeypatch):
        """ER-20 MULTI through a crash and an LFD storm: nodes holding
        equal fault patterns share one calculator, and the registry builds
        each pattern's DP once."""
        from repro.core import heartbeat
        from repro.faults.adversary import LFDStormBehavior
        from repro.net.topology import erdos_renyi_topology
        from repro.sched.workload import WorkloadGenerator

        builds = []

        class CountingCalculator(heartbeat.CoverageCalculator):
            def __init__(self, adjacency, max_age, keys, q):
                builds.append(adjacency)
                super().__init__(adjacency, max_age, keys, q)

        monkeypatch.setattr(heartbeat, "CoverageCalculator", CountingCalculator)
        topo = erdos_renyi_topology(20, seed=0)
        workload = WorkloadGenerator(seed=0, chain_length_range=(1, 2)).workload(
            target_utilization=1.5
        )
        cfg = ReboundConfig(fmax=2, fconc=1, variant="multi", rsa_bits=256)
        system = ReboundSystem(topo, workload, cfg, seed=0)
        registry = system.coverage
        controllers = sorted(topo.controllers)
        held = set()
        try:
            for r in range(1, 25):
                if r == 5:
                    system.inject_now(controllers[-1], CrashBehavior())
                if r == 8:
                    system.inject_now(controllers[0], LFDStormBehavior())
                system.run_round()
                by_pattern = {}
                for node in system.nodes.values():
                    fwd = node.forwarding
                    assert fwd.coverage is registry
                    pattern = fwd.fault_pattern
                    held.add(pattern)
                    assert fwd._coverage is registry._calculators[pattern]
                    assert by_pattern.setdefault(pattern, fwd._coverage) is fwd._coverage
        finally:
            system.close()
        assert len(held) > 2
        assert held <= set(registry._calculators)
        assert len(builds) == len(registry._calculators)


# -- keys on first use -----------------------------------------------------------

_SEED, _BITS, _NODES = 11, 256, 6


@functools.lru_cache(maxsize=None)
def _eager_pair(node: int) -> RSAKeyPair:
    return RSAKeyPair(bits=_BITS, seed=derive_seed(_SEED, "rsa", node))


@pytest.fixture
def minted(monkeypatch):
    """The seeds of the RSA keypairs minted while the test runs, in order."""
    log = []

    class CountingKeyPair(RSAKeyPair):
        def __init__(self, bits, seed):
            log.append(seed)
            super().__init__(bits=bits, seed=seed)

    monkeypatch.setattr(identity, "RSAKeyPair", CountingKeyPair)
    return log


class TestKeysOnFirstUse:
    @settings(max_examples=10, deadline=None)
    @given(order=st.permutations(range(_NODES)))
    def test_accessor_equals_eager_keygen_in_any_order(self, order):
        directory = Directory(rsa_bits=_BITS, multisig_bits=128, seed=_SEED)
        for node in range(_NODES):
            directory.register(node)
        for node in order:
            pair, eager = directory.rsa_pair(node), _eager_pair(node)
            assert pair.public_key == eager.public_key
            assert pair.sign(b"same key").value == eager.sign(b"same key").value
            assert directory.rsa_pair(node) is pair

    def test_unregistered_origin_verifies_false_and_mints_nothing(self, minted):
        directory = Directory(rsa_bits=_BITS, multisig_bits=128, seed=_SEED)
        directory.register(0)
        crypto = directory.crypto_for(0)
        assert crypto.verify(5, b"body", b"\x00\x20" + b"\x01" * 32) is False
        assert crypto.total_counters().rsa_verify == 1
        assert minted == []
        with pytest.raises(KeyError):
            directory.rsa_pair(5)
        assert minted == []

    @staticmethod
    def _er30(variant):
        workload = WorkloadGenerator(seed=4, chain_length_range=(1, 3)).workload(
            target_utilization=1.5
        )
        config = ReboundConfig(fmax=1, fconc=1, variant=variant, rsa_bits=_BITS)
        return ReboundSystem(erdos_renyi_topology(30, seed=4), workload, config, seed=4)

    def test_multi_mints_one_key_per_root_mode_path_source(self, minted):
        system = self._er30("multi")
        root = system.mode_tree.schedule_for(EMPTY_SCENARIO)
        sources = {p.source for p in system.path_cache.paths_for(root).all()}
        assert 0 < len(sources) < 30
        assert sorted(minted) == sorted(
            derive_seed(4, "rsa", node) for node in sources
        )
        system.run(8)  # fault-free rounds sign with keys minted at set-up
        assert len(minted) == len(sources)

    def test_basic_mints_every_key_at_set_up(self, minted):
        self._er30("basic")
        assert len(minted) == 30
