"""Tests for heartbeat records, storage, and coverage multisets."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.heartbeat import (
    AggregateHeartbeat,
    HeartbeatStore,
    CoverageCalculator,
    HeartbeatRecord,
)
from repro.net.topology import erdos_renyi_topology, line_topology, ring_topology


def _adjacency(topo):
    return {n: topo.neighbors(n) for n in topo.nodes}


class TestCoverageCalculator:
    def test_age_zero_is_self(self):
        calc = CoverageCalculator(_adjacency(line_topology(3)), max_age=4)
        assert calc.multiset(1, 0) == Counter({1: 1})
        assert calc.support(1, 0) == {1}

    def test_support_is_ball(self):
        """Support at age a is exactly the set of nodes within distance a."""
        topo = ring_topology(6)
        calc = CoverageCalculator(_adjacency(topo), max_age=5)
        for node in topo.nodes:
            for age in range(4):
                expected = {
                    other
                    for other in topo.nodes
                    if topo.shortest_path_length(node, other) <= age
                }
                assert calc.support(node, age) == expected

    def test_multiset_support_consistent(self):
        topo = erdos_renyi_topology(12, seed=9)
        calc = CoverageCalculator(_adjacency(topo), max_age=6)
        for node in topo.nodes:
            for age in range(7):
                assert set(calc.multiset(node, age)) == set(calc.support(node, age))

    def test_recurrence_holds(self):
        """M(i,a) = M(i,a-1) + sum of transmitting neighbors' M(j,a-1)."""
        topo = erdos_renyi_topology(10, seed=2)
        adj = _adjacency(topo)
        calc = CoverageCalculator(adj, max_age=5)
        for i in topo.nodes:
            for age in range(1, 6):
                expected = Counter(calc.multiset(i, age - 1))
                for j in adj[i]:
                    if calc.transmitted(j, age - 1):
                        expected.update(calc.multiset(j, age - 1))
                assert calc.multiset(i, age) == expected

    def test_transmission_stops_after_saturation(self):
        topo = line_topology(4)
        calc = CoverageCalculator(_adjacency(topo), max_age=8)
        # Node 0 saturates once it has heard from node 3 (age 3).
        sat = calc.saturation_age(0)
        assert sat == 3
        assert calc.transmitted(0, 0)
        assert not calc.transmitted(0, sat + 1)

    def test_full_support_is_component(self):
        topo = line_topology(5)
        calc = CoverageCalculator(_adjacency(topo), max_age=10)
        assert calc.full_support(2) == set(range(5))

    def test_disconnected_component(self):
        adj = {0: [1], 1: [0], 2: [3], 3: [2]}
        calc = CoverageCalculator(adj, max_age=4)
        assert calc.full_support(0) == {0, 1}
        assert calc.full_support(2) == {2, 3}

    def test_isolated_node(self):
        adj = {0: []}
        calc = CoverageCalculator(adj, max_age=3)
        assert calc.full_support(0) == {0}
        assert not calc.transmitted(0, 1)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=3, max_value=14), seed=st.integers(0, 100))
    def test_multiplicities_positive_and_monotone(self, n, seed):
        topo = erdos_renyi_topology(n, seed=seed)
        calc = CoverageCalculator(_adjacency(topo), max_age=5)
        for node in topo.nodes:
            prev = Counter()
            for age in range(6):
                m = calc.multiset(node, age)
                assert all(v > 0 for v in m.values())
                for signer, count in prev.items():
                    assert m[signer] >= count  # multiplicities never shrink
                prev = m


class TestHeartbeatStore:
    def _rec(self, origin=1, round_no=5, delta=0, sig=b"s"):
        return HeartbeatRecord(origin=origin, round_no=round_no, delta_count=delta, signature=sig)

    def test_new_then_dup(self):
        store = HeartbeatStore(window=10)
        assert store.add(self._rec())[0] == "new"
        assert store.add(self._rec())[0] == "dup"

    def test_conflict_detected(self):
        """Same origin + round, different delta => equivocation material."""
        store = HeartbeatStore(window=10)
        store.add(self._rec(delta=0))
        status, existing = store.add(self._rec(delta=2, sig=b"s2"))
        assert status == "conflict"
        assert existing.delta_count == 0

    def test_drain_new(self):
        store = HeartbeatStore(window=10)
        store.add(self._rec(round_no=1))
        store.add(self._rec(round_no=2))
        assert len(store.drain_new()) == 2
        assert store.drain_new() == []

    def test_expiry(self):
        store = HeartbeatStore(window=3)
        for r in range(10):
            store.add(self._rec(round_no=r))
        dropped = store.expire(current_round=10)
        assert dropped == 7
        assert len(store) == 3
        assert store.get(1, 6) is None
        assert store.get(1, 7) is not None

    def test_expiry_drops_whole_rounds_across_origins(self):
        store = HeartbeatStore(window=3)
        for round_no in (3, 4, 5, 7):
            for origin in (0, 2, 5):
                store.add(self._rec(origin=origin, round_no=round_no))
        assert store.expire(current_round=9) == 9  # rounds 3, 4, 5
        assert sorted(store._records) == [(0, 7), (2, 7), (5, 7)]
        assert store.expire(current_round=9) == 0
        # An expired slot is forgotten entirely: the same record is new again.
        assert store.add(self._rec(origin=2, round_no=4))[0] == "new"
        assert store.expire(current_round=9) == 1

    def test_expiry_disabled(self):
        store = HeartbeatStore(window=3, expiry=False)
        for r in range(10):
            store.add(self._rec(round_no=r))
        assert store.expire(current_round=10) == 0
        assert len(store) == 10

    def test_latest_round_of(self):
        store = HeartbeatStore(window=10)
        assert store.latest_round_of(1) is None
        store.add(self._rec(round_no=3))
        store.add(self._rec(round_no=7))
        assert store.latest_round_of(1) == 7

    def test_serialized_size_grows(self):
        store = HeartbeatStore(window=100)
        empty = store.serialized_size()
        store.add(self._rec())
        assert store.serialized_size() > empty

    def test_records_from_distinct_origins_coexist(self):
        store = HeartbeatStore(window=10)
        assert store.add(self._rec(origin=1))[0] == "new"
        assert store.add(self._rec(origin=2))[0] == "new"
        assert len(store) == 2
