"""Tests for heartbeat records, storage, and aggregate coverage."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.heartbeat import (
    AggregateHeartbeat,
    HeartbeatStore,
    CoverageCalculator,
    CoverageRegistry,
    HeartbeatRecord,
)
from repro.net.topology import erdos_renyi_topology, line_topology, ring_topology
from repro.sched.modegen import FailureScenario

# A Mersenne prime as the group order; keys large enough that a wrong
# multiplicity cannot alias mod Q.
_Q = 2**127 - 1


def _keys(nodes):
    return {n: (0x9E3779B97F4A7C15 * (n + 1)) ** 2 % _Q for n in nodes}


def _adjacency(topo):
    return {n: topo.neighbors(n) for n in topo.nodes}


def _calc(adj, max_age):
    return CoverageCalculator(adj, max_age, _keys(adj), _Q)


def _reference_multisets(adj, max_age):
    """The signer-multiset recurrence, computed with ``Counter``:
    M(i,0) = {i: 1}; M(i,a) = M(i,a-1) + sum of M(j,a-1) over neighbors j
    whose support grew at age a-1 (every node transmits at age 0)."""
    nodes = sorted(adj)
    m = [{i: Counter({i: 1}) for i in nodes}]
    sent = [{i: True for i in nodes}]
    for age in range(1, max_age + 1):
        cur, grew = {}, {}
        for i in nodes:
            acc = Counter(m[age - 1][i])
            for j in adj[i]:
                if sent[age - 1].get(j):
                    acc.update(m[age - 1][j])
            cur[i] = acc
            grew[i] = set(acc) != set(m[age - 1][i])
        m.append(cur)
        sent.append(grew)
    return m


class TestCoverageCalculator:
    def test_age_zero_is_self(self):
        adj = _adjacency(line_topology(3))
        calc = _calc(adj, max_age=4)
        assert calc.aggregate_key(1, 0) == _keys(adj)[1]
        assert calc.support(1, 0) == {1}

    def test_support_is_ball(self):
        """Support at age a is exactly the set of nodes within distance a."""
        topo = ring_topology(6)
        calc = _calc(_adjacency(topo), max_age=5)
        for node in topo.nodes:
            for age in range(4):
                expected = {
                    other
                    for other in topo.nodes
                    if topo.shortest_path_length(node, other) <= age
                }
                assert calc.support(node, age) == expected

    def test_multiset_support_consistent(self):
        """The support mask, the support set and the signer set of the
        reference multiset agree, and the key is that multiset's key."""
        topo = erdos_renyi_topology(12, seed=9)
        adj = _adjacency(topo)
        keys = _keys(adj)
        calc = _calc(adj, max_age=6)
        reference = _reference_multisets(adj, 6)
        for node in topo.nodes:
            for age in range(7):
                ref = reference[age][node]
                assert set(ref) == set(calc.support(node, age))
                assert calc.support_bits(node, age) == sum(1 << s for s in ref)
                assert calc.aggregate_key(node, age) == (
                    sum(m * keys[s] for s, m in ref.items()) % _Q
                )

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=3, max_value=14), seed=st.integers(0, 100))
    def test_multiplicities_positive_and_monotone(self, n, seed):
        """The key is the key of a multiset whose multiplicities are positive
        and never shrink with age, so the support never shrinks either."""
        topo = erdos_renyi_topology(n, seed=seed)
        adj = _adjacency(topo)
        keys = _keys(adj)
        calc = _calc(adj, max_age=5)
        reference = _reference_multisets(adj, 5)
        for node in topo.nodes:
            prev, prev_bits = Counter(), 0
            for age in range(6):
                m = reference[age][node]
                assert all(v > 0 for v in m.values())
                for signer, count in prev.items():
                    assert m[signer] >= count  # multiplicities never shrink
                assert calc.aggregate_key(node, age) == (
                    sum(v * keys[s] for s, v in m.items()) % _Q
                )
                bits = calc.support_bits(node, age)
                assert bits & prev_bits == prev_bits
                prev, prev_bits = m, bits

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=14),
        seed=st.integers(0, 100),
        failed=st.sets(st.integers(0, 13), max_size=2),
        cut=st.lists(st.integers(0, 10**6), max_size=3),
    )
    def test_dp_matches_multiset_reference(self, n, seed, failed, cut):
        """For every (node, age) of a fault-adjusted ER topology, the
        aggregate key is sum(mult * pk) mod q over the reference multiset
        and the support mask is the set of the reference's signers."""
        topo = erdos_renyi_topology(n, seed=seed)
        edges = sorted(
            (a, b) for a in topo.controllers for b in topo.neighbors(a) if a < b
        )
        assert edges  # ER topologies are connected
        pattern = FailureScenario(
            nodes=frozenset(f for f in failed if f < n),
            links=frozenset(edges[c % len(edges)] for c in cut),
        )
        max_age = 6
        keys = _keys(topo.controllers)
        calc = CoverageRegistry(topo, max_age, keys, _Q).for_pattern(pattern)
        live = set(topo.controllers) - pattern.nodes
        adj = {
            i: [
                j for j in topo.neighbors(i)
                if j in live and (min(i, j), max(i, j)) not in pattern.links
            ]
            for i in live
        }
        reference = _reference_multisets(adj, max_age)
        for age in range(max_age + 2):  # past max_age clamps
            ref = reference[min(age, max_age)]
            for node in adj:
                expected_key = sum(m * keys[s] for s, m in ref[node].items()) % _Q
                assert calc.aggregate_key(node, age) == expected_key
                assert calc.support_bits(node, age) == sum(1 << s for s in ref[node])

    def test_recurrence_holds(self):
        """K(i,a) = K(i,a-1) + sum of transmitting neighbors' K(j,a-1) mod q."""
        topo = erdos_renyi_topology(10, seed=2)
        adj = _adjacency(topo)
        calc = _calc(adj, max_age=5)
        for i in topo.nodes:
            for age in range(1, 6):
                expected = calc.aggregate_key(i, age - 1)
                for j in adj[i]:
                    if calc.transmitted(j, age - 1):
                        expected += calc.aggregate_key(j, age - 1)
                assert calc.aggregate_key(i, age) == expected % _Q

    def test_transmission_stops_after_saturation(self):
        topo = line_topology(4)
        calc = _calc(_adjacency(topo), max_age=8)
        # Node 0 saturates once it has heard from node 3 (age 3).
        sat = calc.saturation_age(0)
        assert sat == 3
        assert calc.transmitted(0, 0)
        assert not calc.transmitted(0, sat + 1)

    def test_full_support_is_component(self):
        topo = line_topology(5)
        calc = _calc(_adjacency(topo), max_age=10)
        assert calc.full_support(2) == set(range(5))

    def test_disconnected_component(self):
        adj = {0: [1], 1: [0], 2: [3], 3: [2]}
        calc = _calc(adj, max_age=4)
        assert calc.full_support(0) == {0, 1}
        assert calc.full_support(2) == {2, 3}

    def test_isolated_node(self):
        adj = {0: []}
        calc = _calc(adj, max_age=3)
        assert calc.full_support(0) == {0}
        assert not calc.transmitted(0, 1)


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
