"""Unit tests for the forwarding layer, driven directly (no full system).

Integration tests exercise the layer through the runtime; these pin down
the layer's own contract: message validation, the detection rules, evidence
handling, aggregation state, and the transmission plan.
"""

from typing import Any, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounds import Bounds
from repro.core.config import ReboundConfig
from repro.core.evidence import EvidenceVerifier, LFD, lfd_body
from repro.core.forwarding import (
    DataPacket,
    ForwardingLayer,
    RoundMessage,
    RoundOutput,
    RuleAObservation,
    RuleBObservation,
    RuleCObservation,
    rule_a,
    rule_b,
    rule_c,
    _origin_masks,
)
from repro.core.heartbeat import AggregateHeartbeat, CoverageRegistry, HeartbeatRecord
from repro.core.identity import Directory
from repro.core.paths import PATH_DATA, Path, PathSet
from repro.crypto.hashing import hash_bytes
from repro.net.topology import ring_topology


def _make_layer(topo, node_id, directory, variant="basic", d_max=4,
                on_packet=None, coverage=None, cls=ForwardingLayer,
                **config_kwargs):
    config = ReboundConfig(
        fmax=1, fconc=1, variant=variant, d_max=d_max, rsa_bits=256,
        **config_kwargs,
    )
    for n in topo.controllers:
        directory.register(n)  # the coverage DP needs every controller's key
    crypto = directory.crypto_for(node_id)
    verifier = EvidenceVerifier(verify_signature=crypto.verify)
    received_evidence: List[Any] = []
    delivered: List[Any] = []
    layer = cls(
        node_id=node_id,
        topology=topo,
        config=config,
        crypto=crypto,
        verifier=verifier,
        on_new_evidence=received_evidence.append,
        on_packet=on_packet or (lambda *a: delivered.append(a)),
        coverage=coverage or CoverageRegistry(
            topo,
            d_max,
            {n: directory.ms_public(n) for n in topo.controllers},
            directory.group.q,
        ),
        bounds=Bounds.from_config(config, len(topo.controllers)),
    )
    layer.start(0)
    layer._test_evidence_events = received_evidence
    layer._test_delivered = delivered
    return layer


@pytest.fixture
def ring():
    topo = ring_topology(4)
    directory = Directory(rsa_bits=256, seed=5)
    for n in topo.nodes:
        directory.register(n)
    return topo, directory


def _own_record(directory, origin, round_no, delta=0, variant="basic"):
    crypto = directory.crypto_for(origin)
    from repro.core.evidence import heartbeat_body

    body = heartbeat_body(round_no, delta)
    if variant == "multi":
        value = crypto.ms_sign(body)
        sig = value.to_bytes(directory.group.element_size, "big")
    else:
        sig = crypto.sign(body)
    return HeartbeatRecord(origin=origin, round_no=round_no,
                           delta_count=delta, signature=sig)


def _msg(sender, round_no, records=(), evidence=(), packets=(), aggregates=()):
    return RoundMessage(sender=sender, round_no=round_no,
                        records=tuple(records), aggregates=tuple(aggregates),
                        evidence=tuple(evidence), packets=tuple(packets))


class TestMessageValidation:
    def test_wrong_sender_field_yields_lfd(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        layer.begin_round(2)
        layer.receive(2, 1, _msg(sender=3, round_no=1))  # spoofed sender
        assert (0, 1) in {l.link for l in layer.evidence.items()}

    def test_wrong_round_yields_lfd(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        layer.begin_round(5)
        layer.receive(5, 1, _msg(sender=1, round_no=2))  # stale round
        assert len(layer.evidence) == 1

    def test_non_roundmessage_ignored(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        layer.begin_round(2)
        layer.receive(2, 1, b"garbage")
        # Garbage is dropped silently here; Rule A catches the missing
        # message at end of round.
        assert len(layer.evidence) == 0

    def test_valid_heartbeat_accepted(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        rec = _own_record(directory, 1, 1)
        layer.begin_round(2)
        layer.receive(2, 1, _msg(sender=1, round_no=1, records=[rec]))
        assert layer.store.get(1, 1) is not None
        assert len(layer.evidence) == 0

    def test_forged_heartbeat_yields_lfd(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        rec = HeartbeatRecord(origin=2, round_no=1, delta_count=0,
                              signature=b"\x00\x20" + b"\x99" * 32)
        layer.begin_round(2)
        layer.receive(2, 1, _msg(sender=1, round_no=1, records=[rec]))
        assert len(layer.evidence) == 1  # LFD against the forwarding link

    @pytest.mark.parametrize("variant", ["basic", "multi"])
    @pytest.mark.parametrize("origin", [999, -1])
    def test_unregistered_origin_yields_lfd(self, ring, variant, origin):
        """A record whose origin has no key fails verification under either
        variant: one verification is counted, the forwarding link is
        accused, and nothing raises."""
        topo, directory = ring
        layer = _make_layer(topo, 0, directory, variant=variant)
        rec = HeartbeatRecord(origin=origin, round_no=1, delta_count=0,
                              signature=b"\x00\x20" + b"\x99" * 32)
        layer.begin_round(2)
        layer.receive(2, 1, _msg(sender=1, round_no=1, records=[rec]))
        assert {l.link for l in layer.evidence.items()} == {(0, 1)}
        counters = layer.crypto.total_counters()
        assert counters.rsa_verify + counters.ms_verify == 1
        assert counters.ms_combine_key == 0


class TestEquivocationDetection:
    def test_conflicting_heartbeats_produce_pom(self, ring):
        from repro.core.evidence import EquivocationPoM

        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        rec_a = _own_record(directory, 2, 1, delta=0)
        rec_b = _own_record(directory, 2, 1, delta=3)
        layer.begin_round(2)
        layer.receive(2, 1, _msg(sender=1, round_no=1, records=[rec_a]))
        layer.receive(2, 3, _msg(sender=3, round_no=1, records=[rec_b]))
        poms = [i for i in layer.evidence.items() if isinstance(i, EquivocationPoM)]
        assert len(poms) == 1
        assert poms[0].accused == 2


class TestRuleA:
    def test_silent_neighbor_gets_lfd(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        # Rounds 1-2 are the join grace period; run until Rule A is active.
        for r in (1, 2, 3):
            layer.begin_round(r)
            if r < 3:
                for j in (1, 3):
                    layer.receive(r, j, _msg(sender=j, round_no=r - 1,
                                             records=[_own_record(directory, j, r - 1)]))
            else:
                layer.receive(r, 1, _msg(sender=1, round_no=2,
                                         records=[_own_record(directory, 1, 2)]))
                # neighbor 3 stays silent
            layer.end_round()
        links = {l.link for l in layer.evidence.items() if isinstance(l, LFD)}
        assert (0, 3) in links
        assert (0, 1) not in links

    def test_excluded_neighbor_not_expected(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        # Make node 3 faulty in the local pattern via a verified PoM.
        from repro.core.evidence import EquivocationPoM, heartbeat_body

        crypto3 = directory.crypto_for(3)
        body_a, body_b = heartbeat_body(1, 0), heartbeat_body(1, 2)
        pom = EquivocationPoM(
            accused=3,
            body_a=body_a, sig_a=crypto3.sign(body_a),
            body_b=body_b, sig_b=crypto3.sign(body_b),
        )
        layer.submit_evidence(pom)
        assert 3 in layer.fault_pattern.nodes
        # Silence from node 3 must no longer trigger LFDs.
        for r in (1, 2, 3, 4):
            layer.begin_round(r)
            layer.receive(r, 1, _msg(sender=1, round_no=r - 1,
                                     records=[_own_record(directory, 1, r - 1)]))
            layer.end_round()
        links = {l.link for l in layer.evidence.items() if isinstance(l, LFD)}
        assert (0, 3) not in links


class TestEvidenceFlow:
    def test_valid_lfd_adopted_and_forwarded(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        crypto2 = directory.crypto_for(2)
        lfd = LFD(a=2, b=3, declared_round=1, issuer=2,
                  signature=crypto2.sign(lfd_body(2, 3, 1)))
        layer.begin_round(2)
        layer.receive(2, 1, _msg(sender=1, round_no=1,
                                 records=[_own_record(directory, 1, 1)],
                                 evidence=[lfd]))
        assert lfd in layer.evidence
        output = layer.end_round()
        assert lfd in output.evidence  # forwarded exactly once

    def test_invalid_evidence_blames_forwarder(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        bogus = LFD(a=2, b=3, declared_round=1, issuer=2, signature=b"\x00\x01\x00")
        layer.begin_round(2)
        layer.receive(2, 1, _msg(sender=1, round_no=1,
                                 records=[_own_record(directory, 1, 1)],
                                 evidence=[bogus]))
        assert bogus not in layer.evidence
        links = {l.link for l in layer.evidence.items() if isinstance(l, LFD)}
        assert (0, 1) in links

    def test_duplicate_evidence_not_reforwarded(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        crypto2 = directory.crypto_for(2)
        lfd = LFD(a=2, b=3, declared_round=1, issuer=2,
                  signature=crypto2.sign(lfd_body(2, 3, 1)))
        layer.begin_round(2)
        layer.receive(2, 1, _msg(sender=1, round_no=1,
                                 records=[_own_record(directory, 1, 1)],
                                 evidence=[lfd]))
        layer.end_round()
        layer.begin_round(3)
        layer.receive(3, 3, _msg(sender=3, round_no=2,
                                 records=[_own_record(directory, 3, 2)],
                                 evidence=[lfd]))
        output = layer.end_round()
        assert lfd not in output.evidence

    def test_lfd_issued_once_per_link(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        layer.begin_round(1)
        layer.issue_lfd(1, "rule-a")
        layer.issue_lfd(1, "rule-a")
        lfds = [i for i in layer.evidence.items() if isinstance(i, LFD)]
        assert len(lfds) == 1


class TestPackets:
    def _path(self, hops, path_id=77):
        return Path(path_id=path_id, kind=PATH_DATA, hops=tuple(hops),
                    flow_id=0, task_from=1, copy_from=0, task_to=2, copy_to=0)

    def _signed_packet(self, directory, path, origin_round, payload):
        from repro.core.evidence import data_body

        crypto = directory.crypto_for(path.hops[0])
        body = data_body(path.path_id, origin_round, hash_bytes(payload))
        return DataPacket(path_id=path.path_id, origin_round=origin_round,
                          payload=payload, origin=path.hops[0],
                          signature=crypto.sign(body, domain="auditing"))

    def test_sink_delivers_verified_packet(self, ring):
        topo, directory = ring
        delivered = []
        layer = _make_layer(topo, 0, directory,
                            on_packet=lambda *a: delivered.append(a))
        path = self._path([1, 0])
        layer.set_paths(PathSet([path]), stable_since=0)
        packet = self._signed_packet(directory, path, 1, b"reading")
        layer.begin_round(2)
        layer.receive(2, 1, _msg(sender=1, round_no=1,
                                 records=[_own_record(directory, 1, 1)],
                                 packets=[packet]))
        assert len(delivered) == 1
        assert delivered[0][2] == b"reading"

    def test_tampered_packet_rejected_with_lfd(self, ring):
        topo, directory = ring
        delivered = []
        layer = _make_layer(topo, 0, directory,
                            on_packet=lambda *a: delivered.append(a))
        path = self._path([1, 0])
        # Paths stable long before this round: the post-transition settling
        # grace must not apply, so the tampering is blamed.
        layer.set_paths(PathSet([path]), stable_since=-10)
        good = self._signed_packet(directory, path, 1, b"reading")
        tampered = DataPacket(path_id=good.path_id, origin_round=1,
                              payload=b"EVIL", origin=good.origin,
                              signature=good.signature)
        layer.begin_round(2)
        layer.receive(2, 1, _msg(sender=1, round_no=1,
                                 records=[_own_record(directory, 1, 1)],
                                 packets=[tampered]))
        assert not delivered
        links = {l.link for l in layer.evidence.items() if isinstance(l, LFD)}
        assert (0, 1) in links

    def test_relay_forwards_next_round(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 1, directory)
        path = self._path([0, 1, 2])
        layer.set_paths(PathSet([path]), stable_since=0)
        packet = self._signed_packet(directory, path, 1, b"x")
        layer.begin_round(2)
        layer.receive(2, 0, _msg(sender=0, round_no=1,
                                 records=[_own_record(directory, 0, 1)],
                                 packets=[packet]))
        output = layer.end_round()
        assert packet in output.packets_by_next_hop.get(2, [])

    def test_duplicate_packet_relayed_once(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 1, directory)
        path = self._path([0, 1, 2])
        layer.set_paths(PathSet([path]), stable_since=0)
        packet = self._signed_packet(directory, path, 1, b"x")
        layer.begin_round(2)
        msg = _msg(sender=0, round_no=1,
                   records=[_own_record(directory, 0, 1)], packets=[packet])
        layer.receive(2, 0, msg)
        layer.receive(2, 0, msg)  # second bus copy
        output = layer.end_round()
        assert len(output.packets_by_next_hop.get(2, [])) == 1

    def test_queue_packet_requires_source(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        path = self._path([1, 0])
        layer.set_paths(PathSet([path]), stable_since=0)
        with pytest.raises(ValueError):
            layer.queue_packet(path, b"nope")

    def test_zero_length_path_delivers_locally(self, ring):
        topo, directory = ring
        delivered = []
        layer = _make_layer(topo, 0, directory,
                            on_packet=lambda *a: delivered.append(a))
        path = self._path([0])
        layer.set_paths(PathSet([path]), stable_since=0)
        layer.begin_round(1)
        layer.queue_packet(path, b"self")
        assert len(delivered) == 1


class TestRoundOutput:
    def test_message_for_merges_packets(self):
        packet_a = DataPacket(path_id=1, origin_round=0, payload=b"a",
                              origin=0, signature=b"")
        packet_b = DataPacket(path_id=2, origin_round=0, payload=b"b",
                              origin=0, signature=b"")
        output = RoundOutput(
            round_no=3, records=(), aggregates=(), evidence=(),
            packets_by_next_hop={1: [packet_a], 2: [packet_b]},
            controller_neighbors=[1, 2],
        )
        msg = output.message_for(0, [1, 2])
        assert set(msg.packets) == {packet_a, packet_b}
        only_1 = output.message_for(0, [1])
        assert only_1.packets == (packet_a,)


def _topology(nodes, edges):
    from repro.net.topology import Topology

    topo = Topology()
    for n in nodes:
        topo.add_node(n)
    for a, b in edges:
        topo.add_link(a, b)
    return topo


@st.composite
def _connected_graphs(draw):
    """(node ids, edges) of a random connected graph; the ids are sparse so
    a bit position can never coincide with a node's rank by accident."""
    nodes = draw(st.lists(st.integers(0, 63), min_size=2, max_size=9, unique=True))
    edges = {
        (nodes[k], nodes[draw(st.integers(0, k - 1))]) for k in range(1, len(nodes))
    }
    extra = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                          max_size=8))
    edges |= {(a, b) for a, b in extra if a != b}
    return nodes, sorted(edges)


def _rule_b_suspects(layer, j, r_origin):
    """Does Rule B, at the horizon of origin round ``r_origin`` and with
    the coverage masks ``layer`` holds, open a suspicion against ``j``?"""
    obs = RuleBObservation(
        node=layer.node_id, round_no=r_origin + layer.bounds.rule_b_horizon,
        joined_round=0, last_evidence_change=-(10**9), origin_round=r_origin,
        join_grace=layer.bounds.join_grace,
        deferral=layer.bounds.rule_b_deferral,
        live=(j,), heard=frozenset({j}),
        expected={j: layer._coverage.support_bits(j, layer.bounds.d_max)},
        delivered={j: layer._delivered[j].get(r_origin, 0)},
        accused=frozenset(), pending={}, pattern=layer.fault_pattern,
    )
    return j in rule_b(obs).pending


class TestCoverageMasks:
    """Rule B's int masks against the set algebra they replace."""

    @settings(max_examples=40, deadline=None)
    @given(graph=_connected_graphs(), data=st.data())
    def test_shortfall_is_set_difference(self, graph, data):
        nodes, edges = graph
        topo = _topology(nodes, edges)
        layer = _make_layer(topo, nodes[0], Directory(rsa_bits=256, seed=5),
                            d_max=3)
        calc = layer._coverage
        for node in nodes:
            for age in range(calc.max_age + 1):
                # The DP's support is the radius-``age`` ball (Rule B's
                # one-hop-per-round propagation).
                ball = {x for x in nodes if topo.shortest_path_length(node, x) <= age}
                assert calc.support(node, age) == ball
                assert calc.support_bits(node, age) == sum(1 << x for x in ball)
        j = data.draw(st.sampled_from(nodes))
        delivered = data.draw(st.sets(st.sampled_from(nodes)))
        records = [HeartbeatRecord(origin=origin, round_no=7, delta_count=0,
                                   signature=b"") for origin in delivered]
        for round_no, bits in _origin_masks(records, layer._controllers).items():
            layer._delivered[j][round_no] = bits
        expected = calc.support(j, layer.bounds.d_max)
        assert _rule_b_suspects(layer, j, 7) == bool(expected - delivered)
        assert _rule_b_suspects(layer, j, 8) == bool(expected)

    @pytest.mark.parametrize("origin", [-1, 1 << 20])
    def test_unverified_bus_record_origin_stays_out_of_the_mask(self, origin):
        """A bus member outside the spot-check subset stores a record
        unverified; its origin id is sender-controlled and must not reach
        ``1 << origin``."""
        bus = _topology(range(4), [])
        bus.add_bus(range(4))
        layer = _make_layer(bus, 0, Directory(rsa_bits=256, seed=5))
        rec = next(
            rec for rec in (
                HeartbeatRecord(origin=origin, round_no=r, delta_count=0,
                                signature=b"forged")
                for r in range(1, 64)
            )
            if layer._spot_check_skip(1, rec)
        )
        layer.begin_round(rec.round_no + 1)
        layer.receive(rec.round_no + 1, 1,
                      _msg(sender=1, round_no=rec.round_no, records=[rec]))
        assert layer.store.get(origin, rec.round_no) is rec
        assert layer._delivered[1].get(rec.round_no, 0) == 0

    def test_each_system_keeps_its_own_calculator_and_verdict(self):
        """Two systems whose fault-adjusted graphs coincide still hold
        distinct calculators; a node that is controller 4 of five in one
        and 4 of four in the other keeps its own verdict in each."""
        from repro.core.evidence import EquivocationPoM, heartbeat_body

        ring_dir = Directory(rsa_bits=256, seed=5)
        ring5 = ring_topology(5)
        for n in ring5.nodes:
            ring_dir.register(n)
        x = _make_layer(ring5, 0, ring_dir)
        signer = ring_dir.crypto_for(3)
        body_a, body_b = heartbeat_body(1, 0), heartbeat_body(1, 2)
        x.submit_evidence(EquivocationPoM(
            accused=3, body_a=body_a, sig_a=signer.sign(body_a),
            body_b=body_b, sig_b=signer.sign(body_b),
        ))
        assert 3 in x.fault_pattern.nodes
        r = 2
        x.begin_round(r + 1)
        x.receive(r + 1, 1, _msg(sender=1, round_no=r, records=[
            _own_record(ring_dir, origin, r) for origin in (0, 1, 2, 4)
        ]))
        assert x._coverage.support(1, x.bounds.d_max) == {0, 1, 2, 4}
        assert not _rule_b_suspects(x, 1, r)

        other = _topology([0, 1, 2, 4], [(0, 1), (1, 2), (4, 0)])
        y = _make_layer(other, 0, Directory(rsa_bits=256, seed=6))
        assert y._coverage is not x._coverage
        d_max = x.bounds.d_max
        assert y._coverage.support(1, d_max) == x._coverage.support(1, d_max)
        assert y.coverage.for_pattern(y.fault_pattern) is y._coverage
        assert x.coverage.for_pattern(x.fault_pattern) is x._coverage
        assert not _rule_b_suspects(x, 1, r)
        assert _rule_b_suspects(y, 1, r)


def _column_layers(receivers):
    """MULTI layers for ``receivers`` of sender 1, sharing one directory and
    one coverage registry (as a system's nodes do)."""
    topo = _topology([0, 1, 2, 3], [(0, 1), (1, 2), (1, 3), (2, 3)])
    directory = Directory(rsa_bits=256, seed=5)
    for n in topo.nodes:
        directory.register(n)
    coverage = CoverageRegistry(
        topo, 4, {n: directory.ms_public(n) for n in topo.controllers},
        directory.group.q,
    )
    return directory, [
        _make_layer(topo, n, directory, variant="multi", coverage=coverage)
        for n in receivers
    ]


def _fresh_aggregate(directory, sender, origin_round, digest, offset=0):
    """``sender``'s aggregate at age 0: its own heartbeat signature alone
    (``offset`` breaks it)."""
    from repro.core.evidence import heartbeat_body

    value = directory.crypto_for(sender).ms_sign(heartbeat_body(origin_round, 0))
    return AggregateHeartbeat(origin_round, value + offset, digest)


def _deliver(layers, r, msg):
    for layer in layers:
        layer.begin_round(r)
        layer.receive(r, msg.sender, msg)


class TestAggregateColumns:
    """Every recipient of one sender message reads one shared column per
    epoch and round, and still applies its own epoch, probe rule, quota
    and counters."""

    def test_each_recipient_judges_under_its_own_digest(self):
        directory, (a, b) = _column_layers((0, 2))
        b.issue_lfd(3, "rule-a")  # b's evidence, and so its digest, differ
        assert a.epoch_digest != b.epoch_digest
        fallback = b.bounds.multi_fallback

        def send(r):
            aggregate = _fresh_aggregate(directory, 1, r - 1, a.epoch_digest)
            _deliver((a, b), r, _msg(sender=1, round_no=r - 1, aggregates=[aggregate]))

        # Within b's fallback window the mismatch is explained: no probe.
        r = b.last_evidence_change + fallback
        send(r)
        assert a._delivered[1][r - 1] == 1 << 1
        assert r - 1 not in b._delivered[1]
        assert {key[0] for key in directory._columns} == {
            a.epoch_digest, b.epoch_digest
        }
        assert a._probe_until < r and b._probe_until < r
        # One round past it, the same mismatch is a storm symptom.
        send(r + 1)
        assert b._probe_until == r + 1 + b.bounds.probe
        assert a._probe_until < r + 1

    def test_a_column_is_never_served_in_a_later_round(self):
        directory, (a,) = _column_layers((0,))
        aggregates = (_fresh_aggregate(directory, 1, 4, a.epoch_digest),)
        a.begin_round(5)
        first = a._aggregate_column(1, aggregates, a.epoch_digest)
        assert a._aggregate_column(1, aggregates, a.epoch_digest) is first
        assert [row[2] for row in first.rows] == [0] and first.rows[0][5]
        # The same tuple object a round later: one round older, and the
        # lone signature no longer covers the age-1 support.
        a.begin_round(6)
        later = a._aggregate_column(1, aggregates, a.epoch_digest)
        assert later is not first
        assert [row[2] for row in later.rows] == [1] and not later.rows[0][5]

    def test_capped_sender_admits_the_unit_charge_prefix(self):
        from repro.core.quotas import AdmissionQuotas
        from repro.obs.events import EV_QUOTA_DROP

        directory, (a,) = _column_layers((0,))
        a.quotas.caps["aggregates"] = 2
        r = 6
        aggregates = [  # ages 0..3, the oldest first; only age 0 verifies
            _fresh_aggregate(directory, 1, origin, a.epoch_digest)
            for origin in (2, 3, 4, 5)
        ]
        traced = []
        a._trace = lambda kind, data: traced.append(kind)
        a.begin_round(r)
        reference = AdmissionQuotas(a.bounds)
        reference.caps = dict(a.quotas.caps)
        reference.begin_round(r)
        units = [reference.charge(1, "aggregates")[0] for _ in aggregates]
        assert units == [True, True, False, False]
        a.receive(r, 1, _msg(sender=1, round_no=r - 1, aggregates=aggregates))
        counters = a.crypto.counters["forwarding"]
        assert counters.ms_verify == 2  # the admitted prefix only
        assert (a.quotas.total_charged, a.quotas.total_dropped) == (2, 2)
        assert a.quotas.suspects == reference.suspects == {1}
        assert traced.count(EV_QUOTA_DROP) == 1
        # The admitted rows are origins 2 and 3 (ages 3 and 2): both fail.
        assert a._delivered[1] == {} and a._probe_until == r + a.bounds.probe

    def test_tampered_destination_gets_its_own_column(self):
        import dataclasses

        from repro.core.runtime import ReboundSystem
        from repro.faults.adversary import AdversaryBehavior
        from repro.net.topology import grid_topology
        from repro.sched.task import Workload

        class RewriteOneDestination(AdversaryBehavior):
            def tamper(self, round_no, sender, destination, payload):
                if destination != 1 or not isinstance(payload, RoundMessage):
                    return payload
                return dataclasses.replace(payload, aggregates=tuple(
                    dataclasses.replace(agg, sig_value=agg.sig_value + 1)
                    for agg in payload.aggregates
                ))

        system = ReboundSystem(
            grid_topology(3, 3), Workload([]),
            ReboundConfig(fmax=1, fconc=1, variant="multi", rsa_bits=256), seed=0,
        )
        system.run(system.config.d_max + 3)
        system.inject_now(4, RewriteOneDestination())
        system.run(2)  # tampered in one round, judged in the next
        r = system.round_no
        columns = [
            column for key, (_aggs, column) in system.directory._columns.items()
            if key[2] == 4
        ]
        assert len(columns) == 2
        assert sorted(all(row[5] for row in c.rows) for c in columns) == [False, True]
        victim = system.nodes[1].forwarding
        assert victim._probe_until == r + victim.bounds.probe
        assert r - 1 not in victim._delivered[4]
        for neighbour in (3, 5, 7):
            layer = system.nodes[neighbour].forwarding
            assert layer._probe_until < r
            assert layer._delivered[4][r - 1] == 1 << 4

    @staticmethod
    def _er40_multi():
        from repro.core.runtime import ReboundSystem
        from repro.net.topology import erdos_renyi_topology
        from repro.sched.task import Workload

        topology = erdos_renyi_topology(40, seed=0)
        system = ReboundSystem(
            topology, Workload([]),
            ReboundConfig(fmax=1, fconc=1, variant="multi", rsa_bits=256), seed=0,
        )
        system.run(system.config.d_max + 3)
        return topology, system

    def test_one_group_equation_per_sender_message_not_per_recipient(self):
        """Operation counts, not times: on a fault-free ER-40 MULTI run each
        round builds one column per sender, checks each of its rows once --
        fewer checks than deliveries -- and leaves no aggregate verdict in
        the entry memo."""
        topology, system = self._er40_multi()
        deliveries = sum(len(topology.neighbors(n)) for n in topology.controllers)
        for _ in range(3):
            system.run_round()
            columns = [column for _aggs, column in system.directory._columns.values()]
            assert len({key[2] for key in system.directory._columns}) == len(columns) == 40
            assert all(row[5] for c in columns for row in c.rows)
            assert 0 < sum(len(c.rows) for c in columns) < deliveries
        assert not [key for key in system.directory.verdicts if key[0] == "ms"]

    def test_column_builds_hash_each_body_once_per_round(self, monkeypatch):
        """On the same run the column builds hash each distinct body to the
        group at most once per round, however many columns check it, and
        keep no body hash past its round."""
        from repro.core.identity import NodeCrypto

        _topology, system = self._er40_multi()
        group = system.directory.group
        hash_to_group, warm_batch = group.hash_to_group, NodeCrypto.ms_warm_batch
        hashed: List[bytes] = []
        building = [False]

        def counting_hash(body):
            if building[0]:
                hashed.append(body)
            return hash_to_group(body)

        def building_warm_batch(crypto, entries):
            building[0] = True
            try:
                return warm_batch(crypto, entries)
            finally:
                building[0] = False

        monkeypatch.setattr(group, "hash_to_group", counting_hash)
        monkeypatch.setattr(NodeCrypto, "ms_warm_batch", building_warm_batch)
        for _ in range(3):
            hashed.clear()
            system.run_round()
            rows = sum(len(c.rows) for _aggs, c in system.directory._columns.values())
            assert hashed and len(hashed) == len(set(hashed)) < rows
            # The dict holds this round's bodies only.
            assert set(hashed) == set(system.directory._body_hashes)


def _empty_pattern(nodes=(), links=()):
    from repro.sched.modegen import FailureScenario

    return FailureScenario(nodes=frozenset(nodes), links=frozenset(links))


#: The windows of a d_max-3 deployment, as the rule observations carry them.
_BOUNDS = Bounds.from_config(ReboundConfig(d_max=3), n=4)


class TestRuleAFunction:
    """rule_a as a pure function: live (1, 3), only 1 heard."""

    def _lfds(self, r, joined=0, last_change=-(10**9)):
        return rule_a(RuleAObservation(
            r, joined, last_change, (1, 3), frozenset({1}),
            _BOUNDS.join_grace, _BOUNDS.rule_a_suspension,
        ))

    def test_suspended_at_join(self):
        assert self._lfds(6, joined=5) == []
        assert self._lfds(7, joined=5) == [3]

    def test_suspended_two_rounds_after_an_evidence_change(self):
        assert self._lfds(11, last_change=10) == []
        assert self._lfds(12, last_change=10) == []
        assert self._lfds(13, last_change=10) == [3]


class TestRuleBFunction:
    """rule_b as a pure function at node 0, d_max 3 (slack and grace 5),
    neighbor 1 expected to relay origins {0, 1, 2} (mask 0b111)."""

    D_MAX = _BOUNDS.d_max

    def _obs(self, r, delivered=0b011, joined=0, last_change=-(10**9),
             accused=(), pending=None, pattern=None):
        return RuleBObservation(
            node=0, round_no=r, joined_round=joined,
            last_evidence_change=last_change, origin_round=r - 1 - self.D_MAX,
            join_grace=_BOUNDS.join_grace, deferral=_BOUNDS.rule_b_deferral,
            live=(1,), heard=frozenset({1}),
            expected={1: 0b111}, delivered={1: delivered},
            accused=frozenset(accused), pending=pending or {},
            pattern=pattern or _empty_pattern(),
        )

    def test_shortfall_opens_a_suspicion_not_an_lfd(self):
        decision = rule_b(self._obs(20))
        assert decision.lfds == []
        assert decision.pending == {1: (20, 0b111)}
        assert decision.probe
        full = rule_b(self._obs(20, delivered=0b111))
        assert full.pending == {} and not full.probe

    def test_horizon_waits_out_the_stable_floor(self):
        # Origin round r - 1 - d_max must reach last change + slack (15).
        assert rule_b(self._obs(18, last_change=10)).pending == {}
        assert 1 in rule_b(self._obs(19, last_change=10)).pending

    def test_horizon_starts_after_the_join(self):
        # Origin round r - 1 - d_max must reach joined + 1 (21).
        assert rule_b(self._obs(24, joined=20)).pending == {}
        assert 1 in rule_b(self._obs(25, joined=20)).pending

    def test_pom_explained_shortfall_is_never_suspected(self):
        assert rule_b(self._obs(20, accused={2})).pending == {}
        # An accused node outside the expected support explains nothing.
        assert 1 in rule_b(self._obs(20, accused={5})).pending

    def test_pom_arriving_later_drops_the_suspicion(self):
        decision = rule_b(self._obs(22, delivered=0b111, accused={2},
                                    pending={1: (20, 0b111)}))
        assert decision.lfds == [] and decision.pending == {}

    def test_suspicion_matures_after_the_grace(self):
        held = rule_b(self._obs(24, delivered=0b111, pending={1: (20, 0b111)}))
        assert held.lfds == [] and held.pending == {1: (20, 0b111)}
        assert held.probe
        matured = rule_b(self._obs(25, delivered=0b111, pending={1: (20, 0b111)}))
        assert matured.lfds == [1] and matured.pending == {}

    @pytest.mark.parametrize("pattern", [
        _empty_pattern(nodes={1}), _empty_pattern(links={(0, 1)}),
    ])
    def test_pattern_exclusion_drops_the_suspicion(self, pattern):
        decision = rule_b(self._obs(25, delivered=0b111, pattern=pattern,
                                    pending={1: (20, 0b111)}))
        assert decision.lfds == [] and decision.pending == {}

    def test_observation_is_not_mutated(self):
        pending = {1: (20, 0b111)}
        rule_b(self._obs(25, pending=pending))
        assert pending == {1: (20, 0b111)}

    def test_blessing_drops_a_suspicion_raised_before_it(self, ring):
        from repro.core.blessing import Blessing

        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        layer._pending_rule_b = {1: (3, 0b11), 3: (3, 0b1001)}
        layer.submit_evidence(Blessing(node_id=1, as_of_round=3, epoch=1,
                                       signature=b""))
        layer.submit_evidence(Blessing(node_id=3, as_of_round=2, epoch=1,
                                       signature=b""))
        assert layer._pending_rule_b == {3: (3, 0b1001)}


class TestRuleCFunction:
    """rule_c as a pure function at node 0, mode switched at round 10;
    upstream 1 owes packet (7, origin round)."""

    def _lfds(self, origin_round, r=20, joined=0, seen=(), pattern=None):
        return rule_c(RuleCObservation(
            node=0, round_no=r, joined_round=joined, paths_stable_since=10,
            join_grace=_BOUNDS.join_grace, settle=_BOUNDS.rule_c_settle,
            expected=((1, (7, origin_round)),), seen=frozenset(seen),
            pattern=pattern or _empty_pattern(),
        ))

    def test_settle_window_after_a_mode_switch(self):
        assert self._lfds(13) == []
        assert self._lfds(14) == [1]

    def test_seen_packet_is_not_missing(self):
        assert self._lfds(14, seen={(7, 14)}) == []

    def test_suspended_at_join(self):
        assert self._lfds(14, r=20, joined=19) == []

    @pytest.mark.parametrize("pattern", [
        _empty_pattern(nodes={1}), _empty_pattern(links={(0, 1)}),
    ])
    def test_excluded_upstream_is_not_accused(self, pattern):
        assert self._lfds(14, pattern=pattern) == []


class TestOmissionApply:
    """ForwardingLayer applies the rules' decisions in one place."""

    def _layer(self, ring, switch_mode):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        paths = [
            Path(path_id=pid, kind=PATH_DATA, hops=hops, flow_id=0, task_from=1,
                 copy_from=0, task_to=2, copy_to=0)
            for pid, hops in ((70, (1, 0)), (71, (3, 0)))
        ]
        layer.set_paths(PathSet(paths), stable_since=0)
        if switch_mode:
            # The node adopts a new mode on every evidence change.
            layer.on_new_evidence = lambda items: layer.set_paths(
                layer.paths, layer._round)
        layer.begin_round(10)
        layer._got_message_from.update({1, 3})
        return layer

    def _lfd_links(self, layer):
        return sorted(i.link for i in layer.evidence.items() if isinstance(i, LFD))

    def test_rule_b_observes_after_rule_a(self, ring):
        """Neighbor 3 is silent and neighbor 1 relayed nothing: Rule A's LFD
        moves the evidence epoch, so Rule B's horizon is suspended in the
        same round and no suspicion opens against 1."""
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        layer.begin_round(10)
        layer._got_message_from.add(1)
        layer._detect_omissions()
        assert self._lfd_links(layer) == [(0, 3)]
        assert layer._pending_rule_b == {}

    def test_rule_c_accuses_every_silent_upstream(self, ring):
        layer = self._layer(ring, switch_mode=False)
        layer._detect_omissions()
        assert self._lfd_links(layer) == [(0, 1), (0, 3)]

    def test_rule_c_stops_once_its_lfd_switches_the_mode(self, ring):
        layer = self._layer(ring, switch_mode=True)
        layer._detect_omissions()
        assert self._lfd_links(layer) == [(0, 1)]

    def test_rule_c_skips_an_upstream_its_earlier_lfd_excluded(self):
        """Node 5 misses packets from upstreams 6 then 1, with link (1, 2)
        already declared (fmax 1).  Its LFD on (5, 6) makes the budget
        normalization blame node 1, so no LFD follows against 1."""
        topo = _topology([1, 2, 5, 6], [(5, 6), (5, 1), (1, 2)])
        directory = Directory(rsa_bits=256, seed=5)
        layer = _make_layer(topo, 5, directory)
        layer.submit_evidence(LFD(a=1, b=2, declared_round=0, issuer=1,
                                  signature=directory.crypto_for(1).sign(
                                      lfd_body(1, 2, 0))))
        layer.set_paths(PathSet([
            Path(path_id=pid, kind=PATH_DATA, hops=hops, flow_id=0, task_from=1,
                 copy_from=0, task_to=2, copy_to=0)
            for pid, hops in ((70, (6, 5)), (71, (1, 5)))
        ]), stable_since=0)
        layer.begin_round(10)
        layer._got_message_from.update({1, 6})
        layer._detect_omissions()
        assert 1 in layer.fault_pattern.nodes
        assert self._lfd_links(layer) == [(1, 2), (5, 6)]

    def test_every_lfd_is_tagged_with_its_rule(self, ring):
        from repro.obs.events import EV_LFD_ISSUED
        from repro.obs.recorder import FlightRecorder

        layer = self._layer(ring, switch_mode=False)
        with FlightRecorder(capacity=64).recording() as recorder:
            layer._detect_omissions()
        assert [
            (e.data["link"], e.data["rule"])
            for e in recorder.events() if e.kind == EV_LFD_ISSUED
        ] == [([0, 1], "rule-c"), ([0, 3], "rule-c")]
        with pytest.raises(ValueError, match="unknown LFD rule"):
            layer.issue_lfd(1, "rule-d")


class TestUnprotectedMode:
    def test_no_heartbeats_when_disabled(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory, protocol_enabled=False)
        layer.begin_round(1)
        output = layer.end_round()
        assert output.records == ()
        assert output.aggregates == ()

    def test_no_lfds_when_disabled(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory, protocol_enabled=False)
        for r in range(1, 6):
            layer.begin_round(r)
            layer.end_round()  # everyone silent; nothing detected
        assert len(layer.evidence) == 0


class TestStorageAccounting:
    def test_storage_grows_with_heartbeats(self, ring):
        topo, directory = ring
        layer = _make_layer(topo, 0, directory)
        before = layer.storage_bytes()
        layer.begin_round(2)
        layer.receive(2, 1, _msg(sender=1, round_no=1,
                                 records=[_own_record(directory, 1, 1)]))
        assert layer.storage_bytes() > before
