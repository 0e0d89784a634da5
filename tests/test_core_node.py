"""Unit tests for ReboundNode wiring, PathCache, and codec robustness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReboundConfig, ReboundSystem
from repro.core.node import PathCache
from repro.core.paths import PathComputer
from repro.net.message import decode
from repro.net.topology import chemical_plant_topology
from repro.sched.assign import ScheduleBuilder
from repro.sched.task import chemical_plant_workload


@pytest.fixture(scope="module")
def plant():
    topo = chemical_plant_topology()
    wl = chemical_plant_workload()
    return topo, wl


class TestPathCache:
    def test_cache_hit_returns_same_object(self, plant):
        topo, wl = plant
        builder = ScheduleBuilder(topo, wl, fconc=1)
        cache = PathCache(PathComputer(topo, wl, 1))
        schedule = builder.build()
        first = cache.paths_for(schedule)
        second = cache.paths_for(schedule)
        assert first is second

    def test_distinct_schedules_distinct_paths(self, plant):
        topo, wl = plant
        builder = ScheduleBuilder(topo, wl, fconc=1)
        cache = PathCache(PathComputer(topo, wl, 1))
        root = cache.paths_for(builder.build())
        child = cache.paths_for(builder.build(failed_nodes=[topo.node_by_name("N2")]))
        assert root is not child


class TestNodeWiring:
    def _system(self):
        topo, wl = chemical_plant_topology(), chemical_plant_workload()
        cfg = ReboundConfig(fmax=2, fconc=1, variant="multi", rsa_bits=256)
        return ReboundSystem(topo, wl, cfg, seed=1)

    def test_mode_adoption_idempotent(self):
        system = self._system()
        node = system.nodes[0]
        switches_before = len(node.mode_switches)
        node._adopt_mode(node.current_scenario, 5)  # same scenario: no-op
        assert len(node.mode_switches) == switches_before

    def test_traffic_accounting_off_by_default(self):
        system = self._system()
        system.run(4)
        for node in system.nodes.values():
            assert node.traffic_bytes == {"payload": 0, "rebound": 0, "auditing": 0}

    def test_traffic_accounting_when_enabled(self):
        system = self._system()
        for node in system.nodes.values():
            node.traffic_accounting = True
        system.run(4)
        total = sum(
            sum(node.traffic_bytes.values()) for node in system.nodes.values()
        )
        assert total > 0

    def test_mode_switch_history_records_scenarios(self):
        from repro.faults.adversary import CrashBehavior

        system = self._system()
        system.run(8)
        victim = system.topology.node_by_name("N4")
        system.inject_now(victim, CrashBehavior())
        system.run(8)
        node = system.nodes[0]
        assert len(node.mode_switches) >= 2  # initial + post-fault
        last_round, last_scenario = node.mode_switches[-1]
        assert last_scenario.fault_count >= 1


def _er20_multi(**kwargs):
    from repro.net.topology import erdos_renyi_topology
    from repro.sched.workload import WorkloadGenerator

    workload = WorkloadGenerator(seed=0, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(fmax=1, fconc=1, variant="multi", rsa_bits=256)
    return ReboundSystem(
        erdos_renyi_topology(20, seed=0), workload, config, seed=0, **kwargs
    )


def _fresh_message(output, sender, destinations):
    """A per-recipient message built anew, as if nothing were shared."""
    from repro.core.forwarding import RoundMessage

    packets = []
    for dest in destinations:
        packets.extend(output.packets_by_next_hop.get(dest, []))
    return RoundMessage(
        sender=sender, round_no=output.round_no, records=output.records,
        aggregates=output.aggregates, evidence=output.evidence,
        packets=tuple(packets),
    )


def _capture(system):
    """Record every node's round outputs, keyed by (node, round), and every
    delivery as (delivery round, sender, destination, payload)."""
    outputs, deliveries = {}, []
    for node_id, node in system.nodes.items():
        def end_round(node_id=node_id, inner=node.forwarding.end_round):
            output = inner()
            outputs[node_id, output.round_no] = output
            return output

        def on_receive(round_no, sender, payload, node_id=node_id,
                       inner=node.on_receive):
            deliveries.append((round_no, sender, node_id, payload))
            inner(round_no, sender, payload)

        node.forwarding.end_round = end_round
        node.on_receive = on_receive
    return outputs, deliveries


class TestSharedRoundMessage:
    """A sender builds one wire message per distinct packet tuple per round;
    sharing it must be invisible on the wire and in every byte count."""

    ROUNDS = 8

    def test_equal_packet_tuples_share_one_object_with_fresh_bytes(self):
        from repro.net.message import encode

        system = _er20_multi()
        outputs, deliveries = _capture(system)
        system.run(self.ROUNDS)
        last = self.ROUNDS - 1  # the last send round fully delivered
        by_sender = {}
        for round_no, sender, dest, msg in deliveries:
            if round_no - 1 != last:
                continue
            by_sender.setdefault(sender, []).append((dest, msg))
            fresh = _fresh_message(outputs[sender, last], sender, [dest])
            assert encode(msg) == encode(fresh)
        shared = 0
        for sends in by_sender.values():
            groups = {}
            for dest, msg in sends:
                groups.setdefault(msg.packets, []).append(msg)
            for msgs in groups.values():
                assert all(m is msgs[0] for m in msgs)
                shared += len(msgs) > 1
        assert shared >= len(system.nodes) // 2

    def test_traffic_accounting_and_link_bytes_match_per_recipient_messages(
        self, monkeypatch
    ):
        from repro.core.forwarding import RoundOutput

        def run():
            system = _er20_multi()
            for node in system.nodes.values():
                node.traffic_accounting = True
            link_bytes = []
            for _ in range(self.ROUNDS):
                system.run_round()
                link_bytes.append(
                    system.network.bytes_in_round(system.network.round_no)
                )
            return (
                {n: dict(node.traffic_bytes) for n, node in system.nodes.items()},
                link_bytes,
            )

        shared = run()
        monkeypatch.setattr(RoundOutput, "message_for", _fresh_message)
        per_recipient = run()
        assert shared == per_recipient
        assert sum(sum(t.values()) for t in shared[0].values()) > 0

    def test_impairing_one_link_leaves_the_shared_message_intact(self):
        from repro.chaos.impairments import ChaosRoundNetwork, ImpairmentPlan
        from repro.net.message import encode
        from repro.net.topology import erdos_renyi_topology

        sender = 0
        plan_round = self.ROUNDS - 1
        target = erdos_renyi_topology(20, seed=0).neighbors(sender)[0]
        plan = ImpairmentPlan(
            seed=3, corrupt_prob=1.0, dup_prob=1.0,
            target_links=frozenset({(sender, target)}),
            start_round=plan_round, end_round=plan_round + 1,
        )
        system = _er20_multi(
            network_factory=lambda t: ChaosRoundNetwork(t, plan)
        )
        outputs, deliveries = _capture(system)
        system.run(self.ROUNDS)
        sent = [
            (dest, msg) for round_no, s, dest, msg in deliveries
            if s == sender and round_no - 1 == plan_round
        ]
        garbled = [msg for dest, msg in sent if dest == target]
        intact = [(dest, msg) for dest, msg in sent if dest != target]
        assert len(garbled) == 2 and all(type(m) is bytes for m in garbled)
        output = outputs[sender, plan_round]
        shared = {}
        for dest, msg in intact:
            assert shared.setdefault(msg.packets, msg) is msg
            assert encode(msg) == encode(_fresh_message(output, sender, [dest]))
        assert len(shared) < len(intact)  # some recipients did share
        clean = encode(_fresh_message(output, sender, [target]))
        assert all(m != clean for m in garbled)  # the link's copies were hit


class TestCodecRobustness:
    """The decoder faces bytes from Byzantine nodes; it must reject, never
    crash with anything but ValueError."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_decode_never_crashes(self, data):
        try:
            decode(data)
        except ValueError:
            pass  # the only acceptable failure mode

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(min_size=1, max_size=64))
    def test_truncations_of_valid_encodings_rejected(self, data):
        from repro.net.message import encode

        full = encode((1, data, "tag"))
        for cut in (1, len(full) // 2, len(full) - 1):
            try:
                decode(full[:cut])
            except ValueError:
                continue
            pytest.fail(f"truncated encoding at {cut} bytes decoded successfully")
