"""A full REBOUND controller node: forwarding + auditing + mode selection.

Each controller independently: floods/validates evidence (forwarding layer),
executes and audits tasks (auditing layer), and -- whenever its evidence
changes -- derives the failure pattern (KN, KL), looks up the precomputed
mode in its local copy of the mode tree, and switches to it *without any
coordination* (paper S2.6: no consensus, no coordinator).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.auditing import AuditingLayer, TaskRegistry
from repro.core.bounds import Bounds
from repro.core.config import ReboundConfig
from repro.core.evidence import EvidenceVerifier
from repro.core.forwarding import ForwardingLayer, RoundOutput
from repro.core.heartbeat import CoverageRegistry
from repro.core.identity import NodeCrypto
from repro.core.paths import PATH_DATA, PathComputer, PathSet
from repro.net.message import encoded_size
from repro.net.network import NodeProtocol
from repro.net.topology import ROLE_CONTROLLER, Topology
from repro.obs import recorder as _flight
from repro.obs.events import EV_MODE_SELECTED
from repro.sched.assign import ModeSchedule
from repro.sched.modegen import EMPTY_SCENARIO, FailureScenario, ModeTree
from repro.sched.task import Workload


class PathCache:
    """One system's cache of PATH(m) per mode schedule.

    Path computation is a deterministic function of public information, so
    sharing the cache across the system's nodes is fidelity-neutral.
    """

    def __init__(self, computer: PathComputer):
        self.computer = computer
        self._cache: Dict[Tuple, PathSet] = {}

    def paths_for(self, schedule: ModeSchedule) -> PathSet:
        key = (
            schedule.failed_nodes,
            schedule.failed_links,
            tuple(sorted(schedule.placements.items())),
            schedule.active_flows,
        )
        paths = self._cache.get(key)
        if paths is None:
            paths = self.computer.compute(schedule)
            self._cache[key] = paths
        return paths


class ReboundNode(NodeProtocol):
    """One controller running the complete REBOUND stack."""

    def __init__(
        self,
        node_id: int,
        topology: Topology,
        workload: Workload,
        config: ReboundConfig,
        crypto: NodeCrypto,
        registry: TaskRegistry,
        mode_tree: ModeTree,
        path_cache: PathCache,
        coverage: CoverageRegistry,
        bounds: Bounds,
    ):
        self.node_id = node_id
        self.topology = topology
        self.workload = workload
        self.config = config
        self.crypto = crypto
        self.registry = registry
        self.mode_tree = mode_tree
        self.path_cache = path_cache
        #: Optional durable store (repro.durability.NodeDurableStore);
        #: bound by the runtime when ReboundConfig.durability_enabled.
        self.durable = None

        self.auditing = AuditingLayer(
            node_id=node_id,
            workload=workload,
            registry=registry,
            crypto=crypto,
            submit_evidence=self._submit_evidence,
            send_on_path=self._send_on_path,
            pending_cap=bounds.pending_audit_cap,
        )
        self.forwarding = ForwardingLayer(
            node_id=node_id,
            topology=topology,
            config=config,
            crypto=crypto,
            verifier=EvidenceVerifier.for_node(crypto, registry, config.variant),
            on_new_evidence=self._on_new_evidence,
            on_packet=self.auditing.on_packet,
            coverage=coverage,
            bounds=bounds,
        )
        self.current_scenario: FailureScenario = EMPTY_SCENARIO
        self.current_schedule: Optional[ModeSchedule] = None
        self.mode_switches: List[Tuple[int, FailureScenario]] = []
        self._round = 0
        # Round-batched receive: the round's deliveries are buffered and
        # flushed through ForwardingLayer.receive_batch at round end, after
        # every node has sent.  Safe because nothing observes forwarding
        # state between the receive phase and on_round_end.
        self._inbound: List[Tuple[int, int, Any]] = []
        # Optional per-layer traffic breakdown (Fig. 8a); off by default
        # because it re-encodes every outgoing message.
        self.traffic_accounting = False
        self.traffic_bytes: Dict[str, int] = {
            "payload": 0, "rebound": 0, "auditing": 0,
        }

    # -- lifecycle --------------------------------------------------------------

    def start(self, round_no: int = 0) -> None:
        """Adopt the fault-free mode and begin participating."""
        self._round = round_no
        self.forwarding.start(round_no)
        self._adopt_mode(EMPTY_SCENARIO, round_no)

    def _adopt_mode(self, scenario: FailureScenario, round_no: int) -> None:
        schedule = self.mode_tree.schedule_for(scenario)
        if schedule == self.current_schedule:
            return
        paths = self.path_cache.paths_for(schedule)
        self.current_scenario = scenario
        self.current_schedule = schedule
        self.forwarding.set_paths(paths, stable_since=round_no)
        self.auditing.set_mode(schedule, paths, round_no)
        self.mode_switches.append((round_no, scenario))
        rec = _flight.active
        if rec is not None:
            rec.emit(
                EV_MODE_SELECTED,
                self.node_id,
                {
                    "failed_nodes": sorted(schedule.failed_nodes),
                    "failed_links": [
                        list(link) for link in sorted(schedule.failed_links)
                    ],
                    "placement_hosts": sorted(set(schedule.placements.values())),
                },
                round_no=round_no,
            )

    def readopt_mode(self, round_no: int) -> None:
        """Force a fresh mode lookup and adoption for the current fault
        pattern, bypassing the no-change fast path.  Used after a state
        resync or an online tree refresh, where the cached pointer itself
        is what is being repaired."""
        self.current_schedule = None
        self._adopt_mode(self.forwarding.fault_pattern, round_no)

    # -- layer callbacks -----------------------------------------------------------

    def _submit_evidence(self, item: Any) -> None:
        self.forwarding.submit_evidence(item)

    def _send_on_path(self, path, payload: bytes) -> None:
        self.forwarding.queue_packet(path, payload)

    def _on_new_evidence(self, items: List[Any]) -> None:
        if self.durable is not None:
            self.durable.record_evidence(self._round, items)
        pattern = self.forwarding.fault_pattern
        self._adopt_mode(pattern, self._round)

    # -- NodeProtocol ---------------------------------------------------------------

    def on_round_start(self, round_no: int) -> None:
        self._round = round_no
        self._inbound.clear()
        self.forwarding.begin_round(round_no)

    def on_receive(self, round_no: int, sender: int, payload: Any) -> None:
        self._inbound.append((round_no, sender, payload))

    def on_round_end(self, round_no: int) -> None:
        if self._inbound:
            batch, self._inbound = self._inbound, []
            self.forwarding.receive_batch(batch)
        self.auditing.execute_round(round_no)
        output = self.forwarding.end_round()
        self._transmit(output)
        if self.durable is not None:
            self.durable.end_round(self, round_no)

    # -- transmission -----------------------------------------------------------------

    def _account(self, msg) -> None:
        if not self.traffic_accounting:
            return
        if msg.records or msg.aggregates or msg.evidence:
            self.traffic_bytes["rebound"] += (
                encoded_size(msg.records)
                + encoded_size(msg.aggregates)
                + encoded_size(msg.evidence)
            )
        for packet in msg.packets:
            path = self.forwarding.paths.by_id.get(packet.path_id)
            bucket = (
                "payload" if path is not None and path.kind == PATH_DATA
                else "auditing"
            )
            self.traffic_bytes[bucket] += encoded_size(packet)

    @staticmethod
    def _empty(msg) -> bool:
        return not (msg.records or msg.aggregates or msg.evidence or msg.packets)

    def _transmit(self, output: RoundOutput) -> None:
        remaining = set(output.controller_neighbors)
        device_hops = [
            hop
            for hop in output.packets_by_next_hop
            if self.topology.role(hop) != ROLE_CONTROLLER
        ]
        if self.config.bus_broadcast:
            for bus in self.topology.buses_of(self.node_id):
                members = sorted(bus.members - {self.node_id})
                covered_controllers = [m for m in members if m in remaining]
                covered_devices = [m for m in members if m in device_hops]
                # Fresh evidence is broadcast on *every* bus: devices
                # (sensors/actuators) learn mode changes purely by
                # listening to their bus, so skipping a device-only bus
                # would leave them in a stale mode.
                evidence_for_devices = bool(output.evidence) and any(
                    self.topology.role(m) != ROLE_CONTROLLER for m in members
                )
                if (
                    not covered_controllers
                    and not covered_devices
                    and not evidence_for_devices
                ):
                    continue
                msg = output.message_for(
                    self.node_id, covered_controllers + covered_devices
                )
                if self._empty(msg):
                    continue
                self._account(msg)
                self.network.broadcast(self.node_id, bus.bus_id, msg)
                remaining -= set(covered_controllers)
                for d in covered_devices:
                    device_hops.remove(d)
        for j in sorted(remaining):
            msg = output.message_for(self.node_id, [j])
            if self._empty(msg):
                continue
            self._account(msg)
            self.network.send(self.node_id, j, msg)
        for d in sorted(set(device_hops)):
            msg = output.message_for(self.node_id, [d])
            if self._empty(msg):
                continue
            self._account(msg)
            self.network.send(self.node_id, d, msg)

    # -- introspection -----------------------------------------------------------------

    @property
    def evidence(self):
        return self.forwarding.evidence

    @property
    def fault_pattern(self) -> FailureScenario:
        return self.forwarding.fault_pattern
