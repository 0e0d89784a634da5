"""Sensor and actuator devices (paper S2.3).

Devices are not controllers: they run no heartbeat protocol, host no tasks,
and are trusted not to be compromised (the paper scopes attacks to
controllers; attack-resilient state estimation is cited as the orthogonal
defense for sensors/actuators).  They do, however:

* **sensors** -- sign and emit one reading per round on each of their data
  paths, so that task inputs are attributable end-to-end;
* **actuators** -- verify that an incoming command is signed by the task
  primary the *current mode* designates, apply it to the plant, and echo the
  command's authenticator to the task's replicas (the beta -> rho role for
  exit tasks).  To know the current mode, an actuator passively verifies the
  evidence it observes on its bus and performs the same independent mode
  lookup controllers do.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.auditing import TaskRegistry
from repro.core.bounds import Bounds
from repro.core.config import ReboundConfig
from repro.core.evidence import EvidenceSet, EvidenceVerifier, data_body
from repro.core.forwarding import DataPacket, RoundMessage
from repro.core.identity import NodeCrypto
from repro.core.node import PathCache
from repro.core.paths import PATH_AUTH, PATH_DATA, PathSet
from repro.crypto.hashing import hash_bytes
from repro.net.message import encode
from repro.net.network import NodeProtocol
from repro.net.topology import Topology
from repro.sched.assign import ModeSchedule
from repro.sched.modegen import ModeTree


class _DeviceBase(NodeProtocol):
    """Shared mode-tracking logic for sensors and actuators."""

    def __init__(
        self,
        node_id: int,
        topology: Topology,
        config: ReboundConfig,
        crypto: NodeCrypto,
        registry: TaskRegistry,
        mode_tree: ModeTree,
        path_cache: PathCache,
        bounds: Bounds,
    ):
        self.node_id = node_id
        self.topology = topology
        self.config = config
        self.crypto = crypto
        self.mode_tree = mode_tree
        self.path_cache = path_cache
        self.bounds = bounds
        self.verifier = EvidenceVerifier.for_node(crypto, registry, config.variant)
        self.evidence = EvidenceSet()
        self.schedule: Optional[ModeSchedule] = None
        self.paths: PathSet = PathSet([])
        self._round = 0
        self.adopt_mode()

    def adopt_mode(self) -> None:
        # Same explained-LFD window as the controllers' forwarding layers:
        # a device deriving a different pattern from the same evidence would
        # adopt a divergent mode.
        pattern = self.evidence.failure_pattern(
            self.config.fmax, pom_lfd_slack=self.bounds.pom_lfd_slack
        )
        schedule = self.mode_tree.schedule_for(pattern)
        if schedule != self.schedule:
            self.schedule = schedule
            self.paths = self.path_cache.paths_for(schedule)

    def _ingest_evidence(self, items: Tuple[Any, ...]) -> None:
        changed = False
        for item in items:
            if item in self.evidence:
                continue
            if self.verifier.verify(item):
                changed |= self.evidence.add(item)
        if changed:
            self.adopt_mode()

    def on_round_start(self, round_no: int) -> None:
        self._round = round_no


class SensorDevice(_DeviceBase):
    """Emits one signed reading per round on each path originating here.

    Args:
        read: callable(round) -> payload bytes (wired to the plant model).
    """

    def __init__(self, *args, read: Callable[[int], bytes], **kwargs):
        super().__init__(*args, **kwargs)
        self.read = read
        self.readings_sent = 0

    def on_receive(self, round_no: int, sender: int, payload: Any) -> None:
        if isinstance(payload, RoundMessage):
            self._ingest_evidence(payload.evidence)

    def on_round_end(self, round_no: int) -> None:
        reading = self.read(round_no)
        packets_by_hop: Dict[int, List[DataPacket]] = {}
        for path in self.paths.originating_at(self.node_id):
            if path.kind != PATH_DATA or path.length == 0:
                continue
            body = data_body(path.path_id, round_no, hash_bytes(reading))
            packet = DataPacket(
                path_id=path.path_id,
                origin_round=round_no,
                payload=reading,
                origin=self.node_id,
                signature=self.crypto.sign(body),
            )
            packets_by_hop.setdefault(path.hops[1], []).append(packet)
            self.readings_sent += 1
        for hop, packets in sorted(packets_by_hop.items()):
            msg = RoundMessage(
                sender=self.node_id,
                round_no=round_no,
                records=(),
                aggregates=(),
                evidence=(),
                packets=tuple(packets),
            )
            self.network.send(self.node_id, hop, msg)


class ActuatorDevice(_DeviceBase):
    """Applies mode-authorized commands to the plant and echoes auths.

    Args:
        apply: callable(round, payload, origin) -> None (wired to the
            plant model).
    """

    def __init__(self, *args, apply: Callable[[int, bytes, int], None], **kwargs):
        super().__init__(*args, **kwargs)
        self.apply = apply
        self.trace: List[Tuple[int, bytes, int]] = []
        self.rejected = 0
        self._auth_outbox: List[Tuple[Any, bytes]] = []
        self._seen: set = set()

    def on_receive(self, round_no: int, sender: int, payload: Any) -> None:
        if not isinstance(payload, RoundMessage):
            return
        self._ingest_evidence(payload.evidence)
        for packet in payload.packets:
            self._on_packet(round_no, packet)

    def _on_packet(self, round_no: int, packet: DataPacket) -> None:
        path = self.paths.by_id.get(packet.path_id)
        if path is None or path.sink != self.node_id or path.kind != PATH_DATA:
            return
        key = (packet.path_id, packet.origin_round)
        if key in self._seen:
            return
        self._seen.add(key)
        # Only the mode-designated primary may command this actuator.
        if packet.origin != path.source:
            self.rejected += 1
            return
        if not self.crypto.verify(packet.origin, packet.body(), packet.signature):
            self.rejected += 1
            return
        self.trace.append((round_no, packet.payload, packet.origin))
        self.apply(round_no, packet.payload, packet.origin)
        # Echo the authenticator to the producing task's replicas.
        auth_payload = encode(
            (
                packet.path_id,
                packet.origin_round,
                hash_bytes(packet.payload),
                packet.signature,
            )
        )
        for auth_path in self.paths.of_kind(PATH_AUTH):
            if (
                auth_path.source == self.node_id
                and auth_path.task_to == path.task_from
            ):
                self._auth_outbox.append((auth_path, auth_payload))

    def on_round_end(self, round_no: int) -> None:
        outbox, self._auth_outbox = self._auth_outbox, []
        packets_by_hop: Dict[int, List[DataPacket]] = {}
        for path, payload in outbox:
            if path.length == 0:
                continue
            body = data_body(path.path_id, round_no, hash_bytes(payload))
            packet = DataPacket(
                path_id=path.path_id,
                origin_round=round_no,
                payload=payload,
                origin=self.node_id,
                signature=self.crypto.sign(body),
            )
            packets_by_hop.setdefault(path.hops[1], []).append(packet)
        for hop, packets in sorted(packets_by_hop.items()):
            msg = RoundMessage(
                sender=self.node_id,
                round_no=round_no,
                records=(),
                aggregates=(),
                evidence=(),
                packets=tuple(packets),
            )
            self.network.send(self.node_id, hop, msg)

    def applied_in_round(self, round_no: int) -> List[Tuple[bytes, int]]:
        return [(p, o) for r, p, o in self.trace if r == round_no]
