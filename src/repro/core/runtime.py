"""System assembly and execution: the top-level REBOUND runtime.

:class:`ReboundSystem` wires everything together -- key directory, mode
tree, path cache, network, controller nodes, sensor/actuator devices --
injects faults (:meth:`ReboundSystem.inject_now`, :meth:`cut_link_now`), runs
rounds, and measures what the evaluation needs: per-link bandwidth, per-node
storage and crypto operations, mode census, detection/recovery rounds, and
actuator traces.
"""

from __future__ import annotations

import time
from collections import Counter as CollectionsCounter
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.auditing import TaskRegistry
from repro.core.bounds import Bounds
from repro.core.config import VARIANT_BASIC, ReboundConfig
from repro.core.devices import ActuatorDevice, SensorDevice
from repro.core.heartbeat import CoverageRegistry
from repro.core.identity import Directory
from repro.core.node import PathCache, ReboundNode
from repro.core.paths import PathComputer
from repro.net.network import RoundNetwork
from repro.net.topology import Topology
from repro.obs import recorder as _flight
from repro.obs.events import (
    CORRUPTION_BEHAVIOR,
    EV_FAULT_INJECTED,
    EV_PERSIST_RESTORE,
    EV_TREE_REFRESH,
)
from repro.obs.timeline import covers, modes_agree, placements_clear
from repro.sched.modegen import EMPTY_SCENARIO, FailureScenario, ModeTree, ModeTreeGenerator
from repro.sched.task import Workload


def default_sensor_read(node_id: int) -> Callable[[int], bytes]:
    """A deterministic placeholder reading: (node, round) encoded."""

    def read(round_no: int) -> bytes:
        return node_id.to_bytes(4, "big") + round_no.to_bytes(4, "big")

    return read


class ReboundSystem:
    """A complete simulated REBOUND deployment.

    Args:
        topology: the physical network.
        workload: the data flows.
        config: deployment parameters; ``config.d_max`` is resolved from the
            topology (controller-graph diameter + fmax) when left None.
        registry: task logic; defaults to passthrough tasks.
        mode_tree: a pregenerated tree (generated on the fly otherwise).
        sensor_reads: node_id -> callable(round) -> payload for sensors.
        actuator_applies: node_id -> callable(round, payload, origin) for
            actuators.
        seed: key-generation seed.
    """

    def __init__(
        self,
        topology: Topology,
        workload: Workload,
        config: ReboundConfig,
        registry: Optional[TaskRegistry] = None,
        mode_tree: Optional[ModeTree] = None,
        sensor_reads: Optional[Dict[int, Callable[[int], bytes]]] = None,
        actuator_applies: Optional[Dict[int, Callable[[int, bytes, int], None]]] = None,
        seed: int = 0,
        pin_primaries: Optional[Dict[int, int]] = None,
        network_factory: Optional[Callable[[Topology], RoundNetwork]] = None,
    ):
        self.topology = topology
        self.workload = workload
        self.config = config
        if config.d_max is None:
            config.d_max = self._resolve_d_max()
        #: Every protocol and oracle window of this deployment.
        self.bounds = Bounds.from_config(config, len(topology.controllers))
        self.registry = registry or TaskRegistry()
        self.registry.register_default(workload)

        self.directory = Directory(
            rsa_bits=config.rsa_bits, multisig_bits=config.multisig_bits, seed=seed
        )
        for node in topology.nodes:
            self.directory.register(node)

        self._modegen: Optional[ModeTreeGenerator] = None
        if mode_tree is None:
            generator = ModeTreeGenerator(
                topology,
                workload,
                fmax=config.fmax,
                fconc=config.fconc,
                method=config.scheduler_method,
                utilization_cap=config.utilization_cap,
                pinned_primaries=pin_primaries,
            )
            mode_tree = generator.generate()
            self._modegen = generator
        self.mode_tree = mode_tree
        self.path_cache = PathCache(PathComputer(topology, workload, config.fconc))
        self.coverage = CoverageRegistry(
            topology,
            self.bounds.d_max,
            {c: self.directory.ms_public(c) for c in topology.controllers},
            self.directory.group.q,
        )

        self.network = (network_factory or RoundNetwork)(topology)
        self.nodes: Dict[int, ReboundNode] = {}
        self.sensors: Dict[int, SensorDevice] = {}
        self.actuators: Dict[int, ActuatorDevice] = {}
        sensor_reads = sensor_reads or {}
        actuator_applies = actuator_applies or {}

        for node_id in topology.controllers:
            node = ReboundNode(
                node_id=node_id,
                topology=topology,
                workload=workload,
                config=config,
                crypto=self.directory.crypto_for(node_id),
                registry=self.registry,
                mode_tree=mode_tree,
                path_cache=self.path_cache,
                coverage=self.coverage,
                bounds=self.bounds,
            )
            self.nodes[node_id] = node
            self.network.attach(node_id, node)
        for node_id in topology.sensors:
            sensor = SensorDevice(
                node_id,
                topology,
                config,
                self.directory.crypto_for(node_id),
                self.registry,
                mode_tree,
                self.path_cache,
                self.bounds,
                read=sensor_reads.get(node_id, default_sensor_read(node_id)),
            )
            self.sensors[node_id] = sensor
            self.network.attach(node_id, sensor)
        for node_id in topology.actuators:
            actuator = ActuatorDevice(
                node_id,
                topology,
                config,
                self.directory.crypto_for(node_id),
                self.registry,
                mode_tree,
                self.path_cache,
                self.bounds,
                apply=actuator_applies.get(node_id, lambda r, p, o: None),
            )
            self.actuators[node_id] = actuator
            self.network.attach(node_id, actuator)

        self._seed = seed
        #: Tamper detections surfaced by durable restores (chain or
        #: snapshot verification failures); one dict per detection.
        self.durability_tamper_detections: List[Dict] = []
        if config.durability_enabled:
            from repro.durability import NodeDurableStore

            for node_id, node in self.nodes.items():
                node.durable = NodeDurableStore(
                    config.durability_dir,
                    node_id,
                    seed=seed,
                    snapshot_interval=config.snapshot_interval,
                )

        for node in self.nodes.values():
            node.start(round_no=0)
        # Mint the RSA keys the first round signs with now, not in a timed round.
        root = self.path_cache.paths_for(mode_tree.schedule_for(EMPTY_SCENARIO))
        basic = config.variant == VARIANT_BASIC
        for node_id in {*self.sensors, *self.actuators, *(self.nodes if basic else ()),
                        *(path.source for path in root.all())}:
            self.directory.rsa_pair(node_id)

        self._active_behaviors: List = []
        self.true_faulty_nodes: Set[int] = set()
        self.true_failed_links: Set[Tuple[int, int]] = set()
        self.fault_rounds: List[int] = []
        self._bless_epochs: Dict[int, int] = {}
        self.monitor = None
        self.series = None
        self.budget_exceeded = False
        #: Ground truth of applied transient corruptions (corrupt_now).
        self.transient_corruptions: List[Dict] = []
        #: One dict per online subtree regeneration (_maybe_refresh_tree).
        self.tree_refreshes: List[Dict] = []
        self._refreshed_targets: Set[FailureScenario] = set()
        self.auditors: Dict[int, "object"] = {}
        #: evidence digest -> round a correct controller first held the
        #: item: the auditors' flood-staleness clock (kept while they run).
        self.evidence_first_held: Dict[bytes, int] = {}
        if config.stabilize_enabled:
            from repro.stabilize import StateAuditor

            self.auditors = {
                node_id: StateAuditor(self, node_id, config.audit_interval)
                for node_id in topology.controllers
            }

    def close(self) -> None:
        """Flush durable stores."""
        for node in self.nodes.values():
            if node.durable is not None:
                node.durable.flush()

    def _resolve_d_max(self) -> int:
        if len(self.topology.controllers) <= 1:
            return 1
        return self.topology.controller_diameter() + self.config.fmax + 1

    # -- access ------------------------------------------------------------------

    def node(self, node_id: int) -> ReboundNode:
        return self.nodes[node_id]

    @property
    def round_no(self) -> int:
        return self.network.round_no

    def correct_controllers(self) -> List[int]:
        return [
            n for n in self.topology.controllers if n not in self.true_faulty_nodes
        ]

    # -- fault injection ------------------------------------------------------------

    def inject_now(self, node_id: int, behavior) -> None:
        """Immediately compromise a controller with ``behavior``."""
        rec = _flight.active
        if rec is not None:
            # The behavior is first active in the round about to run, not
            # the one that just finished -- stamp it there.
            rec.emit(
                EV_FAULT_INJECTED,
                node_id,
                {"target": node_id, "behavior": type(behavior).__name__},
                round_no=self.round_no + 1,
            )
        behavior.activate(self, node_id)
        self.network.set_tamper_hook(node_id, behavior.tamper)
        self._active_behaviors.append(behavior)
        self.true_faulty_nodes.add(node_id)
        self.fault_rounds.append(self.round_no)

    def corrupt_now(self, node_id: int, corruption) -> None:
        """Apply a transient in-RAM corruption to a *correct* controller.

        Unlike :meth:`inject_now` this does NOT mark the node faulty or
        install a tamper hook: the victim keeps following the protocol
        faithfully from damaged state (the self-stabilization fault class,
        docs/PROTOCOL.md §16.2).  The Req-S question is whether the
        :class:`~repro.stabilize.StateAuditor` converges it back within
        the audit bound without any correct node being condemned.
        """
        if node_id not in self.topology.controllers:
            raise ValueError(f"{node_id} is not a controller")
        description = corruption.apply(self, node_id)
        self.transient_corruptions.append(
            {
                "node": node_id,
                "round": self.round_no,
                "kind": getattr(corruption, "name", type(corruption).__name__),
                **(description or {}),
            }
        )
        rec = _flight.active
        if rec is not None:
            rec.emit(
                EV_FAULT_INJECTED,
                node_id,
                {
                    "target": node_id,
                    "behavior": CORRUPTION_BEHAVIOR
                    + getattr(corruption, "name", "?"),
                },
                round_no=self.round_no + 1,
            )

    # -- online mode-tree refresh (PROTOCOL.md §16.5) ------------------------------

    def _maybe_refresh_tree(self) -> None:
        """Regenerate the needed subtree when an observed failure pattern
        falls outside the precomputed tree (> fmax faults).

        Until the refresh lands, nodes degrade gracefully to a holding
        mode (the best covering ancestor / on-demand jump the lookup path
        already provides) -- the system never halts.  Afterwards every
        correct node re-adopts from the extended tree, which is
        byte-identical to from-scratch generation for the added subtree.
        """
        fmax = self.config.fmax
        targets: List[FailureScenario] = []
        for node_id in self.correct_controllers():
            pattern = self.nodes[node_id].fault_pattern
            if (
                pattern.fault_count > fmax
                and pattern not in self._refreshed_targets
                and pattern not in targets
            ):
                targets.append(pattern)
        for target in targets:
            self._refresh_tree(target)

    def _refresh_tree(self, target: FailureScenario) -> None:
        self._refreshed_targets.add(target)
        generator = self._modegen
        if generator is None:
            generator = ModeTreeGenerator(
                self.topology,
                self.workload,
                fmax=self.config.fmax,
                fconc=self.config.fconc,
                method=self.config.scheduler_method,
                utilization_cap=self.config.utilization_cap,
            )
            self._modegen = generator
        tree = self.mode_tree
        holding_depth = max(
            (
                s.fault_count
                for s in tree.schedules
                if target.covers(s) and s not in tree.ondemand
            ),
            default=0,
        )
        start = time.perf_counter()
        stats = generator.extend_for(tree, target)
        elapsed = time.perf_counter() - start
        record = {
            "round": self.round_no,
            "scenario_nodes": sorted(target.nodes),
            "scenario_links": [tuple(sorted(l)) for l in sorted(target.links)],
            "added_modes": stats["added_modes"],
            "replaced_ondemand": stats["replaced_ondemand"],
            "holding_depth": holding_depth,
            "target_layer": stats["target_layer"],
            "elapsed_s": elapsed,
        }
        self.tree_refreshes.append(record)
        rec = _flight.active
        if rec is not None:
            rec.emit(
                EV_TREE_REFRESH,
                -1,  # system-wide, not attributable to one node
                {
                    "scenario_nodes": sorted(target.nodes),
                    "scenario_links": [
                        list(sorted(l)) for l in sorted(target.links)
                    ],
                    "added_modes": stats["added_modes"],
                    "holding_depth": holding_depth,
                    "elapsed_ms": elapsed * 1000.0,
                },
                round_no=self.round_no,
            )
        # Re-adopt only where the extended tree changes the answer, so a
        # refresh that adds nothing (all layers infeasible) perturbs no
        # transcript.
        for node_id in self.correct_controllers():
            node = self.nodes[node_id]
            if tree.schedule_for(node.fault_pattern) != node.current_schedule:
                node.readopt_mode(self.round_no)

    # -- repair / rejoin machinery (shared by blessing and durable restart) -------

    def _evict_adversary(self, node_id: int) -> None:
        """Evict any attached adversary and heal the network-level fault."""
        self.network.set_tamper_hook(node_id, None)
        self.network.revive_node(node_id)
        self.true_faulty_nodes.discard(node_id)
        for behavior in self._active_behaviors:
            if behavior.node_id == node_id:
                behavior.detach()
        self._active_behaviors = [
            b for b in self._active_behaviors if b.node_id != node_id
        ]

    def _mint_blessing(self, node_id: int):
        """Sign an operator blessing absolving ``node_id``'s evidence up to
        the current round (fresh epoch)."""
        from repro.core.blessing import Blessing, blessing_body

        epoch = self._bless_epochs.get(node_id, 0) + 1
        self._bless_epochs[node_id] = epoch
        body_round = self.round_no
        return Blessing(
            node_id=node_id,
            as_of_round=body_round,
            epoch=epoch,
            signature=self.directory.operator.sign(
                blessing_body(node_id, body_round, epoch)
            ).to_bytes(),
        )

    def _rejoin(
        self, node_id: int, evidence: List, durable, replay: bool
    ) -> ReboundNode:
        """The one rejoin step of an operator repair and a durable restart
        (paper S2.4, "faulty until repaired and blessed"): evict the
        adversary, mint a fresh-epoch blessing, install a fresh node at
        the current round, admit ``evidence`` and flood the blessing.

        ``durable`` is the node's store (None without durability), kept
        across the rejoin.  A ``replay`` (a restart) admits evidence read
        from that store's own log, so the store is attached only after it,
        and nothing is chained twice; a repair chains the evidence it
        seeds, which from now on is the node's state.
        """
        self._evict_adversary(node_id)
        blessing = self._mint_blessing(node_id)
        node = ReboundNode(
            node_id=node_id,
            topology=self.topology,
            config=self.config,
            workload=self.workload,
            crypto=self.directory.crypto_for(node_id),
            registry=self.registry,
            mode_tree=self.mode_tree,
            path_cache=self.path_cache,
            coverage=self.coverage,
            bounds=self.bounds,
        )
        self.nodes[node_id] = node
        self.network.attach(node_id, node)
        node.start(round_no=self.round_no)
        if not replay:
            node.durable = durable
        for item in evidence:
            node.forwarding.submit_evidence(item)
        node.durable = durable
        self._flood_blessing(node_id, blessing)
        return node

    def _flood_blessing(self, node_id: int, blessing) -> None:
        """Submit the blessing at the rejoining node and at a correct
        reference so it floods the whole system."""
        self.nodes[node_id].forwarding.submit_evidence(blessing)
        reference = next(
            (n for n in self.correct_controllers() if n != node_id), None
        )
        if reference is not None:
            self.nodes[reference].forwarding.submit_evidence(blessing)

    def repair_and_bless(self, node_id: int) -> None:
        """Operator repair (paper S2.4): reprovision a compromised node and
        flood a signed blessing so every node re-admits it.

        The node rejoins as a fresh node seeded with a correct reference
        node's evidence (the operator reinstalling software and current
        state); a :class:`~repro.core.blessing.Blessing` absolving all
        evidence up to the current round is injected into the flood.
        """
        if node_id not in self.topology.controllers:
            raise ValueError(f"{node_id} is not a controller")
        reference = next(
            (n for n in self.correct_controllers() if n != node_id), None
        )
        evidence = [] if reference is None else self.nodes[reference].evidence.items()
        self._rejoin(node_id, evidence, self.nodes[node_id].durable, replay=False)
        if self.monitor is not None and hasattr(self.monitor, "note_repair"):
            # Until the blessing floods, peers legitimately still hold
            # unabsolved accusations from the repaired compromise.
            self.monitor.note_repair(node_id, self.round_no)

    def bless_resync(self, node_id: int) -> None:
        """Operator absolution after an in-place stabilization resync
        (docs/PROTOCOL.md S16.4): the same trust step as
        :meth:`repair_and_bless`, minus the reprovisioning -- the auditor
        already repaired the state in place.  The blessing absolves every
        accusation a corrupted window produced on the victim's links (a
        blessing covers an LFD with the victim as *either* endpoint), and
        its admission bumps each node's evidence epoch, which raises the
        Rule B stable floor past that window so latched coverage
        shortfalls from skipped aggregates never mature into LFDs.
        """
        blessing = self._mint_blessing(node_id)
        self._flood_blessing(node_id, blessing)

    def restart_from_durable(self, node_id: int):
        """Crash-restart-rejoin (docs/PROTOCOL.md S14): verify the node's
        durable log and rejoin a fresh node fed every evidence item of the
        verified prefix -- the same rejoin as :meth:`repair_and_bless`.

        A corrupted suffix is refused: the node rejoins from the verified
        prefix and the detection is recorded in
        ``durability_tamper_detections``.  Returns the
        :class:`~repro.durability.store.RestoreResult`, whose ``node`` is
        the installed node.
        """
        from repro.durability import NodeDurableStore

        if not self.config.durability_enabled:
            raise RuntimeError("restart_from_durable requires durability_enabled")
        if node_id not in self.topology.controllers:
            raise ValueError(f"{node_id} is not a controller")
        store = NodeDurableStore(
            self.config.durability_dir,
            node_id,
            seed=self._seed,
            snapshot_interval=self.config.snapshot_interval,
        )
        result = store.load()
        if result.tampered:
            self.durability_tamper_detections.append(
                {
                    "node": node_id,
                    "round": self.round_no,
                    "reason": result.tamper_reason,
                    "refused_records": result.refused_records,
                }
            )
        result.node = self._rejoin(node_id, result.evidence, store, replay=True)
        store.record_restore(self.round_no, result)
        rec = _flight.active
        if rec is not None:
            rec.emit(
                EV_PERSIST_RESTORE,
                node_id,
                {
                    "snapshot_round": result.snapshot_round,
                    "replayed": len(result.evidence),
                    "tampered": result.tampered,
                    "reason": result.tamper_reason,
                },
                round_no=self.round_no,
            )
        monitor = self.monitor
        if monitor is not None and hasattr(monitor, "note_restart"):
            monitor.note_restart(node_id, self.round_no)
        return result

    def cut_link_now(self, a: int, b: int) -> None:
        rec = _flight.active
        if rec is not None:
            rec.emit(
                EV_FAULT_INJECTED,
                min(a, b),
                {"link": [min(a, b), max(a, b)]},
                round_no=self.round_no + 1,
            )
        self.network.fail_link(a, b)
        self.true_failed_links.add((min(a, b), max(a, b)))
        self.fault_rounds.append(self.round_no)

    # -- monitoring -------------------------------------------------------------------

    def attach_monitor(self, monitor) -> None:
        """Observe every round with a :class:`~repro.chaos.monitor.BTRMonitor`
        (or anything exposing ``observe(system)``)."""
        self.monitor = monitor

    def attach_series(self, series) -> None:
        """Sample a :class:`~repro.obs.series.MetricsTimeSeries` after
        every round (registry counters plus derived system/monitor
        gauges).  Observation-only, like the monitor and the recorder."""
        self.series = series

    def _update_budget_signal(self) -> None:
        """Degraded-environment signal (never an exception): the deployment
        is operating outside the fault budget it was provisioned for.

        Set when (a) the chaos layer reports applied out-of-budget
        impairments -- the simulator stands in for the link-quality
        telemetry a real deployment would have; (b) the injected ground
        truth exceeds ``fmax``; or (c) a correct node's normalized failure
        pattern overflows the budget (possible when verifiable PoMs alone
        accuse more than ``fmax`` nodes).  Once raised it stays up; the
        protocol keeps running in whatever mode its evidence supports.
        """
        if self.budget_exceeded:
            return
        if getattr(self.network, "out_of_budget_activity", False):
            self.budget_exceeded = True
            return
        fmax = self.config.fmax
        if len(self.true_faulty_nodes) + len(self.true_failed_links) > fmax:
            self.budget_exceeded = True
            return
        for node_id in self.correct_controllers():
            if self.nodes[node_id].fault_pattern.fault_count > fmax:
                self.budget_exceeded = True
                return

    # -- execution --------------------------------------------------------------------

    def run_round(self) -> None:
        next_round = self.round_no + 1
        rec = _flight.active
        if rec is not None:
            rec.begin_round(next_round)
        for behavior in self._active_behaviors:
            behavior.on_round(next_round)
        self.network.run_round()
        if self.auditors:
            for node_id in self.correct_controllers():
                for digest in self.nodes[node_id].forwarding.evidence._items:
                    self.evidence_first_held.setdefault(digest, self.round_no)
            for node_id in sorted(self.auditors):
                if node_id in self.true_faulty_nodes:
                    continue
                self.auditors[node_id].maybe_audit(self.round_no)
        self._maybe_refresh_tree()
        self._update_budget_signal()
        if self.monitor is not None:
            self.monitor.observe(self)
        if self.series is not None:
            self.series.sample(self, self.monitor)

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

    # -- ground truth & recovery metrics ---------------------------------------------

    def true_scenario(self) -> FailureScenario:
        return FailureScenario(
            nodes=frozenset(self.true_faulty_nodes),
            links=frozenset(self.true_failed_links),
        )

    def target_schedule(self):
        """The mode the system should converge to for the true faults."""
        return self.mode_tree.schedule_for(self.true_scenario())

    def mode_census(self) -> CollectionsCounter:
        """How many correct controllers currently sit in each mode."""
        census: CollectionsCounter = CollectionsCounter()
        for node_id in self.correct_controllers():
            schedule = self.nodes[node_id].current_schedule
            key = (
                tuple(sorted(schedule.failed_nodes)),
                tuple(sorted(schedule.failed_links)),
            ) if schedule else ((), ())
            census[key] += 1
        return census

    def detected(self) -> bool:
        """Has any correct node's pattern noticed the true faults?"""
        faults = [*self.true_faulty_nodes, *self.true_failed_links]
        patterns = [self.nodes[n].fault_pattern for n in self.correct_controllers()]
        return any(covers(f, p.nodes, p.links) for p in patterns for f in faults)

    def converged(self) -> bool:
        """All correct controllers adopted a mode that excludes the true
        faulty nodes from every placement."""
        return all(
            placements_clear(self.nodes[n].current_schedule, self.true_faulty_nodes)
            for n in self.correct_controllers()
        )

    def schedules_agree(self) -> bool:
        return modes_agree(
            self.nodes[n].current_schedule for n in self.correct_controllers()
        )

    # -- cost metrics ------------------------------------------------------------------

    def total_crypto_counters(self):
        from repro.crypto.cost_model import CryptoCounters

        total = CryptoCounters()
        for node in self.nodes.values():
            total.merge(node.crypto.total_counters())
        return total

    def mean_storage_bytes(self) -> float:
        if not self.nodes:
            return 0.0
        return sum(
            node.forwarding.storage_bytes() for node in self.nodes.values()
        ) / len(self.nodes)

    def mean_link_bytes_in_round(self, round_no: Optional[int] = None) -> float:
        r = self.round_no if round_no is None else round_no
        return self.network.mean_link_bytes(r)
