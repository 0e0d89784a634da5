"""The BTR invariant monitor: the paper's requirements as a per-round oracle.

:class:`BTRMonitor` attaches to :meth:`ReboundSystem.run_round` (via
``system.attach_monitor``) and checks, every round:

* **Req. 1 -- bounded detection.**  Every observable fault activation
  (an injected adversary, a cut link, or an applied lossy impairment) is
  reflected in some correct node's failure pattern within ``d_max`` rounds
  of activation (:func:`~repro.obs.timeline.covers`).
* **Req. 2 -- bounded recovery.**  Within ``r_max`` rounds of the *last*
  fault event, all correct controllers agree on one mode
  (:func:`~repro.obs.timeline.modes_agree`) and -- when Req. 1 is armed --
  every activation is detected and every correct node's mode places no
  task on a truly faulty node
  (:func:`~repro.obs.timeline.placements_clear`); with Req. 1 disarmed each
  correct node only needs a mode.
* **Req. 3 -- accuracy.**  Two layers:

  - *hard* (checked in every environment, however hostile): the verifiable
    evidence set -- proofs of misbehavior -- never accuses a correct node;
  - *inference* (checked only in-budget): no correct node's normalized
    failure pattern condemns a correct controller.  Out of budget, the
    LFD fault-budget inference may legitimately overflow; the runtime's
    ``budget_exceeded`` signal covers that case instead.

* **Structural invariants.**  Each node's current mode is exactly its mode
  tree's answer for its local evidence (no desync between evidence and
  schedule), and once recovered, correct nodes never diverge again without
  a new fault event.

Every window the oracle applies comes from the system's
:class:`~repro.core.bounds.Bounds`; whether a fault is detected and whether
the system has recovered is read from the
:class:`~repro.obs.timeline.RecoveryDecomposition` the monitor steps every
in-budget round -- the monitor only decides when a window closes.

Violations are typed :class:`InvariantViolation`\\ s carrying a minimized
repro dict (topology seed, scenario, impairment plan, round) so a failing
campaign cell can be replayed exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.bounds import Bounds
from repro.obs import recorder as _flight
from repro.obs.timeline import NodeState, RecoveryDecomposition

#: trailing-window size embedded in violation repro dicts.  Bounded so a
#: campaign's BENCH report stays small even when many cells carry
#: violations.
TRACE_TAIL_EVENTS = 96


class InvariantViolation(AssertionError):
    """Base class; ``repro`` holds everything needed to replay the run."""

    kind = "invariant"

    def __init__(self, message: str, repro: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.repro = dict(repro or {})

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "message": str(self), "repro": self.repro}


class AccuracyViolation(InvariantViolation):
    """Req. 3: evidence (or in-budget inference) condemned a correct node."""

    kind = "accuracy"


class DetectionTimeoutViolation(InvariantViolation):
    """Req. 1: an observable fault went undetected past ``d_max``."""

    kind = "detection"


class RecoveryTimeoutViolation(InvariantViolation):
    """Req. 2: the system failed to converge within ``r_max``."""

    kind = "recovery"


class StructuralViolation(InvariantViolation):
    """Mode census inconsistent with local evidence, or post-convergence
    divergence without a new fault event."""

    kind = "structural"


class StabilizationViolation(InvariantViolation):
    """Req-S: a divergence the state auditor detected stayed unresolved
    past the documented convergence bound (PROTOCOL.md §16.3)."""

    kind = "stabilization"


class MemoryBoundViolation(InvariantViolation):
    """A correct node's adversary-growable state exceeded its admission
    cap (evidence store, heartbeat store, Rule B suspicions, or pending
    audit buffers) -- the quota layer failed to bound memory."""

    kind = "memory"


class BTRMonitor:
    """Per-round checker of the BTR requirements (see module docstring).

    Args:
        bounds: the windows to hold the system to; defaults to the
            system's own :class:`~repro.core.bounds.Bounds`.  A test forcing
            a violation replaces a window no other derives from (``r_max``)
            or derives a whole set with ``Bounds.from_config``.
        in_budget: whether the environment (adversary + impairments) fits
            the deployment's fault budget.  Out-of-budget runs only arm
            the hard-accuracy and structural-lookup checks.
        require_detection: arm the Req. 1 deadline.  Disable for faults
            with no observable effect (paper Req. 1 explicitly excludes
            those) -- e.g. a corrupted output nobody consumes.
        record_only: collect violations in :attr:`violations` instead of
            raising them (campaign mode).
        context: merged into every violation's repro dict (topology seed,
            scenario name, impairment plan, ...).
    """

    def __init__(
        self,
        bounds: Optional[Bounds] = None,
        in_budget: bool = True,
        require_detection: bool = True,
        record_only: bool = False,
        context: Optional[Dict[str, Any]] = None,
    ):
        self.bounds = bounds
        self.in_budget = in_budget
        self.require_detection = require_detection
        self.record_only = record_only
        self.context = dict(context or {})
        self.violations: List[InvariantViolation] = []
        # Fault-activation tracking (element -> activation round).
        self._activations: Dict[Any, int] = {}
        self._known_faulty: Set[int] = set()
        self._reported: Set[Tuple[str, Any]] = set()
        #: the live detection -> evidence -> switch decomposition, which
        #: also keeps Req. 2's verdict.
        self.decomposition = RecoveryDecomposition()
        #: node -> latest grace-opening round (durable restart or auditor
        #: resync); Req. 3 checks excuse condemnations of these nodes for
        #: ``bounds.grace`` rounds (see :meth:`note_grace`).
        self._graces: Dict[int, int] = {}
        #: node -> first round its mode/lookup went inconsistent (armed
        #: only while stabilization is on; see _check_structural_lookup).
        self._lookup_bad_since: Dict[int, int] = {}
        self._open_divergences = 0

    # -- plumbing ------------------------------------------------------------

    def _emit(self, violation: InvariantViolation, key: Tuple[str, Any]) -> None:
        if key in self._reported:
            return
        self._reported.add(key)
        self.violations.append(violation)
        if not self.record_only:
            raise violation

    def _repro(self, system, **extra: Any) -> Dict[str, Any]:
        repro = dict(self.context)
        repro["round"] = system.round_no
        network = system.network
        plan = getattr(network, "plan", None)
        if plan is not None and "plan" not in repro:
            repro["plan"] = plan.as_dict()
        flight = _flight.active
        if flight is not None:
            # The trailing event window: what the protocol was doing when
            # the invariant broke, replayable through repro.obs.timeline.
            repro["trace_tail"] = flight.tail(TRACE_TAIL_EVENTS)
        repro.update(extra)
        return repro

    # -- fault bookkeeping -----------------------------------------------------

    def _refresh_activations(self, system) -> None:
        r = system.round_no
        for node in system.true_faulty_nodes - self._known_faulty:
            self._activations[("node", node)] = r
            self._known_faulty.add(node)
        for link in system.true_failed_links:
            self._activations.setdefault(("link", tuple(link)), r)
        stats = getattr(system.network, "chaos_stats", None)
        if stats is not None:
            for element, first in stats.first_impact_by_element.items():
                if isinstance(element, tuple):
                    key = ("env-link", element)
                else:
                    key = ("env-node", element)
                self._activations.setdefault(key, first)

    def note_restart(self, node_id: int, round_no: int) -> None:
        """Restart-aware Req. 2 accounting: a durable crash-restart-rejoin
        (``ReboundSystem.restart_from_durable``) is a fresh fault event.

        The rejoin itself is operator-initiated and operator-visible, so
        the Req. 1 detection deadline does not apply (the activation is
        registered pre-detected); what must still hold is Req. 2 -- all
        correct nodes, the rejoined one included, converge within
        ``r_max`` rounds of the restart.  Keying by (node, round) lets a
        node restart more than once, each opening its own window.
        """
        self._activations[("restart", (node_id, round_no))] = round_no
        self.note_grace(node_id, round_no)

    def note_repair(self, node_id: int, round_no: int) -> None:
        """Operator repair+bless accounting (``repair_and_bless``).

        The repair is a fresh, pre-detected fault event: re-admission of
        the repaired node must converge within ``r_max`` like any other
        recovery.  Forgetting the node in ``_known_faulty`` lets a later
        *re*-compromise of the same node register as its own activation
        (the compromise/bless/re-compromise churn cycle), and the shared
        grace window excuses peers that still hold unabsolved accusations
        while the blessing floods."""
        self._activations[("repair", (node_id, round_no))] = round_no
        self._known_faulty.discard(node_id)
        self.note_grace(node_id, round_no)

    def note_grace(self, node_id: int, round_no: int) -> None:
        """Open the shared accusation-grace window for ``node_id``.

        Used by both rejoin paths: a durable crash-restart-rejoin
        (:meth:`note_restart`) and a state-auditor resync
        (:meth:`note_resync`).  In both, the node's pre-event evidence
        legitimately keeps condemning it until its fresh state floods (at
        most ``d_max`` rounds, plus the Rule-A suspension), so Req. 3
        checks excuse it for ``bounds.grace`` rounds."""
        self._graces[node_id] = round_no

    def note_resync(self, node_id: int, round_no: int) -> None:
        """A state auditor resynced ``node_id`` (PROTOCOL.md §16.4).

        Unlike a restart this is *not* a new fault activation -- the node
        never left the network and no Req. 2 window reopens; it only
        borrows the shared grace window so Rule B coverage checks do not
        condemn a node mid-resync."""
        self.note_grace(node_id, round_no)

    def _in_grace(self, system, grace: int) -> Set[int]:
        return {
            node
            for node, opened in self._graces.items()
            if system.round_no <= opened + grace
        }

    def _env_faulted_nodes(self, system) -> Set[int]:
        stats = getattr(system.network, "chaos_stats", None)
        if stats is None:
            return set()
        return set(stats.impacted_nodes)

    def _correct_set(self, system) -> Set[int]:
        return (
            set(system.topology.controllers)
            - system.true_faulty_nodes
            - self._env_faulted_nodes(system)
        )

    # -- the oracle ------------------------------------------------------------

    def observe(self, system) -> None:
        """Run every armed invariant check against the round that just
        executed.  Called by ``ReboundSystem.run_round``."""
        bounds = self.bounds if self.bounds is not None else system.bounds
        self._refresh_activations(system)
        correct = self._correct_set(system)
        in_grace = self._in_grace(system, bounds.grace)
        self._check_hard_accuracy(system, correct, in_grace)
        self._check_structural_lookup(system, correct, bounds)
        self._check_memory_bounds(system, correct, bounds)
        self._check_stabilization(system, correct, bounds)
        if not self.in_budget:
            return
        self._check_inference_accuracy(system, correct, in_grace)
        # A transient corruption opens a recovery cycle like any fault event.
        events = dict(self._activations)
        for i, corruption in enumerate(system.transient_corruptions):
            events[("corruption", i)] = corruption["round"]
        self.decomposition.observe(
            system.round_no,
            {
                n: NodeState(
                    system.nodes[n].fault_pattern.nodes,
                    system.nodes[n].fault_pattern.links,
                    system.nodes[n].forwarding.evidence.digest(),
                    system.nodes[n].current_schedule,
                )
                for n in correct
            },
            events,
            system.true_faulty_nodes if self.require_detection else set(),
            agreed=system.schedules_agree(),
            require_detection=self.require_detection,
        )
        if self.require_detection:
            self._check_detection(system, bounds.d_max)
        self._check_recovery(system, bounds, events)

    @property
    def detection_round(self) -> Optional[int]:
        """First round some correct node's pattern covered an activation."""
        return self.decomposition.detection_round

    @property
    def recovery_round(self) -> Optional[int]:
        """First round Req. 2's recovered predicate held."""
        return self.decomposition.recovery_round

    def _undetected(self) -> List[Any]:
        """Activations that need detecting and are not yet detected."""
        return self.decomposition.undetected(self._activations)

    # Req. 3, hard layer: PoMs never accuse a correct node.  A node the
    # operator just repaired gets the shared grace window: until its
    # blessing floods (at most d_max rounds), peers legitimately still
    # hold unabsolved PoMs from the compromise that was just repaired.
    def _check_hard_accuracy(
        self, system, correct: Set[int], in_grace: Set[int]
    ) -> None:
        for node_id in correct:
            accused = system.nodes[node_id].forwarding.evidence.accused_nodes()
            bad = accused & correct - in_grace
            if bad:
                self._emit(
                    AccuracyViolation(
                        f"evidence at node {node_id} accuses correct "
                        f"node(s) {sorted(bad)} via PoM",
                        self._repro(system, observer=node_id,
                                    condemned=sorted(bad), layer="evidence"),
                    ),
                    ("accuracy-evidence", (node_id, tuple(sorted(bad)))),
                )

    # Req. 3, inference layer: normalized patterns stay clean in-budget.
    # A just-restarted node gets a bounded grace window: until its blessing
    # floods (at most d_max rounds, plus the Rule-A suspension), peers
    # legitimately still condemn it from pre-restart evidence.
    def _check_inference_accuracy(
        self, system, correct: Set[int], in_grace: Set[int]
    ) -> None:
        for node_id in correct:
            pattern = system.nodes[node_id].fault_pattern
            bad = pattern.nodes & correct - in_grace
            if bad:
                self._emit(
                    AccuracyViolation(
                        f"failure pattern at node {node_id} condemns correct "
                        f"node(s) {sorted(bad)} (fault-budget inference)",
                        self._repro(system, observer=node_id,
                                    condemned=sorted(bad), layer="inference"),
                    ),
                    ("accuracy-inference", (node_id, tuple(sorted(bad)))),
                )

    # Req. 1: bounded detection of every observable activation.
    def _check_detection(self, system, d_max: int) -> None:
        r = system.round_no
        for element in self._undetected():
            activated = self._activations[element]
            if r > activated + d_max:
                self._emit(
                    DetectionTimeoutViolation(
                        f"{element[0]} fault {element[1]} activated at round "
                        f"{activated} still undetected at round {r} "
                        f"(d_max={d_max})",
                        self._repro(system, element=list(map(str, element)),
                                    activated=activated, d_max=d_max),
                    ),
                    ("detection", element),
                )

    # Req. 2: bounded recovery after the last fault event, on the
    # decomposition's verdict.  Divergence *inside* the window (evidence
    # still in flight) is legal; past the deadline, never-recovered is a
    # recovery timeout and recovered-then-regressed (with no new fault
    # event) is structural.
    def _check_recovery(
        self, system, bounds: Bounds, events: Dict[Any, int]
    ) -> None:
        if not self._activations:
            return
        r = system.round_no
        last_event = max(events.values())
        # A corrupted node's mode pointer may legitimately diverge until
        # the audit tick repairs it, so its window is the Req-S bound.
        deadline = max(
            at + (bounds.convergence_s if kind == "corruption" else bounds.r_max)
            for (kind, _), at in events.items()
        )
        decomposition = self.decomposition
        if r <= deadline or decomposition.recovered:
            return
        if decomposition.cycle_round is not None:
            self._emit(
                StructuralViolation(
                    f"schedules diverged at round {r} after convergence at "
                    f"round {decomposition.cycle_round} with no new fault event",
                    self._repro(system, converged_at=decomposition.cycle_round,
                                last_event=last_event),
                ),
                ("stability", last_event),
            )
            return
        agreed = system.schedules_agree()
        detected_all = not self.require_detection or not self._undetected()
        clear = decomposition.clear
        detail = []
        if not agreed:
            detail.append("correct nodes disagree on the mode")
        if not detected_all:
            detail.append("an activation is still unreflected in evidence")
        if not clear:
            detail.append("a correct node's mode still hosts a faulty node")
        phases = decomposition.phases()
        if phases:
            detail.append("stuck: " + ", ".join(
                f"node {n} in {phase}" for n, phase in phases.items()
            ))
        self._emit(
            RecoveryTimeoutViolation(
                f"not recovered by round {r} (last fault event at "
                f"{last_event}, r_max={bounds.r_max}): " + "; ".join(detail),
                self._repro(system, last_event=last_event, r_max=bounds.r_max,
                            agreed=agreed, detected_all=detected_all,
                            placements_clear=clear, phases=phases),
            ),
            ("recovery", last_event),
        )

    # Memory: adversary-growable state at every correct node stays under
    # its cap, every round, whatever the environment does (in- and
    # out-of-budget alike: memory bounds, like hard accuracy, must survive
    # arbitrarily hostile environments).
    def _check_memory_bounds(self, system, correct: Set[int], bounds: Bounds) -> None:
        store_cap = bounds.heartbeat_store_cap
        for node_id in correct:
            fwd = system.nodes[node_id].forwarding
            checks = [("evidence", len(fwd.evidence), bounds.evidence_cap)]
            if system.config.expiry_optimization:
                checks.append(("heartbeat-store", len(fwd.store), store_cap))
            checks.append(("rule-b-pending", len(fwd._pending_rule_b), bounds.n))
            auditing = system.nodes[node_id].auditing
            for (task_id, copy_idx), rep in auditing._replicas.items():
                for name, buf in (
                    ("bundles", rep.bundles),
                    ("auths", rep.auths),
                    ("xrep-digests", rep.peer_digests),
                ):
                    checks.append((
                        f"audit-{name}[{task_id},{copy_idx}]",
                        len(buf),
                        auditing.pending_cap,
                    ))
            for store, size, cap in checks:
                if size > cap:
                    self._emit(
                        MemoryBoundViolation(
                            f"{store} at node {node_id} holds {size} "
                            f"entries, cap {cap}",
                            self._repro(system, observer=node_id,
                                        store=store, size=size, cap=cap),
                        ),
                        ("memory", (node_id, store)),
                    )

    # Structural: each node's mode is exactly its evidence's mode-tree answer.
    # With stabilization on, a transiently corrupted mode pointer is exactly
    # what the auditor exists to fix, so the violation only fires if the
    # inconsistency outlives the Req-S convergence bound; with stabilization
    # off the bound is zero and the check keeps its original semantics.
    def _check_structural_lookup(
        self, system, correct: Set[int], bounds: Bounds
    ) -> None:
        grace = bounds.convergence_s if system.config.stabilize_enabled else 0
        r = system.round_no
        for node_id in correct:
            node = system.nodes[node_id]
            expected = system.mode_tree.schedule_for(node.fault_pattern)
            if node.current_schedule == expected:
                self._lookup_bad_since.pop(node_id, None)
                continue
            first_bad = self._lookup_bad_since.setdefault(node_id, r)
            if r - first_bad < grace:
                continue
            self._emit(
                StructuralViolation(
                    f"node {node_id} runs a mode inconsistent with its "
                    f"own evidence (pattern {node.fault_pattern})",
                    self._repro(system, observer=node_id),
                ),
                ("lookup", node_id),
            )

    # Req-S: every divergence the state auditor detects resolves within the
    # documented convergence bound.  Armed whenever auditors run (in- and
    # out-of-budget alike: self-stabilization, like hard accuracy, must
    # survive any environment).
    def _check_stabilization(self, system, correct: Set[int], bounds: Bounds) -> None:
        auditors = system.auditors
        if not auditors:
            self._open_divergences = 0
            return
        bound = bounds.convergence_s
        r = system.round_no
        open_count = 0
        for node_id, auditor in sorted(auditors.items()):
            for record in auditor.divergences:
                if record["resolved_round"] is not None:
                    continue
                open_count += 1
                if node_id not in correct:
                    continue  # a since-compromised node is the budget's problem
                if r - record["detected_round"] <= bound:
                    continue
                self._emit(
                    StabilizationViolation(
                        f"node {node_id} diverged at round "
                        f"{record['detected_round']} "
                        f"({', '.join(record['issues'])}) and is still not "
                        f"quorum-consistent at round {r} (bound {bound})",
                        self._repro(system, observer=node_id,
                                    detected=record["detected_round"],
                                    issues=list(record["issues"]),
                                    bound=bound),
                    ),
                    ("stabilization", (node_id, record["detected_round"])),
                )
        self._open_divergences = open_count

    # -- reporting -------------------------------------------------------------

    #: recovery phases in order; ``gauges()["phase"]`` is an index into
    #: this tuple (numeric so it can ride a metrics time-series).
    PHASES = ("idle", "detecting", "recovering", "recovered")

    def current_phase(self) -> str:
        """Where the system sits in the detect -> recover pipeline.

        ``idle``: no fault activation on record.  ``detecting``: some
        activation is not yet reflected in any correct node's evidence
        (Req. 1 window open).  ``recovering``: everything is detected but
        the current convergence cycle has not closed (Req. 2 window
        open).  ``recovered``: the cycle converged.
        """
        if not self._activations:
            return "idle"
        if self._undetected():
            return "detecting"
        if self.decomposition.cycle_round is None:
            return "recovering"
        return "recovered"

    def gauges(self) -> Dict[str, float]:
        """Per-round numeric gauges for the metrics time-series (absent
        rounds read as -1 so the series stays purely numeric)."""
        detection = self.detection_round
        recovery = self.recovery_round
        return {
            "phase": float(self.PHASES.index(self.current_phase())),
            "activations": float(len(self._activations)),
            "violations": float(len(self.violations)),
            "detection_round": float(-1 if detection is None else detection),
            "recovery_round": float(-1 if recovery is None else recovery),
            "open_divergences": float(self._open_divergences),
        }

    def census(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for violation in self.violations:
            out[violation.kind] = out.get(violation.kind, 0) + 1
        return out
