"""The recovery oracle: when a fault counts as detected and a node as recovered.

The paper's central claims are temporal (Fig. 6): a fault is *detected*
within ``d_max`` rounds, its evidence floods the partition, and every
correct node *switches mode* within ``Rmax``.  This module is the one place
those words are decided:

* :func:`covers` -- does a node's failure pattern reflect a fault element?
* :func:`placements_clear` -- does a mode host no task on a set of nodes?
* :func:`modes_agree` -- do a set of nodes run one mode?
* :class:`RecoveryDecomposition` -- the incremental per-node state
  machine built on them, stepped once per round with every correct
  node's failure pattern, evidence digest and current mode, which also
  keeps Req. 2's verdict (every fault detected, one agreed mode, every
  mode clear of the faulty nodes):

    fault ──(detection)──► first pattern hit ──(evidence settling)──►
    last evidence change ──(switch lag)──► clean mode adopted

The three phases are *adjacent spans* -- each starts where the previous
one ends -- so per node they sum exactly to the node's total recovery
rounds; no double counting, no gaps.

Two feeds drive the same machine.  :class:`~repro.chaos.monitor.BTRMonitor`
steps it live from the system after every round, and :func:`reconstruct`
steps it from a flight-recorder trace: ``EV_FAULT_INJECTED`` gives the
activations, ``EV_EPOCH_ADVANCE`` each node's pattern and digest after a
change, and ``EV_MODE_SELECTED`` each adopted mode's placement hosts.  The
trace driver gates on the two decompositions being equal;
``divergence_report`` summarizes per-node final evidence digests (the
diagnosis aid for the closed equivocation gap -- see ROADMAP.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.obs.events import (
    CORRUPTION_BEHAVIOR,
    EV_EPOCH_ADVANCE,
    EV_FAULT_INJECTED,
    EV_MODE_SELECTED,
    TraceEvent,
)

Link = Tuple[int, int]
#: a fault element: ``(kind, target)``, target a node id or a link.
Element = Tuple[str, Any]

#: fault-event kinds that need no detecting: an operator's durable restart
#: or repair is visible as it happens, and a transient corruption leaves
#: its victim correct (the state auditor repairs it).
SELF_EVIDENT = ("restart", "repair", "corruption")


def covers(element: Any, pattern_nodes, pattern_links) -> bool:
    """Whether a failure pattern reflects ``element``.

    A node is covered when the pattern condemns it or one of its links; a
    link ``(a, b)`` with ``a < b`` when the pattern holds the link or
    condemns an endpoint.
    """
    if isinstance(element, tuple):
        return element in pattern_links or not pattern_nodes.isdisjoint(element)
    return element in pattern_nodes or any(element in link for link in pattern_links)


def placements_clear(schedule, nodes) -> bool:
    """Whether ``schedule`` exists and places no task on any of ``nodes``."""
    return schedule is not None and nodes.isdisjoint(schedule.placements.values())


def modes_agree(schedules: Iterable[Any]) -> bool:
    """Whether ``schedules`` (at least one) are all one mode -- the same
    failure pattern, a missing mode counting as a mode of its own."""
    return len({
        None if s is None
        else (tuple(sorted(s.failed_nodes)), tuple(sorted(s.failed_links)))
        for s in schedules
    }) == 1


@dataclass
class FaultGroundTruth:
    """What actually failed: node and link faults with their first active round."""

    nodes: Dict[int, int] = field(default_factory=dict)  # node -> round
    links: Dict[Link, int] = field(default_factory=dict)  # link -> round

    @property
    def empty(self) -> bool:
        return not self.nodes and not self.links

    @property
    def first_round(self) -> Optional[int]:
        return min(self.elements().values(), default=None)

    @property
    def last_round(self) -> Optional[int]:
        return max(self.elements().values(), default=None)

    def elements(self) -> Dict[Element, int]:
        out: Dict[Element, int] = {("node", n): r for n, r in self.nodes.items()}
        out.update((("link", link), r) for link, r in self.links.items())
        return out


class NodeState(NamedTuple):
    """One correct node's state at the end of a round, as the machine reads it."""

    pattern_nodes: Any
    pattern_links: Any
    digest: Any  # anything that changes exactly when the evidence set does
    schedule: Any  # the adopted mode: its placements and failure pattern


def _span(start: Optional[int], end: Optional[int]) -> Optional[int]:
    return None if start is None or end is None else end - start


@dataclass
class NodeRecovery:
    """One node's recovery decomposition for one fault episode.

    ``detection_round`` is the first round the node's pattern covered an
    activated fault (the switch round, if it switched first),
    ``switch_round`` the first round since which its mode is clear of the
    faulty nodes (a relapse to a dirty mode resets it), and
    ``evidence_round`` the node's last evidence change before that switch.
    The phase widths are adjacent spans, so
    ``detection_rounds + evidence_rounds + switch_rounds == total_rounds``
    whenever the node recovered (a node whose mode was already clear when
    the fault hit has all-zero phases).
    """

    node: int
    fault_round: int
    detection_round: Optional[int] = None
    evidence_round: Optional[int] = None
    switch_round: Optional[int] = None
    _changed: Optional[int] = field(default=None, repr=False, compare=False)

    def step(self, round_no: int, detected: bool, changed: bool, clear: bool) -> None:
        """Advance one round: did the pattern cover a fault, did the
        evidence change, is the mode clear of the faulty nodes?"""
        if changed and self.switch_round is None:
            self._changed = round_no
        if detected and self.detection_round is None:
            self.detection_round = round_no
        if not clear:
            self.switch_round = self.evidence_round = None
        elif self.switch_round is None:
            if self.detection_round is None:
                self.detection_round = round_no
            settled = self.detection_round if self._changed is None else self._changed
            self.switch_round = round_no
            self.evidence_round = min(max(settled, self.detection_round), round_no)

    @property
    def recovered(self) -> bool:
        return self.switch_round is not None

    @property
    def phase(self) -> str:
        """``detection`` until the pattern covers a fault, ``evidence``
        until the mode is clear of the faulty nodes, then ``recovered``."""
        if self.recovered:
            return "recovered"
        return "detection" if self.detection_round is None else "evidence"

    @property
    def detection_rounds(self) -> Optional[int]:
        return _span(self.fault_round, self.detection_round)

    @property
    def evidence_rounds(self) -> Optional[int]:
        return _span(self.detection_round, self.evidence_round)

    @property
    def switch_rounds(self) -> Optional[int]:
        return _span(self.evidence_round, self.switch_round)

    @property
    def total_rounds(self) -> Optional[int]:
        return _span(self.fault_round, self.switch_round)

    def as_dict(self) -> Dict[str, Any]:
        return {
            name: getattr(self, name)
            for name in (
                "node", "fault_round", "detection_round", "evidence_round",
                "switch_round", "detection_rounds", "evidence_rounds",
                "switch_rounds", "total_rounds",
            )
        }


@dataclass
class RecoveryDecomposition:
    """The per-node timeline of a fault episode, stepped one round at a
    time, and Req. 2's verdict on it."""

    truth: FaultGroundTruth = field(default_factory=FaultGroundTruth)
    per_node: Dict[int, NodeRecovery] = field(default_factory=dict)
    #: first round at which any correct node's pattern covered a fault.
    detection_round: Optional[int] = None
    #: first round since which *every* correct node runs a clean mode.
    convergence_round: Optional[int] = None
    #: element -> first round some correct node's pattern covered it.
    detected: Dict[Element, int] = field(default_factory=dict)
    #: Req. 2's verdict on the last round observed (see :meth:`observe`),
    #: and whether every correct mode was clear of the faulty nodes then.
    recovered: bool = False
    clear: bool = False
    #: first round the verdict held, and first round it held since the
    #: newest fault event (``None`` while that event's cycle is open).
    recovery_round: Optional[int] = None
    cycle_round: Optional[int] = None
    _events: int = field(default=0, repr=False)
    _digests: Dict[int, Any] = field(default_factory=dict, repr=False)

    def undetected(self, elements: Iterable[Element]) -> List[Element]:
        """The elements that need detecting and are not yet detected."""
        return [
            e for e in elements
            if e[0] not in SELF_EVIDENT and e not in self.detected
        ]

    def observe(
        self,
        round_no: int,
        states: Mapping[int, NodeState],
        elements: Mapping[Element, int],
        faulty,
        agreed: bool = True,
        require_detection: bool = True,
    ) -> None:
        """Step the machine over one round.

        Req. 2's verdict, *recovered*, holds when a fault event other than
        a corruption is on record, ``agreed`` holds, every correct mode is
        clear of ``faulty`` and -- with ``require_detection`` -- every
        element that needs detecting was detected.

        Args:
            states: every correct node's state at the end of ``round_no``.
            elements: every fault event so far, with the round it
                activated.  ``("node", n)`` and ``("link", l)`` are the
                ground truth; a kind in :data:`SELF_EVIDENT` needs no
                detecting; any other kind (say, an environment-impaired
                node) is detected the same way but never needs excluding.
            faulty: the nodes a recovered mode must place no task on.
            agreed: whether the correct nodes run one mode
                (:func:`modes_agree`).
            require_detection: Req. 1 is armed: record detections.
        """
        for (kind, target), activated in elements.items():
            if kind == "node":
                self.truth.nodes.setdefault(target, activated)
            elif kind == "link":
                self.truth.links.setdefault(target, activated)
        if len(elements) != self._events:  # a new fault event: a new cycle
            self._events, self.cycle_round = len(elements), None
        detectable = {
            e: r for e, r in elements.items() if e[0] not in SELF_EVIDENT
        }
        for element in self.undetected(detectable) if require_detection else ():
            if any(
                covers(element[1], s.pattern_nodes, s.pattern_links)
                for s in states.values()
            ):
                self.detected[element] = round_no
                if self.detection_round is None:
                    self.detection_round = round_no
        # A node that leaves the correct set leaves the episode.
        for node in set(self.per_node) - set(states):
            del self.per_node[node]
        fault_round = min(detectable.values(), default=None)
        self.clear = True
        for node, state in states.items():
            changed = self._digests.get(node, state.digest) != state.digest
            self._digests[node] = state.digest
            clear = placements_clear(state.schedule, faulty)
            self.clear = self.clear and clear
            if fault_round is None:
                continue
            nr = self.per_node.get(node)
            if nr is None:
                nr = self.per_node[node] = NodeRecovery(node, fault_round)
            nr.step(
                round_no,
                detected=any(
                    covers(target, state.pattern_nodes, state.pattern_links)
                    for _kind, target in detectable
                ),
                changed=changed,
                clear=clear,
            )
        self.recovered = (
            any(kind != "corruption" for kind, _ in elements)
            and agreed
            and self.clear
            and not (require_detection and self.undetected(detectable))
        )
        if self.recovered and self.recovery_round is None:
            self.recovery_round = round_no
        if self.recovered and self.cycle_round is None:
            self.cycle_round = round_no
        switches = [nr.switch_round for nr in self.per_node.values()]
        self.convergence_round = (
            max(switches) if switches and None not in switches else None
        )

    def phases(self) -> Dict[int, str]:
        """node -> the phase every not-yet-recovered node is stuck in."""
        return {
            n: nr.phase
            for n, nr in sorted(self.per_node.items())
            if not nr.recovered
        }

    @property
    def recovery_rounds(self) -> Optional[int]:
        """Rounds from the last fault activation to full convergence."""
        last = self.truth.last_round
        if last is None or self.convergence_round is None:
            return None
        return self.convergence_round - last

    def max_node_total(self) -> Optional[int]:
        totals = [
            nr.total_rounds for nr in self.per_node.values() if nr.recovered
        ]
        return max(totals) if totals else None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "faulty_nodes": {str(k): v for k, v in self.truth.nodes.items()},
            "failed_links": {
                f"{a}-{b}": r for (a, b), r in self.truth.links.items()
            },
            "detection_round": self.detection_round,
            "convergence_round": self.convergence_round,
            "recovery_rounds": self.recovery_rounds,
            "recovery_round": self.recovery_round,
            "per_node": {
                str(n): nr.as_dict() for n, nr in sorted(self.per_node.items())
            },
        }


def _ordered(events: Iterable[TraceEvent]) -> List[TraceEvent]:
    return sorted(events, key=lambda e: (e.round_no, e.seq, e.node))


def extract_ground_truth(events: Iterable[TraceEvent]) -> FaultGroundTruth:
    """The faults a trace injected.  A transient corruption of a correct
    node (``behavior`` ``corruption:*``) leaves the node correct, so it is
    no fault here, as it is none for the live monitor."""
    truth = FaultGroundTruth()
    for event in events:
        if event.kind != EV_FAULT_INJECTED or str(
            event.data.get("behavior")
        ).startswith(CORRUPTION_BEHAVIOR):
            continue
        target = event.data.get("target")
        link = event.data.get("link")
        if target is not None:
            truth.nodes.setdefault(int(target), event.round_no)
        elif link is not None:
            key = (min(link[0], link[1]), max(link[0], link[1]))
            truth.links.setdefault(key, event.round_no)
    return truth


class _TracedMode(NamedTuple):
    """The part of an adopted mode a trace records: its placement hosts
    and failure pattern."""

    placements: Dict[int, int]
    failed_nodes: List[int]
    failed_links: List[Link]


def reconstruct(events: Iterable[TraceEvent]) -> RecoveryDecomposition:
    """Rebuild the recovery decomposition from a trace (any event order).

    Each node's state is replayed from its ``EV_EPOCH_ADVANCE`` and
    ``EV_MODE_SELECTED`` events and the machine is stepped once per round,
    exactly as the live monitor steps it: a node counts as correct from its
    first adopted mode until its fault activates.
    """
    ordered = _ordered(events)
    decomposition = RecoveryDecomposition()
    if not ordered:
        return decomposition
    activations = extract_ground_truth(ordered).elements()
    states: Dict[int, NodeState] = {}
    by_round: Dict[int, List[TraceEvent]] = {}
    for event in ordered:
        by_round.setdefault(event.round_no, []).append(event)
    for round_no in range(ordered[0].round_no, ordered[-1].round_no + 1):
        for event in by_round.get(round_no, ()):
            state = states.get(event.node, NodeState(set(), set(), None, None))
            if event.kind == EV_EPOCH_ADVANCE:
                states[event.node] = state._replace(
                    pattern_nodes=set(event.data.get("pattern_nodes", ())),
                    pattern_links={
                        (min(a, b), max(a, b))
                        for a, b in event.data.get("pattern_links", ())
                    },
                    digest=event.data.get("digest"),
                )
            elif event.kind == EV_MODE_SELECTED:
                states[event.node] = state._replace(
                    schedule=_TracedMode(
                        dict(enumerate(event.data.get("placement_hosts", ()))),
                        list(event.data.get("failed_nodes", ())),
                        [tuple(link) for link in event.data.get("failed_links", ())],
                    )
                )
        elements = {e: r for e, r in activations.items() if r <= round_no}
        faulty = {target for kind, target in elements if kind == "node"}
        correct = {
            n: s for n, s in states.items()
            if n not in faulty and s.schedule is not None
        }
        decomposition.observe(
            round_no,
            correct,
            elements,
            faulty,
            agreed=modes_agree(s.schedule for s in correct.values()),
        )
    return decomposition


# -- evidence-divergence diagnosis ----------------------------------------------


def divergence_report(events: Iterable[TraceEvent]) -> Dict[str, Any]:
    """Group nodes by their *final* evidence digest.

    Under the known equivocation gap (ROADMAP open item) correct nodes'
    evidence sets diverge while LFDs storm; this report shows the divergent
    digest groups and each node's last normalized pattern -- the raw
    material for diagnosing which evidence subset condemned whom.
    """
    final: Dict[int, TraceEvent] = {}
    for event in _ordered(events):
        if event.kind == EV_EPOCH_ADVANCE:
            final[event.node] = event
    groups: Dict[str, List[int]] = {}
    patterns: Dict[str, Any] = {}
    for node, event in sorted(final.items()):
        digest = str(event.data.get("digest"))
        groups.setdefault(digest, []).append(node)
        patterns[str(node)] = {
            "digest": digest,
            "items": event.data.get("items"),
            "pattern_nodes": event.data.get("pattern_nodes"),
            "pattern_links": event.data.get("pattern_links"),
            "round": event.round_no,
        }
    return {
        "divergent": len(groups) > 1,
        "digest_groups": {d: nodes for d, nodes in sorted(groups.items())},
        "per_node": patterns,
    }


# -- Perfetto phase spans --------------------------------------------------------


def phase_spans(
    decomposition: RecoveryDecomposition, round_us: int = 1000
) -> List[Dict[str, Any]]:
    """Duration events rendering each node's phases in a Chrome trace."""
    spans: List[Dict[str, Any]] = []
    for node, nr in sorted(decomposition.per_node.items()):
        if not nr.recovered:
            continue
        segments = (
            ("detection", nr.fault_round, nr.detection_round),
            ("evidence", nr.detection_round, nr.evidence_round),
            ("switch", nr.evidence_round, nr.switch_round),
        )
        for name, start, end in segments:
            if start is None or end is None or end <= start:
                continue
            spans.append(
                {
                    "ph": "X",
                    "name": f"phase:{name}",
                    "cat": "recovery",
                    "pid": node,
                    "tid": 2,
                    "ts": start * round_us,
                    "dur": (end - start) * round_us,
                    "args": {"rounds": end - start},
                }
            )
    return spans
