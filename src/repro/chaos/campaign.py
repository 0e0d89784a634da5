"""Chaos campaign runner: adversaries x impairment plans x topologies x seeds.

Each campaign *cell* builds a fresh deployment, attaches a
:class:`~repro.chaos.impairments.ChaosRoundNetwork` carrying one
:class:`ImpairmentPlan` and a :class:`~repro.chaos.monitor.BTRMonitor` in
record mode, optionally injects one adversary behaviour mid-run, and runs a
fixed number of rounds.  The expectations depend on the cell's budget
classification:

* **in-budget** cells must finish with *zero* invariant violations;
* **out-of-budget** cells must raise ``ReboundSystem.budget_exceeded``,
  never crash, and never condemn a correct node through verifiable
  evidence (the monitor's hard-accuracy check).

Failing cells are shrunk to a minimal repro: impairment components are
removed one at a time, the adversary is dropped, and the round count is
halved, keeping every simplification that still fails.  Results are
written to ``BENCH_chaos.json`` (pass/fail matrix, rounds-to-recovery
distribution, violation census) -- the ``smoke`` preset is CI-sized.

The ``storm`` preset concentrates on the evidence layer: equivocation
(plain and epoch-split) and evidence floods, with the monitor additionally
asserting the admission-quota memory bounds every round.  The equivocation
accuracy gap these cells used to trip is closed (see
``tests/test_regression_equivocation.py``), so storm cells are judged like
any other -- zero violations in budget.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.corruption import CORRUPTIONS
from repro.chaos.impairments import (
    IN_BUDGET,
    ChaosRoundNetwork,
    ImpairmentPlan,
    LinkFlap,
    Partition,
)
from repro.chaos.monitor import BTRMonitor
from repro.chaos.restart import CrashRestartBehavior, LogTamperBehavior
from repro.core.config import ReboundConfig
from repro.core.runtime import ReboundSystem
from repro.faults import adversary as adv
from repro.net.network import RoundNetwork
from repro.net.topology import (
    Topology,
    chemical_plant_topology,
    erdos_renyi_topology,
    grid_topology,
)
from repro.obs.recorder import FlightRecorder
from repro.sched.task import chemical_plant_workload
from repro.sched.workload import WorkloadGenerator

WARMUP_ROUNDS = 10
RUN_ROUNDS = 26
IMPAIR_START = 12  # impairments and adversaries activate after warm-up
FMAX = 2

# -- topologies ----------------------------------------------------------------


def _er(n: int):
    def build(seed: int):
        topology = erdos_renyi_topology(n, seed=seed)
        workload = WorkloadGenerator(
            seed=seed, chain_length_range=(1, 2)
        ).workload(target_utilization=1.5)
        return topology, workload
    return build


def _grid(rows: int, cols: int):
    def build(seed: int):
        topology = grid_topology(rows, cols)
        workload = WorkloadGenerator(
            seed=seed, chain_length_range=(1, 2)
        ).workload(target_utilization=1.5)
        return topology, workload
    return build


def _plant(seed: int):
    return chemical_plant_topology(), chemical_plant_workload()


TOPOLOGIES: Dict[str, Callable[[int], Tuple[Topology, Any]]] = {
    "er6": _er(6),
    "er8": _er(8),
    "grid4x5": _grid(4, 5),
    "plant": _plant,
}

# -- adversaries ---------------------------------------------------------------


@dataclass(frozen=True)
class BehaviorSpec:
    name: str
    factory: Optional[Callable[[], Any]]
    fault_units: int
    observable: bool
    #: the cell runs with persistence on (a tempdir durable store per run).
    durability: bool = False
    #: the behavior corrupts the durable log; passing requires the restore
    #: path to report at least one tamper detection (and, without this
    #: flag, a durability cell fails on any detection).
    expect_tamper: bool = False
    #: scripted churn arc: ``seed -> [(round_no, fn(system, victim)), ...]``.
    #: Arc cells run with stabilization enabled.
    arc: Optional[Callable[[int], List[Tuple[int, Callable[..., Any]]]]] = None
    #: every transient corruption the arc injects must be detected by the
    #: auditor and resolved within the Req-S convergence bound.
    expect_converge: bool = False
    #: the arc drifts past fmax; passing requires at least one online
    #: subtree refresh and every correct node still holding a schedule.
    expect_refresh: bool = False


# -- churn arcs (PROTOCOL.md §16.5) --------------------------------------------
#
# Scripted multi-event timelines for the ``churn`` preset: transient
# corruption storms, compromise/bless/re-compromise cycles, and >fmax
# drift.  Each factory takes the cell seed and returns a sorted list of
# ``(round_no, action)``; ``run_cell`` fires each action once the system
# reaches that round.


def _crash_filler(system, victim):
    """Crash one non-victim controller so the evidence store is non-empty
    when a corruption lands (flipping a bit in an empty store is a no-op)."""
    target = max(
        c for c in system.topology.controllers
        if c != victim and c not in system.true_faulty_nodes
    )
    system.inject_now(target, adv.CrashBehavior())


def _arc_corrupt(kind: str):
    """One in-budget crash for evidence, then one transient corruption of
    the (still correct) victim four rounds later."""
    def build(seed: int):
        def corrupt(system, victim):
            system.corrupt_now(victim, CORRUPTIONS[kind](seed=seed))
        return [(IMPAIR_START, _crash_filler), (IMPAIR_START + 4, corrupt)]
    return build


def _arc_corruption_storm(seed: int):
    """Every corruption kind in sequence, across rotating correct victims."""
    actions: List[Tuple[int, Callable[..., Any]]] = [
        (IMPAIR_START, _crash_filler)
    ]
    for i, kind in enumerate(sorted(CORRUPTIONS)):
        def corrupt(system, victim, _kind=kind, _i=i):
            correct = sorted(system.correct_controllers())
            target = correct[(seed + _i) % len(correct)]
            system.corrupt_now(target, CORRUPTIONS[_kind](seed=seed + _i))
        actions.append((IMPAIR_START + 4 + 2 * i, corrupt))
    return actions


def _arc_cycle(seed: int):
    """Compromise -> operator repair+bless -> re-compromise -> repair."""
    def compromise(system, victim):
        system.inject_now(victim, adv.EquivocateBehavior())

    def bless(system, victim):
        system.repair_and_bless(victim)

    return [
        (IMPAIR_START, compromise),
        (IMPAIR_START + 8, bless),
        (IMPAIR_START + 16, compromise),
        (IMPAIR_START + 24, bless),
    ]


def _arc_drift(seed: int):
    """Crash fmax+1 distinct controllers: the observed pattern overflows
    the precomputed tree, forcing an online subtree refresh (no halt)."""
    actions: List[Tuple[int, Callable[..., Any]]] = []
    for i in range(FMAX + 1):
        def crash(system, victim, _i=i):
            correct = sorted(system.correct_controllers())
            system.inject_now(
                correct[(seed + _i) % len(correct)], adv.CrashBehavior()
            )
        actions.append((IMPAIR_START + 2 * i, crash))
    return actions


BEHAVIORS: Dict[str, BehaviorSpec] = {
    spec.name: spec
    for spec in [
        BehaviorSpec("none", None, 0, False),
        BehaviorSpec("crash", adv.CrashBehavior, 1, True),
        BehaviorSpec("silence", adv.SilenceBehavior, 1, True),
        BehaviorSpec("delay", lambda: adv.DelayBehavior(delay_rounds=2), 1, True),
        BehaviorSpec("flood", lambda: adv.GarbageFloodBehavior(size=2_000), 1, True),
        BehaviorSpec("equivocate", adv.EquivocateBehavior, 1, True),
        BehaviorSpec("epoch-split", adv.EpochSplitEquivocateBehavior, 1, True),
        # The flood's self-incriminating PoMs make the attacker observable.
        BehaviorSpec(
            "evidence-flood",
            lambda: adv.EvidenceFloodBehavior(rate=100),
            1,
            True,
        ),
        BehaviorSpec("lfd-storm", adv.LFDStormBehavior, 1, True),
        # Observability of a corrupted output depends on the drawn workload
        # (paper Req. 1 excludes faults with no visible effect), so the
        # detection deadline stays disarmed for this one.
        BehaviorSpec("random-output", lambda: adv.RandomOutputBehavior(seed=11), 1, False),
        # Durability arcs: fail-stop, stay down, restart from the durable
        # store, rejoin within the recovery bound.  The tamper variants
        # corrupt the on-disk chained log while the victim is down and
        # must be *detected* (refused suffix), never silently replayed.
        BehaviorSpec(
            "crash-restart",
            lambda: CrashRestartBehavior(down_rounds=3),
            1, True, durability=True,
        ),
        BehaviorSpec(
            "tamper-truncate",
            lambda: LogTamperBehavior(mode="truncate", down_rounds=3),
            1, True, durability=True, expect_tamper=True,
        ),
        BehaviorSpec(
            "tamper-bitflip",
            lambda: LogTamperBehavior(mode="bitflip", down_rounds=3),
            1, True, durability=True, expect_tamper=True,
        ),
        BehaviorSpec(
            "tamper-splice",
            lambda: LogTamperBehavior(mode="splice", down_rounds=3),
            1, True, durability=True, expect_tamper=True,
        ),
        # Churn arcs (the ``churn`` preset): stabilization enabled.  The
        # corruption arcs spend one
        # budget unit on a crash that seeds the evidence store; the drift
        # arc deliberately overspends the budget.
        BehaviorSpec(
            "corrupt-evidence", None, 1, True,
            arc=_arc_corrupt("evidence-bitflip"), expect_converge=True,
        ),
        BehaviorSpec(
            "corrupt-epoch", None, 1, True,
            arc=_arc_corrupt("epoch-desync"), expect_converge=True,
        ),
        BehaviorSpec(
            "corrupt-mode", None, 1, True,
            arc=_arc_corrupt("mode-scramble"), expect_converge=True,
        ),
        BehaviorSpec(
            "corrupt-quota", None, 1, True,
            arc=_arc_corrupt("quota-corrupt"), expect_converge=True,
        ),
        BehaviorSpec(
            "corruption-storm", None, 1, True,
            arc=_arc_corruption_storm, expect_converge=True,
        ),
        BehaviorSpec("bless-cycle", None, 1, True, arc=_arc_cycle),
        BehaviorSpec(
            "drift-overflow", None, FMAX + 1, True,
            arc=_arc_drift, expect_refresh=True,
        ),
    ]
}

# -- impairment plans ----------------------------------------------------------


def _controller_links(topology: Topology) -> List[Tuple[int, int]]:
    controllers = set(topology.controllers)
    return sorted(
        tuple(sorted(link))
        for link in topology.p2p_links
        if set(link) <= controllers
    ) or sorted(
        tuple(sorted((a, b)))
        for bus in topology.buses.values()
        for a in bus.members
        for b in bus.members
        if a < b and {a, b} <= controllers
    )


def _pick_link(topology: Topology, seed: int, avoid: Optional[int]) -> Tuple[int, int]:
    links = _controller_links(topology)
    eligible = [l for l in links if avoid not in l] or links
    return eligible[seed % len(eligible)]


def _halves(topology: Topology) -> Tuple[frozenset, frozenset]:
    controllers = topology.controllers
    mid = len(controllers) // 2
    return frozenset(controllers[:mid]), frozenset(controllers[mid:])


# Each builder: (topology, seed, victim) -> ImpairmentPlan.
PlanBuilder = Callable[[Topology, int, Optional[int]], ImpairmentPlan]


def _plan_none(topology, seed, victim):
    return ImpairmentPlan(seed=seed)


def _plan_dup(topology, seed, victim):
    return ImpairmentPlan(seed=seed, dup_prob=0.35, start_round=IMPAIR_START)


def _plan_reorder(topology, seed, victim):
    return ImpairmentPlan(seed=seed, reorder_prob=0.6, start_round=IMPAIR_START)


def _plan_dup_reorder(topology, seed, victim):
    return ImpairmentPlan(
        seed=seed, dup_prob=0.25, reorder_prob=0.5, start_round=IMPAIR_START
    )


def _plan_drop_link(topology, seed, victim):
    link = _pick_link(topology, seed, victim)
    return ImpairmentPlan(
        seed=seed, drop_prob=0.7, target_links=frozenset([link]),
        start_round=IMPAIR_START,
    )


def _plan_corrupt_link(topology, seed, victim):
    link = _pick_link(topology, seed, victim)
    return ImpairmentPlan(
        seed=seed, corrupt_prob=0.6, target_links=frozenset([link]),
        start_round=IMPAIR_START,
    )


def _plan_delay_link(topology, seed, victim):
    link = _pick_link(topology, seed, victim)
    return ImpairmentPlan(
        seed=seed, delay_prob=0.5, max_delay_rounds=2,
        target_links=frozenset([link]), start_round=IMPAIR_START,
    )


def _plan_flap_link(topology, seed, victim):
    a, b = _pick_link(topology, seed, victim)
    return ImpairmentPlan(
        seed=seed,
        flaps=(LinkFlap(a, b, start_round=IMPAIR_START, down_rounds=4),),
        start_round=IMPAIR_START,
    )


def _plan_drop_global(topology, seed, victim):
    return ImpairmentPlan(seed=seed, drop_prob=0.12, start_round=IMPAIR_START)


def _plan_corrupt_global(topology, seed, victim):
    return ImpairmentPlan(seed=seed, corrupt_prob=0.15, start_round=IMPAIR_START)


def _plan_delay_global(topology, seed, victim):
    return ImpairmentPlan(
        seed=seed, delay_prob=0.25, max_delay_rounds=3, start_round=IMPAIR_START
    )


def _plan_storm(topology, seed, victim):
    return ImpairmentPlan(
        seed=seed, drop_prob=0.1, dup_prob=0.2, corrupt_prob=0.1,
        delay_prob=0.15, reorder_prob=0.5, start_round=IMPAIR_START,
    )


def _plan_partition(topology, seed, victim):
    left, right = _halves(topology)
    return ImpairmentPlan(
        seed=seed,
        partitions=(Partition(
            groups=(left, right),
            start_round=IMPAIR_START, end_round=IMPAIR_START + 6,
        ),),
        start_round=IMPAIR_START,
    )


def _plan_flap_many(topology, seed, victim):
    links = _controller_links(topology)
    chosen = links[: FMAX + 1]
    return ImpairmentPlan(
        seed=seed,
        flaps=tuple(
            LinkFlap(a, b, start_round=IMPAIR_START + i, down_rounds=4)
            for i, (a, b) in enumerate(chosen)
        ),
        start_round=IMPAIR_START,
    )


PLANS: Dict[str, PlanBuilder] = {
    "none": _plan_none,
    "dup": _plan_dup,
    "reorder": _plan_reorder,
    "dup+reorder": _plan_dup_reorder,
    "drop-link": _plan_drop_link,
    "corrupt-link": _plan_corrupt_link,
    "delay-link": _plan_delay_link,
    "flap-link": _plan_flap_link,
    "drop-global": _plan_drop_global,
    "corrupt-global": _plan_corrupt_global,
    "delay-global": _plan_delay_global,
    "storm-global": _plan_storm,
    "partition": _plan_partition,
    "flap-many": _plan_flap_many,
}

# -- cells ---------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignCell:
    """One configuration of the sweep."""

    topology: str
    behavior: str
    plan: str
    seed: int
    variant: str = "multi"
    rounds: int = RUN_ROUNDS
    #: explicit plan override used by the shrinker (None = build from name)
    plan_override: Optional[ImpairmentPlan] = field(default=None, compare=False)

    @property
    def cell_id(self) -> str:
        return f"{self.topology}/{self.behavior}/{self.plan}/s{self.seed}/{self.variant}"


def smoke_cells() -> List[CampaignCell]:
    """The CI-sized matrix: every behaviour and every plan at least once,
    both budget classes, two seeds on the small topology, plus 20-node
    grid spot checks."""
    cells: List[CampaignCell] = []
    er_pairs = [
        ("none", "none"), ("none", "dup"), ("none", "reorder"),
        ("none", "dup+reorder"), ("none", "drop-link"),
        ("none", "corrupt-link"), ("none", "delay-link"),
        ("none", "flap-link"),
        ("crash", "none"), ("crash", "dup"), ("crash", "drop-link"),
        ("silence", "reorder"), ("delay", "dup"), ("flood", "none"),
        ("lfd-storm", "none"), ("equivocate", "dup"),
        ("random-output", "reorder"),
        # out-of-budget block
        ("none", "drop-global"), ("none", "corrupt-global"),
        ("none", "delay-global"), ("none", "storm-global"),
        ("none", "partition"), ("none", "flap-many"),
        ("crash", "drop-global"),
    ]
    for behavior, plan in er_pairs:
        for seed in (0, 1):
            cells.append(CampaignCell("er6", behavior, plan, seed))
    cells.append(CampaignCell("grid4x5", "none", "none", 0))
    cells.append(CampaignCell("grid4x5", "crash", "drop-link", 0))
    cells.append(CampaignCell("grid4x5", "none", "partition", 0))
    return cells


def full_cells() -> List[CampaignCell]:
    cells: List[CampaignCell] = []
    for topology in ("er6", "er8", "plant", "grid4x5"):
        for behavior in BEHAVIORS:
            for plan in PLANS:
                for seed in (0, 1, 2):
                    cells.append(CampaignCell(topology, behavior, plan, seed))
    return cells


def storm_cells() -> List[CampaignCell]:
    """The evidence-layer stress matrix: equivocation storms (plain and
    epoch-split) and 100x evidence floods, on the small graph and the
    20-node grid, with the memory-bound checks armed."""
    cells: List[CampaignCell] = []
    for behavior in ("equivocate", "epoch-split", "evidence-flood"):
        for seed in (0, 1):
            cells.append(CampaignCell("er6", behavior, "none", seed))
    cells.append(CampaignCell("er6", "equivocate", "dup", 0))
    cells.append(CampaignCell("er6", "evidence-flood", "reorder", 0))
    cells.append(CampaignCell("grid4x5", "evidence-flood", "none", 0))
    cells.append(CampaignCell("grid4x5", "equivocate", "none", 0))
    return cells


def restart_cells() -> List[CampaignCell]:
    """The durability matrix: crash-restart-rejoin arcs (restore within
    the recovery bound) plus one cell per log-tamper mode (truncation,
    bit-flip, splice -- each must be detected, not silently replayed).
    Longer cells: the restart opens a fresh ``r_max`` window around round
    14, and the grid's ``d_max`` puts that deadline in the high 30s."""
    rounds = 44
    cells: List[CampaignCell] = []
    for seed in (0, 1):
        cells.append(CampaignCell("er6", "crash-restart", "none", seed, rounds=rounds))
    cells.append(CampaignCell("er6", "crash-restart", "dup", 0, rounds=rounds))
    cells.append(CampaignCell("grid4x5", "crash-restart", "none", 0, rounds=rounds))
    for behavior in ("tamper-truncate", "tamper-bitflip", "tamper-splice"):
        cells.append(CampaignCell("er6", behavior, "none", 0, rounds=rounds))
    return cells


def churn_cells() -> List[CampaignCell]:
    """The self-stabilization matrix (PROTOCOL.md §16.5): every transient
    corruption kind (plus a rotating-victim storm of all of them), the
    compromise -> bless -> re-compromise lifecycle, and >fmax drift cells
    whose observed pattern falls outside the precomputed tree -- those
    must refresh the affected subtree online, never halt.  Corruption
    cells are judged against the Req-S convergence bound; drift cells
    additionally report ``time_to_new_tree_s``."""
    rounds = 44
    cells: List[CampaignCell] = []
    for behavior in (
        "corrupt-evidence", "corrupt-epoch", "corrupt-mode", "corrupt-quota"
    ):
        for seed in (0, 1):
            cells.append(CampaignCell("er6", behavior, "none", seed, rounds=rounds))
    cells.append(
        CampaignCell("er6", "corruption-storm", "none", 0, rounds=rounds + 8)
    )
    cells.append(CampaignCell("er6", "bless-cycle", "none", 0, rounds=rounds + 8))
    cells.append(CampaignCell("er6", "corrupt-evidence", "dup", 0, rounds=rounds))
    cells.append(CampaignCell("grid4x5", "corrupt-epoch", "none", 0, rounds=rounds))
    for seed in (0, 1):
        cells.append(
            CampaignCell("er6", "drift-overflow", "none", seed, rounds=rounds)
        )
    return cells


PRESETS: Dict[str, Callable[[], List[CampaignCell]]] = {
    "smoke": smoke_cells,
    "full": full_cells,
    "storm": storm_cells,
    "restart": restart_cells,
    "churn": churn_cells,
}


# -- execution -----------------------------------------------------------------


def run_cell(cell: CampaignCell) -> Dict[str, Any]:
    """Build, impair, run, and judge one cell."""
    spec = BEHAVIORS[cell.behavior]
    topology, workload = TOPOLOGIES[cell.topology](cell.seed)
    victim = (
        topology.controllers[cell.seed % len(topology.controllers)]
        if spec.factory is not None or spec.arc is not None
        else None
    )
    plan = cell.plan_override
    if plan is None:
        plan = PLANS[cell.plan](topology, cell.seed, victim)
    budget = FMAX - spec.fault_units
    in_budget = plan.classify(budget) == IN_BUDGET
    context = {
        "topology": cell.topology,
        "topology_seed": cell.seed,
        "behavior": cell.behavior,
        "victim": victim,
        "variant": cell.variant,
        "plan_name": cell.plan,
        "plan": plan.as_dict(),
        "rounds": cell.rounds,
    }
    # The Req. 1 deadline is armed for observable adversaries and for
    # lossy in-budget impairments (a dropped heartbeat must surface as an
    # LFD); dup/reorder-only plans leave nothing to detect.
    monitor = BTRMonitor(
        in_budget=in_budget,
        require_detection=spec.observable or (in_budget and plan.is_lossy),
        record_only=True,
        context=context,
    )
    result: Dict[str, Any] = {
        "cell": cell.cell_id,
        "topology": cell.topology,
        "behavior": cell.behavior,
        "plan_name": cell.plan,
        "plan": plan.as_dict(),
        "seed": cell.seed,
        "variant": cell.variant,
        "in_budget": in_budget,
        "budget_units": plan.budget_units(),
    }
    # A per-cell flight recorder: violation repro dicts (and crash results)
    # carry the trailing event window.  The recorder only observes, so the
    # cell's transcript is unchanged (see noop_transcript_check).
    recorder = FlightRecorder(capacity=4096)
    recorder.install()
    system = None
    durability_dir = None
    try:
        config_kwargs: Dict[str, Any] = {}
        if spec.arc is not None:
            config_kwargs.update(stabilize_enabled=True, audit_interval=4)
        if spec.durability:
            durability_dir = tempfile.mkdtemp(prefix="rebound-durable-")
            config_kwargs = {
                "durability_enabled": True,
                "durability_dir": durability_dir,
                "snapshot_interval": 8,
            }
        config = ReboundConfig(
            fmax=FMAX, fconc=1, variant=cell.variant, rsa_bits=256,
            **config_kwargs,
        )
        system = ReboundSystem(
            topology, workload, config, seed=cell.seed,
            network_factory=lambda topo: ChaosRoundNetwork(
                topo, plan, budget=budget
            ),
        )
        system.run(WARMUP_ROUNDS)
        system.attach_monitor(monitor)
        if spec.arc is not None:
            for rnd, action in sorted(spec.arc(cell.seed), key=lambda a: a[0]):
                while system.round_no < min(rnd, cell.rounds):
                    system.run_round()
                action(system, victim)
        elif spec.factory is not None:
            system.run(IMPAIR_START - WARMUP_ROUNDS - 1)
            system.inject_now(victim, spec.factory())
        remaining = cell.rounds - (system.round_no - 0)
        system.run(max(0, remaining))
    except Exception as exc:  # noqa: BLE001 -- "never crash" is the invariant
        result["outcome"] = "crash"
        result["crash"] = f"{type(exc).__name__}: {exc}"
        result["violations"] = [v.as_dict() for v in monitor.violations]
        result["violation_census"] = monitor.census()
        result["trace_tail"] = recorder.tail(64)
        return result
    finally:
        recorder.uninstall()
        if system is not None:
            system.close()
        if durability_dir is not None:
            shutil.rmtree(durability_dir, ignore_errors=True)

    result["budget_exceeded"] = system.budget_exceeded
    result["violations"] = [v.as_dict() for v in monitor.violations]
    result["violation_census"] = monitor.census()
    result["detection_round"] = monitor.detection_round
    result["recovery_round"] = monitor.recovery_round
    if spec.durability:
        detections = system.durability_tamper_detections
        result["tamper_detections"] = len(detections)
        result["tamper_reasons"] = [d["reason"] for d in detections]
    stats = getattr(system.network, "chaos_stats", None)
    result["impairment_stats"] = stats.as_dict() if stats is not None else None
    first_event = min(system.fault_rounds) if system.fault_rounds else (
        stats.first_impact_round if stats is not None else None
    )
    if monitor.recovery_round is not None and first_event is not None:
        result["rounds_to_recovery"] = monitor.recovery_round - first_event
    else:
        result["rounds_to_recovery"] = None

    hard_accuracy = [
        v for v in monitor.violations
        if v.kind == "accuracy" and v.repro.get("layer") == "evidence"
    ]
    if in_budget:
        result["outcome"] = "fail" if monitor.violations else "pass"
    else:
        ok = system.budget_exceeded and not hard_accuracy
        result["outcome"] = "pass" if ok else "fail"
        if not system.budget_exceeded:
            result["fail_reason"] = "budget_exceeded not reported"
        elif hard_accuracy:
            result["fail_reason"] = "verifiable evidence condemned a correct node"
    if spec.durability and result["outcome"] == "pass":
        # A tamper cell only passes when the restore path actually caught
        # the corruption; a clean rejoin over a forged log is the failure
        # this cell exists to rule out.  A clean restart must restore
        # without one: a detection there is a false alarm.
        if spec.expect_tamper and not result["tamper_detections"]:
            result["outcome"] = "fail"
            result["fail_reason"] = "log tamper not detected on restore"
        elif not spec.expect_tamper and result["tamper_detections"]:
            result["outcome"] = "fail"
            result["fail_reason"] = "tamper detected on a clean restart"
    if spec.arc is not None:
        bound = system.bounds.convergence_s
        divergences = [
            dict(record)
            for aud in system.auditors.values()
            for record in aud.divergences
        ]
        result["convergence_bound"] = bound
        result["corruptions"] = list(system.transient_corruptions)
        result["divergences"] = divergences
        result["tree_refreshes"] = list(system.tree_refreshes)
    if spec.expect_converge and result["outcome"] == "pass":
        # Req-S: within the convergence bound of each corruption landing,
        # the victim's auditor must report a *clean* tick -- either the
        # resync repaired the damage or fresh protocol traffic overwrote
        # it naturally before the tick (equally valid convergence).
        laggards = []
        for corruption in system.transient_corruptions:
            audits = system.auditors[corruption["node"]].audits
            converged = any(
                corruption["round"] < tick <= corruption["round"] + bound
                and not outstanding
                for tick, outstanding in audits
            )
            if not converged:
                laggards.append(corruption)
        if laggards:
            result["outcome"] = "fail"
            result["fail_reason"] = (
                f"{len(laggards)} corruption(s) not converged within "
                f"{bound} rounds"
            )
            result["laggards"] = laggards
    if spec.expect_refresh and result["outcome"] == "pass":
        refreshes = result.get("tree_refreshes", [])
        holes = [
            n for n in system.correct_controllers()
            if system.nodes[n].current_schedule is None
        ]
        if not refreshes:
            result["outcome"] = "fail"
            result["fail_reason"] = "no online tree refresh for >fmax drift"
        elif holes:
            result["outcome"] = "fail"
            result["fail_reason"] = (
                f"correct node(s) {holes} left without a schedule"
            )
        else:
            result["time_to_new_tree_s"] = max(
                r["elapsed_s"] for r in refreshes
            )
    return result


# -- shrinking -----------------------------------------------------------------


def shrink_cell(cell: CampaignCell, max_attempts: int = 16) -> Dict[str, Any]:
    """Greedy minimization of a failing cell.

    Re-runs simplified variants (drop one impairment component, drop the
    adversary, halve the rounds) and keeps each simplification that still
    fails.  Returns the minimal failing configuration's repro dict.
    """
    spec = BEHAVIORS[cell.behavior]
    topology, _ = TOPOLOGIES[cell.topology](cell.seed)
    victim = (
        topology.controllers[cell.seed % len(topology.controllers)]
        if spec.factory is not None
        else None
    )
    base_plan = cell.plan_override or PLANS[cell.plan](topology, cell.seed, victim)
    current = replace(cell, plan_override=base_plan)
    attempts = 0

    def fails(candidate: CampaignCell) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        return run_cell(candidate)["outcome"] in ("fail", "crash")

    changed = True
    while changed and attempts < max_attempts:
        changed = False
        for component in current.plan_override.components():
            candidate = replace(
                current, plan_override=current.plan_override.without(component)
            )
            if fails(candidate):
                current = candidate
                changed = True
                break
        if not changed and current.behavior != "none":
            candidate = replace(current, behavior="none")
            if fails(candidate):
                current = candidate
                changed = True
        if not changed and current.rounds > 8:
            candidate = replace(current, rounds=current.rounds // 2)
            if fails(candidate):
                current = candidate
                changed = True
    return {
        "cell": current.cell_id,
        "topology": current.topology,
        "seed": current.seed,
        "behavior": current.behavior,
        "variant": current.variant,
        "rounds": current.rounds,
        "plan": current.plan_override.as_dict(),
        "shrink_attempts": attempts,
    }


# -- the no-op identity check --------------------------------------------------


def noop_transcript_check(rounds: int = 16, crash_round: int = 8) -> bool:
    """A no-op chaos network must be invisible: byte-identical transcripts
    (per-node evidence digests + modes, every round) against the plain
    network on the 20-node grid, across a crash fault."""
    from repro.analysis.metrics import transcript_entry

    def run(factory) -> List[Tuple]:
        topology = grid_topology(4, 5)
        workload = WorkloadGenerator(
            seed=0, chain_length_range=(1, 2)
        ).workload(target_utilization=1.5)
        config = ReboundConfig(fmax=1, fconc=1, variant="multi", rsa_bits=256)
        system = ReboundSystem(
            topology, workload, config, seed=0, network_factory=factory
        )
        transcript = []
        for r in range(1, rounds + 1):
            if r == crash_round:
                system.inject_now(max(topology.controllers), adv.CrashBehavior())
            system.run_round()
            transcript.append(transcript_entry(system))
        return transcript

    plain = run(RoundNetwork)
    chaotic = run(lambda topo: ChaosRoundNetwork(topo, ImpairmentPlan()))
    return plain == chaotic


# -- campaign driver -----------------------------------------------------------


def run_campaign(
    preset: str = "smoke",
    seeds: Optional[List[int]] = None,
    max_cells: Optional[int] = None,
    shrink: bool = True,
    output_path: Optional[str] = "BENCH_chaos.json",
    progress: Optional[Callable[[str], None]] = None,
    on_result: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Dict[str, Any]:
    """Run a preset's cells and write the BENCH report.

    ``on_result`` (when given) receives each cell's full outcome dict as
    it lands -- the hook behind ``chaos --live``'s running tally
    (:class:`repro.obs.console.CampaignLiveSink`).  It fires before
    shrinking, so a slow shrink does not delay the verdict line.
    """
    from repro.experiments.common import bench_env

    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
    cells = PRESETS[preset]()
    if seeds is not None:
        chosen = set(seeds)
        cells = [c for c in cells if c.seed in chosen]
    if max_cells is not None:
        cells = cells[:max_cells]
    t0 = time.perf_counter()
    results: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    for cell in cells:
        outcome = run_cell(cell)
        results.append(outcome)
        if on_result is not None:
            on_result(outcome)
        if progress is not None:
            progress(f"[{outcome['outcome']:>6}] {outcome['cell']}")
        if outcome["outcome"] in ("fail", "crash") and shrink:
            outcome["shrunk"] = shrink_cell(cell)
            failures.append(outcome["shrunk"])
    matrix = {"pass": 0, "fail": 0, "crash": 0}
    census: Dict[str, int] = {}
    recovery_rounds: List[int] = []
    for outcome in results:
        matrix[outcome["outcome"]] = matrix.get(outcome["outcome"], 0) + 1
        for kind, count in outcome.get("violation_census", {}).items():
            census[kind] = census.get(kind, 0) + count
        if outcome.get("rounds_to_recovery") is not None:
            recovery_rounds.append(outcome["rounds_to_recovery"])
    noop_identical = noop_transcript_check()
    report = {
        "benchmark": "chaos",
        "env": bench_env(),
        "preset": preset,
        "fmax": FMAX,
        "cells": results,
        "cell_count": len(results),
        "matrix": matrix,
        "violation_census": census,
        "recovery_rounds": {
            "values": sorted(recovery_rounds),
            "mean": (
                sum(recovery_rounds) / len(recovery_rounds)
                if recovery_rounds else None
            ),
            "max": max(recovery_rounds) if recovery_rounds else None,
        },
        "failures": failures,
        "noop_transcript_identical": noop_identical,
        "elapsed_s": time.perf_counter() - t0,
    }
    if output_path is not None:
        with open(output_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
