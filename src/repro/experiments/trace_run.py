"""Trace driver: run a seeded fault scenario under the flight recorder.

``python -m repro trace --preset smoke`` runs a small deployment with the
:class:`~repro.obs.recorder.FlightRecorder` installed and a
:class:`~repro.chaos.monitor.BTRMonitor` attached, rebuilds the recovery
decomposition from the recorded events alone, and exits non-zero unless it
equals the decomposition the monitor stepped live and the monitor recorded
no violation.  It exports a JSONL event log and a Chrome-trace / Perfetto
file (protocol instants on tid 0, mode spans on tid 1, recovery-phase
spans on tid 2).

Presets:

* ``smoke`` -- a 4x5 grid deployment (BASIC, fmax=1, seeded crash at
  round 10): the CI-sized end-to-end check.
* ``equivocation-gap`` -- the formerly open equivocation storm
  (Erdos-Renyi n=6, REBOUND-MULTI, fmax=2, heartbeat equivocation), gated
  the same way now that epoch-aware Rule B attribution closes the gap.
  The exported ``divergence_report`` still shows which evidence digests the
  correct nodes ended on, for regression diagnosis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.chaos.monitor import BTRMonitor
from repro.core.config import ReboundConfig
from repro.core.runtime import ReboundSystem
from repro.faults.adversary import CrashBehavior, EquivocateBehavior
from repro.net.topology import Topology, erdos_renyi_topology, grid_topology
from repro.obs.recorder import FlightRecorder
from repro.obs.timeline import divergence_report, phase_spans, reconstruct
from repro.sched.workload import WorkloadGenerator


@dataclass(frozen=True)
class TracePreset:
    """One canned scenario: topology, variant, adversary, schedule."""

    name: str
    variant: str
    fmax: int
    fault_round: int
    rounds: int
    behavior_factory: Any
    topology_factory: Any
    victim: Optional[int] = None  # None -> highest-numbered controller
    diagnosis_only: bool = False  # exit 0 regardless of convergence


def _smoke_topology() -> Topology:
    return grid_topology(4, 5)


def _gap_topology() -> Topology:
    return erdos_renyi_topology(6, seed=0)


PRESETS: Dict[str, TracePreset] = {
    "smoke": TracePreset(
        name="smoke",
        variant="basic",
        fmax=1,
        fault_round=10,
        rounds=30,
        behavior_factory=CrashBehavior,
        topology_factory=_smoke_topology,
    ),
    "equivocation-gap": TracePreset(
        name="equivocation-gap",
        variant="multi",
        fmax=2,
        fault_round=10,
        rounds=34,
        behavior_factory=EquivocateBehavior,
        topology_factory=_gap_topology,
        victim=0,
    ),
}


def _pick_victim(system: ReboundSystem) -> int:
    """Highest-numbered controller hosting a placement in the initial mode.

    Crashing a node that hosts nothing leaves ``converged()`` trivially
    true (the placements already exclude it), so the timeline would have no
    recovery episode to decompose.
    """
    controllers = set(system.topology.controllers)
    reference = min(system.nodes)
    schedule = system.nodes[reference].current_schedule
    hosts = set(schedule.placements.values()) if schedule else set()
    candidates = sorted(hosts & controllers)
    return candidates[-1] if candidates else max(controllers)


def run_trace(
    preset: str = "smoke",
    rounds: Optional[int] = None,
    seed: int = 0,
    jsonl_path: Optional[str] = None,
    chrome_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one preset under the recorder; returns the full analysis dict.

    The exported files default to ``TRACE_<preset>.jsonl`` and
    ``TRACE_<preset>.chrome.json``; pass empty strings to skip writing.
    """
    spec = PRESETS[preset]
    total_rounds = spec.rounds if rounds is None else rounds
    if jsonl_path is None:
        jsonl_path = f"TRACE_{spec.name}.jsonl"
    if chrome_path is None:
        chrome_path = f"TRACE_{spec.name}.chrome.json"

    topology = spec.topology_factory()
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(
        fmax=spec.fmax, fconc=1, variant=spec.variant, rsa_bits=512
    )

    recorder = FlightRecorder()
    recorder.install()
    try:
        system = ReboundSystem(topology, workload, config, seed=seed)
        monitor = BTRMonitor(
            record_only=True, context={"preset": spec.name, "seed": seed}
        )
        system.attach_monitor(monitor)
        victim = spec.victim if spec.victim is not None else _pick_victim(system)
        for r in range(1, total_rounds + 1):
            if r == spec.fault_round:
                system.inject_now(victim, spec.behavior_factory())
            system.run_round()
    finally:
        recorder.uninstall()

    events = recorder.events()
    decomposition = reconstruct(events)
    divergence = divergence_report(events)

    if jsonl_path:
        recorder.export_jsonl(jsonl_path)
    if chrome_path:
        recorder.export_chrome_trace(
            chrome_path, phase_spans=phase_spans(decomposition)
        )

    traced = decomposition.as_dict()
    return {
        "preset": spec.name,
        "variant": spec.variant,
        "seed": seed,
        "rounds": total_rounds,
        "fault_round": spec.fault_round,
        "victim": victim,
        "events_recorded": len(recorder),
        "events_dropped": recorder.dropped,
        "decomposition": traced,
        "live_matches_trace": traced == monitor.decomposition.as_dict(),
        "violations": [v.as_dict() for v in monitor.violations],
        "divergence": divergence,
        "diagnosis_only": spec.diagnosis_only,
        "jsonl_path": jsonl_path or None,
        "chrome_path": chrome_path or None,
    }


def main(
    preset: str = "smoke",
    rounds: Optional[int] = None,
    seed: int = 0,
    jsonl_path: Optional[str] = None,
    chrome_path: Optional[str] = None,
) -> int:
    """CLI entry point: prints a summary, returns the exit code."""
    result = run_trace(
        preset=preset,
        rounds=rounds,
        seed=seed,
        jsonl_path=jsonl_path,
        chrome_path=chrome_path,
    )
    print(
        f"trace[{result['preset']}]: {result['events_recorded']} events "
        f"({result['events_dropped']} dropped), fault at round "
        f"{result['fault_round']} on node {result['victim']}"
    )
    d = result["decomposition"]
    print(
        f"  trace:     detection r{d['detection_round']}, "
        f"convergence r{d['convergence_round']} "
        f"({d['recovery_rounds']} recovery rounds)"
    )
    for node_key in sorted(d["per_node"], key=int):
        nr = d["per_node"][node_key]
        if nr["total_rounds"]:
            print(
                f"    node {node_key}: detection {nr['detection_rounds']} + "
                f"evidence {nr['evidence_rounds']} + "
                f"switch {nr['switch_rounds']} = {nr['total_rounds']} rounds"
            )
    print(f"  live decomposition equals trace: {result['live_matches_trace']}")
    print(f"  monitor violations: {len(result['violations'])}")
    if result["divergence"]["divergent"]:
        groups = result["divergence"]["digest_groups"]
        print(f"  evidence DIVERGED into {len(groups)} digest groups:")
        for digest, nodes in groups.items():
            print(f"    {digest}: nodes {nodes}")
    if result["jsonl_path"]:
        print(f"  wrote {result['jsonl_path']}")
    if result["chrome_path"]:
        print(f"  wrote {result['chrome_path']}")
    print("TRACE " + json.dumps(
        {
            "preset": result["preset"],
            "events_recorded": result["events_recorded"],
            "detection_round": d["detection_round"],
            "convergence_round": d["convergence_round"],
            "live_matches_trace": result["live_matches_trace"],
        },
        sort_keys=True,
    ))
    if result["diagnosis_only"]:
        return 0
    ok = result["live_matches_trace"] and not result["violations"]
    return 0 if ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main(*sys.argv[1:2]))
