"""The live operator console: ``python -m repro top`` and ``chaos --live``.

Renders, once per round, the operator view of the paper's three BTR
requirements: campaign/round progress, per-node health, the suspected-set
and evidence gauges from the :class:`~repro.obs.series.MetricsTimeSeries`,
and -- once a fault lands -- the detection -> evidence -> switch
decomposition the BTR monitor steps live.

On a TTY each frame repaints in place (ANSI home + clear-to-end); on a
pipe (CI, logs) frames print sequentially, and ``--once`` renders exactly
one final frame, which is what the ``telemetry-smoke`` CI job asserts on.
The console is an *observer*: it installs the same recorder/monitor/series
instrumentation the trace driver uses and never feeds a protocol decision.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional

from repro.obs import recorder as _flight

#: glyphs for the per-node health strip.
_GLYPH_OK = "+"
_GLYPH_FAULTY = "x"
_GLYPH_SUSPECTED = "?"
_GLYPH_CRASHED = "!"

_CLEAR = "\x1b[H\x1b[J"


def _suspected_nodes(system: Any) -> set:
    suspected: set = set()
    for node_id in system.correct_controllers():
        pattern = system.nodes[node_id].fault_pattern
        suspected |= set(pattern.nodes)
        for link in pattern.links:
            suspected |= set(link)
    return suspected


def _health_strip(system: Any) -> str:
    """One glyph per controller: faulty (ground truth), crashed,
    suspected (by some correct node), or healthy."""
    crashed = getattr(system.network, "_crashed", set())
    suspected = _suspected_nodes(system)
    cells: List[str] = []
    for node_id in system.topology.controllers:
        if node_id in system.true_faulty_nodes:
            glyph = _GLYPH_FAULTY
        elif node_id in crashed:
            glyph = _GLYPH_CRASHED
        elif node_id in suspected:
            glyph = _GLYPH_SUSPECTED
        else:
            glyph = _GLYPH_OK
        cells.append(f"{node_id}{glyph}")
    return " ".join(cells)


def _fmt_round(value: Optional[float]) -> str:
    if value is None or value < 0:
        return "-"
    return f"r{int(value)}"


def render_top(
    system: Any,
    monitor: Any = None,
    series: Any = None,
    title: str = "rebound top",
    total_rounds: Optional[int] = None,
) -> str:
    """One console frame as a string (no terminal control codes)."""
    lines: List[str] = []
    progress = f"round {system.round_no}"
    if total_rounds:
        progress += f"/{total_rounds}"
    lines.append(
        f"{title} | {progress}"
        + (" | OVER BUDGET" if system.budget_exceeded else "")
    )
    if monitor is not None and hasattr(monitor, "gauges"):
        g = monitor.gauges()
        lines.append(
            f"btr: phase={monitor.current_phase()}"
            f" | detection {_fmt_round(g['detection_round'])}"
            f" | recovery {_fmt_round(g['recovery_round'])}"
            f" | violations {int(g['violations'])}"
        )
    latest: Dict[str, float] = series.latest() if series is not None else {}
    if latest:
        suspected = latest.get("system.suspected_nodes")
        ev_max = latest.get("system.evidence_items_max")
        ev_cap = latest.get("system.evidence_item_cap")
        hb_max = latest.get("system.heartbeat_store_max")
        parts = []
        if suspected is not None:
            parts.append(f"suspected {int(suspected)}")
        if ev_max is not None:
            cap = f"/{int(ev_cap)}" if ev_cap is not None else ""
            parts.append(f"evidence max {int(ev_max)}{cap}")
        if hb_max is not None:
            parts.append(f"hb store max {int(hb_max)}")
        hits = latest.get("crypto.verdict_memo_hits", 0.0)
        lookups = hits + latest.get("crypto.verdict_memo_misses", 0.0)
        if lookups:
            # Records and RSA only: aggregates never enter the memo.
            parts.append(f"record/RSA verdict memo hits {hits / lookups:.0%}")
        parts.append(f"{len(latest)} gauges")
        lines.append("gauges: " + " | ".join(parts))
        beacons = latest.get("stabilize.audit_beacons")
        if beacons is not None:
            divergences = latest.get("stabilize.divergences", 0.0)
            open_div = latest.get("stabilize.open_divergences", 0.0)
            stab = (
                f"stabilize: beacons {int(beacons)}"
                f" | divergences {int(divergences)}"
                f" ({int(open_div)} open)"
            )
            refreshes = latest.get("stabilize.tree_refreshes")
            if refreshes is not None:
                stab += f" | tree refreshes {int(refreshes)}"
                last_ms = latest.get("stabilize.last_refresh_ms")
                if last_ms is not None:
                    stab += f" (last {last_ms:.1f}ms)"
            lines.append(stab)
    rec = _flight.active
    if rec is not None:
        lines.append(f"recorder: {rec.emitted} events ({rec.dropped} dropped)")
    lines.append("nodes: " + _health_strip(system))
    # The decomposition appears once a recovery episode is under way --
    # the detection -> evidence -> switch view of Reqs 1/2.
    decomposition = getattr(monitor, "decomposition", None)
    if decomposition is not None:
        rows = [
            (node, spans)
            for node, spans in sorted(decomposition.per_node.items())
            if spans.total_rounds
        ]
        if rows:
            lines.append("recovery decomposition (detect+evidence+switch):")
            for node, spans in rows:
                lines.append(
                    f"  node {node}: {spans.detection_rounds}"
                    f" + {spans.evidence_rounds}"
                    f" + {spans.switch_rounds}"
                    f" = {spans.total_rounds} rounds"
                )
    return "\n".join(lines) + "\n"


def run_top(
    preset: str = "smoke",
    rounds: Optional[int] = None,
    seed: int = 0,
    once: bool = False,
    interval: float = 0.0,
    stream: Any = None,
) -> int:
    """Run a trace preset with the full telemetry plane attached and
    render the console per round (or once, at the end, with ``once``)."""
    from repro.chaos.monitor import BTRMonitor
    from repro.core.config import ReboundConfig
    from repro.core.runtime import ReboundSystem
    from repro.experiments.trace_run import PRESETS, _pick_victim
    from repro.obs.recorder import FlightRecorder
    from repro.obs.series import MetricsTimeSeries
    from repro.sched.workload import WorkloadGenerator

    out = stream if stream is not None else sys.stdout
    spec = PRESETS[preset]
    total_rounds = spec.rounds if rounds is None else rounds
    topology = spec.topology_factory()
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(
        fmax=spec.fmax, fconc=1, variant=spec.variant, rsa_bits=512
    )
    recorder = FlightRecorder()
    recorder.install()
    repaint = (not once) and hasattr(out, "isatty") and out.isatty()
    try:
        system = ReboundSystem(topology, workload, config, seed=seed)
        monitor = BTRMonitor(
            record_only=True, context={"preset": spec.name, "seed": seed}
        )
        system.attach_monitor(monitor)
        series = MetricsTimeSeries()
        system.attach_series(series)
        victim = spec.victim if spec.victim is not None else _pick_victim(system)
        title = f"rebound top [{spec.name}]"
        for r in range(1, total_rounds + 1):
            if r == spec.fault_round:
                system.inject_now(victim, spec.behavior_factory())
            system.run_round()
            if not once:
                frame = render_top(
                    system, monitor, series, title, total_rounds
                )
                if repaint:
                    out.write(_CLEAR)
                out.write(frame)
                if not repaint:
                    out.write("\n")
                out.flush()
                if interval > 0:
                    time.sleep(interval)
        if once:
            out.write(render_top(system, monitor, series, title, total_rounds))
            out.flush()
        system.close()
    finally:
        recorder.uninstall()
    return 0


class CampaignLiveSink:
    """A ``chaos --live`` progress sink: one tally line per finished cell.

    Plugged into ``run_campaign(on_result=...)``; keeps a running
    pass/fail/crash matrix and surfaces each cell's recovery
    rounds as it lands, so a long campaign is watchable instead of
    silent-until-JSON.
    """

    def __init__(self, stream: Any = None):
        self.stream = stream if stream is not None else sys.stdout
        self.matrix: Dict[str, int] = {}
        self.cells = 0

    def __call__(self, outcome: Dict[str, Any]) -> None:
        self.cells += 1
        status = outcome.get("outcome", "?")
        self.matrix[status] = self.matrix.get(status, 0) + 1
        tally = " ".join(
            f"{k}={v}" for k, v in sorted(self.matrix.items())
        )
        recovery = outcome.get("rounds_to_recovery")
        detail = f" recovery={recovery}" if recovery is not None else ""
        violations = outcome.get("violations") or []
        if violations:
            detail += f" violations={len(violations)}"
        self.stream.write(
            f"[{self.cells}] {outcome.get('cell', '?')}: {status}{detail}"
            f"  ({tally})\n"
        )
        self.stream.flush()
