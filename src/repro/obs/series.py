"""Per-round metrics time-series with OpenMetrics / JSON / Perfetto export.

The flight recorder answers "what happened" (discrete events); this module
answers "how much, over time": once per round it samples every numeric
counter in the telemetry registry (``registry.stats_snapshot()``) plus a
handful of derived system gauges -- suspected nodes, evidence-store
high-water marks against their quota caps, and the BTR monitor's
detection -> evidence -> switch phase -- into a bounded columnar store.

Storage is one list of floats per series, bounded to the latest
``capacity`` samples.  A series that appears mid-run is NaN-backfilled so
every column always has one value per retained sample.

Exporters:

* :meth:`MetricsTimeSeries.to_openmetrics` -- the text exposition format
  scraped by Prometheus-family collectors (gauge semantics: the latest
  retained sample), terminated by ``# EOF``.
* :meth:`MetricsTimeSeries.to_json` -- full retained history.
* :meth:`MetricsTimeSeries.counter_tracks` -- Perfetto counter events
  (``ph: "C"``) rendering each series as a track next to the recorder's
  span/instant rows.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List

from repro.obs import registry as _registry

#: Perfetto pid for the metrics counter tracks (node pids are small ints).
METRICS_TRACE_PID = 10**9 + 1

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _metric_name(series: str) -> str:
    """An OpenMetrics-legal name: ``rebound_`` + sanitized series name."""
    name = _NAME_RE.sub("_", series)
    if name and name[0].isdigit():
        name = "_" + name
    return "rebound_" + name


def flatten_stats(stats: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """``{component: {key: value}}`` -> ``{"component.key": float}`` for
    every numeric scalar (bools count as 0/1; lists and strings skipped)."""
    flat: Dict[str, float] = {}
    for component, comp_stats in stats.items():
        if not isinstance(comp_stats, dict):
            continue
        for key, value in comp_stats.items():
            if isinstance(value, bool):
                flat[f"{component}.{key}"] = float(value)
            elif isinstance(value, (int, float)):
                flat[f"{component}.{key}"] = float(value)
    return flat


class MetricsTimeSeries:
    """A bounded per-round sampling of the telemetry registry + derived
    system gauges (see module docstring)."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError("series capacity must be positive")
        self.capacity = capacity
        self._rounds: List[float] = []
        self._columns: Dict[str, List[float]] = {}
        self.samples = 0

    # -- sampling ------------------------------------------------------------

    def record(self, round_no: int, values: Dict[str, float]) -> None:
        """Append one sample: a round number and its gauge values.

        Every known column gets exactly one appended value (NaN when the
        sample does not carry it); a new series is NaN-backfilled for the
        samples it missed.
        """
        retained = len(self._rounds)
        for name in values:
            if name not in self._columns:
                self._columns[name] = [math.nan] * retained
        self._rounds.append(float(round_no))
        for name, column in self._columns.items():
            value = values.get(name, math.nan)
            column.append(float(value))
        self.samples += 1
        overflow = len(self._rounds) - self.capacity
        if overflow > 0:
            del self._rounds[:overflow]
            for column in self._columns.values():
                del column[:overflow]

    def sample(self, system: Any, monitor: Any = None) -> Dict[str, float]:
        """Sample a :class:`~repro.core.runtime.ReboundSystem` (and
        optionally its BTR monitor) for the round just executed; returns
        the recorded gauge dict."""
        values = flatten_stats(_registry.stats_snapshot())
        values.update(self._system_gauges(system))
        if monitor is not None and hasattr(monitor, "gauges"):
            for key, value in monitor.gauges().items():
                values[f"btr.{key}"] = float(value)
        self.record(system.round_no, values)
        return values

    @staticmethod
    def _system_gauges(system: Any) -> Dict[str, float]:
        correct = system.correct_controllers()
        suspected: set = set()
        evidence_max = 0
        store_max = 0
        for node_id in correct:
            node = system.nodes[node_id]
            pattern = node.fault_pattern
            suspected |= set(pattern.nodes)
            for link in pattern.links:
                suspected |= set(link)
            summary_len = len(node.forwarding.evidence)
            if summary_len > evidence_max:
                evidence_max = summary_len
            store_len = len(node.forwarding.store)
            if store_len > store_max:
                store_max = store_len
        directory = system.directory
        # The verdict memo holds record and RSA verdicts only: MULTI
        # aggregates are judged in the Directory's per-round columns.
        values = {
            "crypto.verdict_memo_hits": float(directory.verdict_hits),
            "crypto.verdict_memo_misses": float(directory.verdict_misses),
            "quotas.charged": float(
                sum(n.forwarding.quotas.total_charged for n in system.nodes.values())
            ),
            "quotas.dropped": float(
                sum(n.forwarding.quotas.total_dropped for n in system.nodes.values())
            ),
            "system.correct_controllers": float(len(correct)),
            "system.true_faulty_nodes": float(len(system.true_faulty_nodes)),
            "system.suspected_nodes": float(len(suspected)),
            "system.evidence_items_max": float(evidence_max),
            "system.heartbeat_store_max": float(store_max),
            "system.budget_exceeded": float(system.budget_exceeded),
            "system.evidence_item_cap": float(system.bounds.evidence_cap),
            "system.heartbeat_record_cap": float(system.bounds.heartbeat_store_cap),
        }
        auditors = system.auditors
        if auditors:
            values["stabilize.audit_beacons"] = float(
                sum(a.beacons for a in auditors.values())
            )
            values["stabilize.divergences"] = float(
                sum(len(a.divergences) for a in auditors.values())
            )
            values["stabilize.open_divergences"] = float(
                sum(
                    1 for a in auditors.values()
                    if a.open_divergence() is not None
                )
            )
        refreshes = system.tree_refreshes
        values["stabilize.tree_refreshes"] = float(len(refreshes))
        if refreshes:
            values["stabilize.last_refresh_ms"] = refreshes[-1]["elapsed_s"] * 1000.0
        return values

    # -- access --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rounds)

    def rounds(self) -> List[int]:
        return [int(r) for r in self._rounds]

    def series(self, name: str) -> List[float]:
        return list(self._columns[name])

    def latest(self) -> Dict[str, float]:
        """The most recent retained value of every series (NaN-free)."""
        out: Dict[str, float] = {}
        for name, column in sorted(self._columns.items()):
            if column and not math.isnan(column[-1]):
                out[name] = column[-1]
        return out

    # -- exporters -----------------------------------------------------------

    def to_openmetrics(self) -> str:
        """The OpenMetrics text exposition of the latest sample."""
        lines: List[str] = []
        for name, value in self.latest().items():
            metric = _metric_name(name)
            lines.append(f"# TYPE {metric} gauge")
            if value == int(value) and abs(value) < 1e15:
                rendered = str(int(value))
            else:
                rendered = repr(value)
            lines.append(f"{metric} {rendered}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def to_json(self) -> Dict[str, Any]:
        """Full retained history, JSON-safe (NaN -> None)."""
        return {
            "capacity": self.capacity,
            "samples": self.samples,
            "retained": len(self._rounds),
            "rounds": self.rounds(),
            "series": {
                name: [None if math.isnan(v) else v for v in column]
                for name, column in sorted(self._columns.items())
            },
        }

    def counter_tracks(
        self, round_us: int = 1000, pid: int = METRICS_TRACE_PID
    ) -> List[Dict[str, Any]]:
        """Perfetto counter events: one ``ph: "C"`` sample per retained
        round per series, under a named "metrics" process row."""
        events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": "metrics"},
            }
        ]
        rounds = self.rounds()
        for name, column in sorted(self._columns.items()):
            for round_no, value in zip(rounds, column):
                if math.isnan(value):
                    continue
                events.append(
                    {
                        "ph": "C",
                        "name": name,
                        "cat": "metrics",
                        "pid": pid,
                        "tid": 0,
                        "ts": round_no * round_us,
                        "args": {"value": value},
                    }
                )
        return events
