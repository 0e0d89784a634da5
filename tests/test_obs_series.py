"""Metrics time-series: columnar store, sampling, and exporters."""

import json
import math

import pytest

from repro.chaos.monitor import BTRMonitor
from repro.core import ReboundConfig, ReboundSystem
from repro.faults.adversary import CrashBehavior
from repro.net.topology import grid_topology
from repro.obs.series import (
    METRICS_TRACE_PID,
    MetricsTimeSeries,
    _metric_name,
    flatten_stats,
)
from repro.sched.workload import WorkloadGenerator


class TestColumnStore:
    def test_record_and_read_back(self):
        series = MetricsTimeSeries()
        series.record(1, {"a": 1.0, "b": 2.0})
        series.record(2, {"a": 3.0, "b": 4.0})
        assert len(series) == 2
        assert series.rounds() == [1, 2]
        assert series.series("a") == [1.0, 3.0]
        assert series.latest() == {"a": 3.0, "b": 4.0}

    def test_new_series_is_nan_backfilled(self):
        series = MetricsTimeSeries()
        series.record(1, {"a": 1.0})
        series.record(2, {"a": 2.0, "late": 9.0})
        values = series.series("late")
        assert math.isnan(values[0]) and values[1] == 9.0
        # A series the sample misses gets NaN appended, not dropped.
        series.record(3, {"a": 3.0})
        assert math.isnan(series.series("late")[2])
        assert series.latest()["a"] == 3.0
        assert "late" not in series.latest()  # latest is NaN-free

    def test_capacity_trims_oldest(self):
        series = MetricsTimeSeries(capacity=3)
        for r in range(1, 6):
            series.record(r, {"a": float(r)})
        assert series.rounds() == [3, 4, 5]
        assert series.series("a") == [3.0, 4.0, 5.0]
        assert series.samples == 5

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsTimeSeries(capacity=0)

    def test_backfilled_series_survives_trimming(self):
        series = MetricsTimeSeries(capacity=3)
        series.record(1, {"a": 1.0})
        series.record(2, {"a": 2.0, "late": 9.0})
        for r in range(3, 6):
            series.record(r, {"a": float(r)})
        assert series.rounds() == [3, 4, 5]
        assert series.series("a") == [3.0, 4.0, 5.0]
        assert math.isnan(series.series("late")[-1])
        assert series.latest()["a"] == 5.0

    def test_flatten_stats_numeric_scalars_only(self):
        flat = flatten_stats(
            {
                "comp": {
                    "hits": 3,
                    "rate": 0.5,
                    "enabled": True,
                    "name": "skip-me",
                    "sizes": [1, 2],
                },
                "weird": "not-a-dict",
            }
        )
        assert flat == {"comp.hits": 3.0, "comp.rate": 0.5, "comp.enabled": 1.0}


class TestSampling:
    def _system(self):
        topology = grid_topology(2, 3)
        workload = WorkloadGenerator(
            seed=0, chain_length_range=(1, 2)
        ).workload(target_utilization=1.5)
        config = ReboundConfig(fmax=1, fconc=1, variant="basic", rsa_bits=256)
        return ReboundSystem(topology, workload, config, seed=0)

    def test_attached_series_samples_every_round(self):
        system = self._system()
        monitor = BTRMonitor(record_only=True)
        system.attach_monitor(monitor)
        series = MetricsTimeSeries()
        system.attach_series(series)
        system.run(3)
        system.inject_now(max(system.topology.controllers), CrashBehavior())
        system.run(5)
        assert len(series) == 8
        assert series.rounds() == list(range(1, 9))
        latest = series.latest()
        assert latest["system.correct_controllers"] == 5.0
        assert latest["system.true_faulty_nodes"] == 1.0
        assert latest["btr.activations"] == 1.0
        assert "codec_memo.hits" in latest
        # Per-system state is sampled from the system, not the registry.
        assert latest["crypto.verdict_memo_misses"] > 0
        assert latest["quotas.charged"] == sum(
            node.forwarding.quotas.total_charged for node in system.nodes.values()
        )
        # The fault flipped the monitor out of idle at some point.
        phases = series.series("btr.phase")
        assert phases[0] == 0.0 and max(phases) > 0.0

    def test_sampling_does_not_perturb_transcripts(self):
        from repro.analysis.metrics import transcript_entry

        def run(with_series):
            system = self._system()
            if with_series:
                system.attach_series(MetricsTimeSeries())
            transcript = []
            for r in range(1, 9):
                if r == 4:
                    system.inject_now(
                        max(system.topology.controllers), CrashBehavior()
                    )
                system.run_round()
                transcript.append(transcript_entry(system))
            return transcript

        assert run(False) == run(True)

    def test_openmetrics_from_a_monitored_run(self):
        """A real run's export: every sample line is a ``rebound_*`` gauge
        with a float value, the gauges cover the BTR monitor phase, and the
        text is EOF-terminated."""
        system = self._system()
        system.attach_monitor(BTRMonitor(record_only=True))
        series = MetricsTimeSeries()
        system.attach_series(series)
        system.run(6)
        text = series.to_openmetrics()
        assert text.endswith("# EOF\n")
        samples = 0
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            float(value)
            assert name.startswith("rebound_"), line
            samples += 1
        assert samples > 20
        assert "rebound_btr_phase" in text


class TestExporters:
    def _series(self):
        series = MetricsTimeSeries()
        series.record(1, {"a.count": 1.0, "b rate!": 0.25})
        series.record(2, {"a.count": 2.0, "b rate!": 0.5, "late": 7.0})
        return series

    def test_metric_name_sanitization(self):
        assert _metric_name("a.count") == "rebound_a_count"
        assert _metric_name("b rate!") == "rebound_b_rate_"
        assert _metric_name("9lives") == "rebound__9lives"

    def test_openmetrics_output_parses(self):
        text = self._series().to_openmetrics()
        assert text.endswith("# EOF\n")
        lines = [l for l in text.splitlines() if l and l != "# EOF"]
        metrics = {}
        for line in lines:
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split()
                assert kind == "gauge"
            else:
                name, value = line.split()
                float(value)
                metrics[name] = float(value)
        assert metrics["rebound_a_count"] == 2.0
        assert metrics["rebound_late"] == 7.0

    def test_json_export_is_json_safe(self):
        doc = self._series().to_json()
        text = json.dumps(doc)  # must not raise (NaN -> None already)
        assert "NaN" not in text
        assert doc["rounds"] == [1, 2]
        assert doc["series"]["late"] == [None, 7.0]
        assert doc["samples"] == 2

    def test_counter_tracks_structure(self):
        events = self._series().counter_tracks(round_us=1000)
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "metrics"
        counters = [e for e in events if e["ph"] == "C"]
        # NaN samples are skipped: 'late' contributes one point, not two.
        late = [e for e in counters if e["name"] == "late"]
        assert len(late) == 1 and late[0]["ts"] == 2000
        assert all(e["pid"] == METRICS_TRACE_PID for e in counters)
