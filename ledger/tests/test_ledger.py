"""Names, determinism and non-perturbation on miniatures of the workloads."""

import json
import os
import re
import subprocess
import sys

import pytest

import compare
from spans import SPANS, Tracer
from workloads import WORKLOADS, pass_metrics, run_pass, span_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

#: Metrics that must repeat exactly under a seed: simulated quantities, not
#: host time.  Left out: the process-wide cache ratios, and the snapshot
#: sizes, whose pickles are ~2 % smaller in a process whose caches are cold
#: (each real pass has a fresh interpreter; these tests share one).
EXACT = sorted(
    m["name"]
    for m in BENCH["end_to_end"] + BENCH["per_layer"]
    if m["unit"] in ("count", "B", "rounds", "ratio")
    and not m["name"].endswith((".calls", "_hit_ratio"))
    and not m["name"].startswith("trace.")
    and m["name"] not in ("disk_bytes_per_node", "durability.snapshot_bytes")
)


def miniature(name, seed, workdir, tracer=None):
    """Two episodes; ten timed rounds each where the episode has no script."""
    return run_pass(WORKLOADS[name], seed, 0.0, str(workdir), tracer=tracer,
                    plan=(10, 10), max_episodes=2)


def test_names_match_benchmark_json():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    workloads = [w["name"] for w in BENCH["workloads"]]
    assert len(set(names)) == len(names)
    for name in names + workloads:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert workloads == list(WORKLOADS)
    assert BENCH["paths"] == ["ledger"]
    for span in SPANS:
        assert {span + ".self_ms", span + ".calls"} <= set(names)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tracing_does_not_perturb_and_seeds_matter(name, tmp_path):
    plain = miniature(name, 0, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = miniature(name, 0, tmp_path, tracer)
    finally:
        tracer.uninstall()
    other = miniature(name, 1, tmp_path)

    assert tracer.unresolved == []
    assert plain.failed_ops == traced.failed_ops == other.failed_ops == []
    assert plain.rounds_per_episode == traced.rounds_per_episode
    assert len(plain.rounds_per_episode) == 2
    # Same seed, wrapped or not: the same protocol run, bit for bit.
    assert plain.transcript_sha256()["full"] == traced.transcript_sha256()["full"]
    a, b = pass_metrics(plain), pass_metrics(traced)
    assert {k: a[k] for k in EXACT} == {k: b[k] for k in EXACT}
    # Another seed: other inputs.
    assert other.transcript_sha256()["full"] != plain.transcript_sha256()["full"]

    # Every metric the run computes is one BENCHMARK.json names, and the
    # spans account for the traced rounds.
    spans = span_metrics(tracer, traced)
    listed = {m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    computed = set(a) | set(spans) | {
        "peak_rss_mb", "host.calib_ms", "trace.overhead_ratio", "trace.unattributed_share"}
    assert computed == listed
    assert spans["core.runtime.run_round.calls"] == 1.0
    attributed = sum(v for k, v in spans.items()
                     if k.endswith(".self_ms") and k[:-8] not in ("core.identity.register",
                                                                  "sched.modegen.generate"))
    total = sum(traced.round_ms) / len(traced.round_ms)
    assert attributed == pytest.approx(total, rel=0.05)
    assert not os.listdir(tmp_path)  # episode directories are removed


def test_contract_line_and_isolated_directory(tmp_path):
    def run(cwd, script, trace):
        return subprocess.run(
            [sys.executable, script, "--workload", "durable_grid20_restart",
             "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=170)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = run(ROOT, os.path.join("ledger", "run.py"), trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0 < result["attempted"]
        assert list(result["metrics"]) == [m["name"] for m in BENCH[key]]
        assert all(v["unit"] and isinstance(v["value"], float) for v in result["metrics"].values())

    # Only BENCHMARK.json and ledger/: nothing to measure, so no result line.
    import shutil
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "ledger"), tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(tmp_path, os.path.join("ledger", "run.py"), 0)
    assert done.returncode != 0 and not done.stdout.strip()


def test_compare_verdicts():
    lower = {"name": "round_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}
    higher = {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
    size = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}
    assert compare.verdict(100, 105, lower, False) == "same"
    assert compare.verdict(100, 120, lower, False) == "worse"
    assert compare.verdict(100, 80, lower, False) == "better"
    assert compare.verdict(100, 80, higher, False) == "worse"
    assert compare.verdict(100, 120, lower, True) == "unresolved"
    assert compare.verdict(100, 120, size, True) == "worse"  # not a host-time metric

    def ledger(p50, fails, prefix):
        metrics = {m["name"]: 1.0 for m in BENCH["end_to_end"]}
        metrics.update({"round_ms_p50": p50, "fail_share": fails, "host.calib_ms": 30.0})
        run = {"metrics": metrics, "transcript_sha256": {"prefix": prefix}}
        return {"seed": 0, "workloads": {"w": {"untraced": run}}}

    assert compare.compare(ledger(10, 0, "a"), ledger(10.5, 0, "a"), BENCH) == 0
    assert compare.compare(ledger(10, 0, "a"), ledger(20, 0, "a"), BENCH) == 1
    assert compare.compare(ledger(10, 0, "a"), ledger(10, 0.1, "a"), BENCH) == 1
