"""Scale-out round-engine benchmark: 200/500/1000-node heartbeat sweeps.

Runs fault-free Erdos-Renyi deployments (the paper's S5.1 simulation
setup) at n = 200/500/1000 for a fixed number of rounds under two
engines in one process:

* **serial** -- the in-process round loop;
* **sharded** -- the same nodes on the
  :class:`~repro.net.shard.ShardedRoundEngine` with N worker processes.
  The JSON records the IPC plane's byte counters (``ipc``) next to a
  per-stage round **profile** (encode/ipc/step/replay/merge seconds from
  :class:`~repro.obs.profiler.RoundProfiler`).

Each sharded sweep also runs once more with a :class:`FlightRecorder`
installed, so ``recorder_overhead_ratio`` reports the honest wall-clock
cost of shipping worker-side trace events home over the frame plane.

Every pairing is held byte-identical: the serial and sharded runs of each
sweep must produce the same per-round transcript (per-node evidence
digests + modes) and the same logical crypto counters, and dedicated
small-n identity cells (Erdos-Renyi n=20, the 20-node grid across a crash
fault, and the grid under the chaos smoke impairment preset) re-verify
the pin on every invocation.  The identity cells run with recorders
installed on both engines and additionally pin the *trace*: the sharded
run's merged worker+parent event stream, canonically sorted (round, node,
seq) and rendered to JSONL, must be byte-equal to the serial engine's.
``--smoke`` is the CI-sized variant (n=200 only); ``--sizes`` /
``--engines`` narrow the sweep grid and are recorded in the output's
``filters`` block.  Results go to ``BENCH_scale.json`` with the shared
``env`` provenance block; wall-clock speedups are reported as measured on
the current machine (``env.cpu_count`` says how much parallel hardware the
sharded engine actually had).
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import transcript_entry
from repro.chaos.impairments import ChaosRoundNetwork, ImpairmentPlan
from repro.core.config import ReboundConfig
from repro.core.runtime import ReboundSystem
from repro.experiments.common import bench_env
from repro.faults.adversary import CrashBehavior
from repro.net.topology import erdos_renyi_topology, grid_topology
from repro.obs.collector import canonical_jsonl
from repro.obs.recorder import FlightRecorder
from repro.sched.workload import WorkloadGenerator

SWEEP_SIZES = (200, 500, 1000)
SMOKE_SIZES = (200,)
ENGINES = ("serial", "sharded")
DEFAULT_ROUNDS = 10
SMOKE_ROUNDS = 6
DEFAULT_WORKERS = 4


def _sweep_system(n: int, seed: int, workers: int) -> ReboundSystem:
    topology = erdos_renyi_topology(n, seed=seed)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(fmax=0, fconc=0, variant="multi", rsa_bits=256)
    return ReboundSystem(
        topology, workload, config, seed=seed, scale_workers=workers
    )


def _run(
    system: ReboundSystem, rounds: int, crash_round: Optional[int] = None
) -> Dict[str, Any]:
    """Timed rounds; transcript capture stays outside the clock."""
    transcript: List[Tuple] = []
    run_s = 0.0
    profile: Optional[Dict[str, Any]] = None
    ipc: Optional[Dict[str, Any]] = None
    try:
        for r in range(1, rounds + 1):
            if crash_round is not None and r == crash_round:
                system.inject_now(
                    max(system.topology.controllers), CrashBehavior()
                )
            t0 = time.perf_counter()
            system.run_round()
            run_s += time.perf_counter() - t0
            transcript.append(transcript_entry(system))
        counters = system.total_crypto_counters()
        engine = system._engine
        if engine is not None:
            profile = engine.profiler.stats()
            ipc = engine._ipc_stats()
    finally:
        system.close()
    return {
        "run_s": run_s, "transcript": transcript, "counters": counters,
        "profile": profile, "ipc": ipc,
    }


def _traced_run(
    build_system,
    rounds: int,
    crash_round: Optional[int] = None,
    want_jsonl: bool = False,
) -> Dict[str, Any]:
    """A ``_run`` with a flight recorder installed for its whole lifetime.

    The recorder is installed *before* the system is built so the sharded
    engine's ``start()`` sees it and ships worker-side events home; the
    trace is read back after ``close()`` (the shutdown barrier drains the
    last worker rings).  ``want_jsonl`` additionally captures the
    canonically sorted JSONL rendering -- the byte string the identity
    cells compare across engines.
    """
    recorder = FlightRecorder()
    recorder.install()
    try:
        result = _run(build_system(), rounds, crash_round=crash_round)
        result["trace_events"] = len(recorder)
        result["trace_dropped"] = recorder.dropped
        if want_jsonl:
            result["trace_jsonl"] = canonical_jsonl(recorder.events())
    finally:
        recorder.uninstall()
    return result


def _sweep(
    n: int,
    rounds: int,
    workers: int,
    seed: int = 0,
    engines: Sequence[str] = ENGINES,
) -> Dict[str, Any]:
    runs: Dict[str, Dict[str, Any]] = {}
    if "serial" in engines:
        runs["serial"] = _run(_sweep_system(n, seed, 0), rounds)
    if "sharded" in engines:
        runs["sharded"] = _run(_sweep_system(n, seed, workers), rounds)
        # The same sharded run with the flight recorder shipping worker
        # events home: its run_s / sharded_run_s is the honest cost of
        # always-on tracing across the process boundary.
        runs["sharded_rec"] = _traced_run(
            lambda: _sweep_system(n, seed, workers), rounds
        )
    identical: Optional[bool] = None
    if len(runs) >= 2:
        values = list(runs.values())
        identical = all(
            r["transcript"] == values[0]["transcript"]
            and r["counters"] == values[0]["counters"]
            for r in values[1:]
        )
    out: Dict[str, Any] = {
        "n": n,
        "rounds": rounds,
        "seed": seed,
        "workers": workers,
        "engines": list(engines),
        "transcripts_identical": identical,
    }
    for name, run in runs.items():
        out[f"{name}_run_s"] = run["run_s"]
    out["serial_vs_sharded_speedup"] = None
    if "serial" in runs and "sharded" in runs:
        out["serial_vs_sharded_speedup"] = (
            runs["serial"]["run_s"] / runs["sharded"]["run_s"]
            if runs["sharded"]["run_s"] else float("inf")
        )
    if "sharded_rec" in runs:
        rec_ipc = runs["sharded_rec"]["ipc"] or {}
        out["recorder_overhead_ratio"] = (
            runs["sharded_rec"]["run_s"] / runs["sharded"]["run_s"]
            if runs["sharded"]["run_s"] else None
        )
        out["recorder"] = {
            "events_shipped": rec_ipc.get("events_shipped", 0),
            "event_bytes": rec_ipc.get("event_bytes", 0),
            "event_raw_bytes": rec_ipc.get("event_raw_bytes", 0),
            "events_recorded": runs["sharded_rec"]["trace_events"],
            "events_dropped": runs["sharded_rec"]["trace_dropped"],
        }
    if "sharded" in runs:
        out["profile"] = runs["sharded"]["profile"]
        out["ipc"] = runs["sharded"]["ipc"]
    return out


# -- small-n identity cells ------------------------------------------------------


def _grid_system(workers: int, network_factory=None) -> ReboundSystem:
    topology = grid_topology(4, 5)
    workload = WorkloadGenerator(seed=0, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(fmax=1, fconc=1, variant="multi", rsa_bits=256)
    return ReboundSystem(
        topology, workload, config, seed=0,
        network_factory=network_factory, scale_workers=workers,
    )


CHAOS_SMOKE_PLAN = ImpairmentPlan(
    seed=3, dup_prob=0.1, reorder_prob=0.3, delay_prob=0.05,
    max_delay_rounds=2,
)


def _identity_cell(name: str, build, rounds: int, workers: int,
                   crash_round: Optional[int] = None) -> Dict[str, Any]:
    """Serial vs sharded with a flight recorder installed on *both* runs:
    the pin covers the transcripts, the crypto counters, AND the merged
    event stream -- the sharded engine's worker-shipped trace, canonically
    sorted, must render to the same JSONL bytes the serial recorder
    produces (the tentpole guarantee; recorder-off transcript identity is
    pinned separately by tests/test_scale_engine.py)."""
    serial = _traced_run(
        lambda: build(0), rounds, crash_round=crash_round, want_jsonl=True
    )
    sharded = _traced_run(
        lambda: build(workers), rounds, crash_round=crash_round, want_jsonl=True
    )
    return {
        "cell": name,
        "rounds": rounds,
        "workers": workers,
        "transcripts_identical": serial["transcript"] == sharded["transcript"],
        "counters_identical": serial["counters"] == sharded["counters"],
        "trace_events": sharded["trace_events"],
        "trace_dropped": sharded["trace_dropped"],
        "traces_identical": serial["trace_jsonl"] == sharded["trace_jsonl"],
    }


def identity_cells(workers: int, rounds: int = 16) -> List[Dict[str, Any]]:
    """Serial-vs-sharded byte-identity pins at small n."""
    return [
        _identity_cell(
            "er20", lambda w: _sweep_system(20, 0, w), rounds, workers
        ),
        _identity_cell("grid20-crash", _grid_system, rounds, workers, crash_round=8),
        _identity_cell(
            "grid20-chaos-smoke",
            lambda w: _grid_system(
                w, network_factory=lambda t: ChaosRoundNetwork(t, CHAOS_SMOKE_PLAN)
            ),
            rounds, workers,
        ),
    ]


# -- driver ----------------------------------------------------------------------


def run_scale_bench(
    sizes: Optional[Sequence[int]] = None,
    rounds: Optional[int] = None,
    workers: Optional[int] = None,
    smoke: bool = False,
    engines: Optional[Sequence[str]] = None,
    output_path: Optional[str] = "BENCH_scale.json",
) -> Dict[str, Any]:
    sizes_filter = list(sizes) if sizes is not None else None
    engines_filter = list(engines) if engines is not None else None
    if engines is not None:
        unknown = sorted(set(engines) - set(ENGINES))
        if unknown:
            raise ValueError(
                f"unknown engines {unknown}; choose from {list(ENGINES)}"
            )
    else:
        engines = ENGINES
    if sizes is None:
        sizes = SMOKE_SIZES if smoke else SWEEP_SIZES
    if rounds is None:
        rounds = SMOKE_ROUNDS if smoke else DEFAULT_ROUNDS
    workers = max(2, workers or DEFAULT_WORKERS)

    cells = identity_cells(workers)
    sweeps = [_sweep(n, rounds, workers, engines=engines) for n in sizes]
    all_identical = all(
        c["transcripts_identical"]
        and c["counters_identical"]
        and c["traces_identical"]
        for c in cells
    ) and all(s["transcripts_identical"] is not False for s in sweeps)
    result = {
        "benchmark": "scale",
        "env": bench_env(workers=workers),
        "smoke": smoke,
        "sizes": list(sizes),
        "rounds": rounds,
        "workers": workers,
        "engines": list(engines),
        "filters": {"sizes": sizes_filter, "engines": engines_filter},
        "sweeps": sweeps,
        "identity": {"cells": cells, "all_identical": all_identical},
    }
    if output_path is not None:
        with open(output_path, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def main(
    output_path: Optional[str] = "BENCH_scale.json",
    workers: Optional[int] = None,
    smoke: bool = False,
    rounds: Optional[int] = None,
    sizes: Optional[Sequence[int]] = None,
    engines: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    result = run_scale_bench(
        rounds=rounds, workers=workers, smoke=smoke,
        sizes=sizes, engines=engines, output_path=output_path,
    )
    for sweep in result["sweeps"]:
        print("BENCH " + json.dumps(
            {
                k: sweep[k]
                for k in (
                    "n", "rounds", "workers",
                    "serial_run_s", "sharded_run_s", "sharded_rec_run_s",
                    "serial_vs_sharded_speedup", "recorder_overhead_ratio",
                    "transcripts_identical",
                )
                if k in sweep
            },
            sort_keys=True,
        ))
        if "ipc" in sweep:
            ipc = sweep["ipc"]
            print(
                f"  ipc n={sweep['n']}: "
                f"payload={ipc['delivery_bytes'] + ipc['intent_bytes']}B "
                f"(raw {ipc['delivery_raw_bytes'] + ipc['intent_raw_bytes']}B) "
                f"interned={ipc['interned_hits']}"
            )
        if "profile" in sweep:
            prof = sweep["profile"]
            shares = " ".join(
                f"{stage}={prof[f'{stage}_s']:.3f}s"
                for stage in ("encode", "ipc", "step", "replay", "merge")
            )
            print(f"  profile n={sweep['n']}: {shares}")
        if "recorder" in sweep:
            rec = sweep["recorder"]
            ratio = sweep.get("recorder_overhead_ratio")
            overhead = f"{ratio:.3f}x" if ratio is not None else "n/a"
            print(
                f"  recorder n={sweep['n']}: overhead={overhead} "
                f"events={rec['events_recorded']} "
                f"dropped={rec['events_dropped']} "
                f"shipped_bytes={rec['event_bytes']} "
                f"(raw {rec['event_raw_bytes']})"
            )
    print(
        "identity: "
        + ", ".join(
            f"{c['cell']}="
            + ("OK" if c["transcripts_identical"] and c["counters_identical"]
               and c["traces_identical"]
               else "DIFF")
            for c in result["identity"]["cells"]
        )
        + f" -- all_identical={result['identity']['all_identical']}"
    )
    return result


if __name__ == "__main__":
    main()
