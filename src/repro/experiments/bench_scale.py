"""Scale benchmark: serial round time on 200/500/1000-node heartbeat sweeps.

Runs fault-free Erdos-Renyi deployments (the paper's S5.1 simulation
setup) at n = 200/500/1000: two untimed warm-up rounds, then a fixed
number of timed rounds.  Each sweep records the set-up time and the
per-round wall-clock quartiles, so every number carries its spread.

The exit gate is the fault-free contract at scale: after the sweep no
correct node may suspect any node or link, and every node must sit in
the same mode.  ``--smoke`` is the CI-sized variant (n=200 only).
Results go to ``BENCH_scale.json`` with the shared ``env`` provenance
block; wall-clock numbers are as measured on the current machine.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core.config import ReboundConfig
from repro.core.runtime import ReboundSystem
from repro.experiments.common import bench_env
from repro.net.topology import erdos_renyi_topology
from repro.sched.workload import WorkloadGenerator

SWEEP_SIZES = (200, 500, 1000)
SMOKE_SIZES = (200,)
DEFAULT_ROUNDS = 10
SMOKE_ROUNDS = 6
WARMUP_ROUNDS = 2


def _sweep_system(n: int, seed: int) -> ReboundSystem:
    topology = erdos_renyi_topology(n, seed=seed)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(fmax=0, fconc=0, variant="multi", rsa_bits=256)
    return ReboundSystem(topology, workload, config, seed=seed)


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"p25": values[0], "median": values[0], "p75": values[0]}
    p25, median, p75 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": p25, "median": median, "p75": p75}


def _sweep(n: int, rounds: int, seed: int = 0) -> Dict[str, Any]:
    t0 = time.perf_counter()
    system = _sweep_system(n, seed)
    setup_s = time.perf_counter() - t0
    try:
        system.run(WARMUP_ROUNDS)
        round_ms: List[float] = []
        for _ in range(rounds):
            t = time.perf_counter()
            system.run_round()
            round_ms.append((time.perf_counter() - t) * 1000.0)
        clean = system.schedules_agree() and all(
            system.nodes[n_id].fault_pattern.fault_count == 0
            for n_id in system.correct_controllers()
        )
    finally:
        system.close()
    return {
        "n": n,
        "seed": seed,
        "warmup_rounds": WARMUP_ROUNDS,
        "rounds": rounds,
        "setup_s": setup_s,
        "round_ms": _quartiles(round_ms),
        "round_ms_samples": round_ms,
        "fault_free_clean": clean,
    }


def run_scale_bench(
    sizes: Optional[Sequence[int]] = None,
    rounds: Optional[int] = None,
    smoke: bool = False,
    output_path: Optional[str] = "BENCH_scale.json",
) -> Dict[str, Any]:
    if sizes is None:
        sizes = SMOKE_SIZES if smoke else SWEEP_SIZES
    if rounds is None:
        rounds = SMOKE_ROUNDS if smoke else DEFAULT_ROUNDS
    sweeps = [_sweep(n, rounds) for n in sizes]
    result = {
        "benchmark": "scale",
        "env": bench_env(),
        "smoke": smoke,
        "sizes": list(sizes),
        "rounds": rounds,
        "sweeps": sweeps,
        "all_clean": all(s["fault_free_clean"] for s in sweeps),
    }
    if output_path is not None:
        with open(output_path, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def main(
    output_path: Optional[str] = "BENCH_scale.json",
    smoke: bool = False,
    rounds: Optional[int] = None,
    sizes: Optional[Sequence[int]] = None,
) -> Dict[str, Any]:
    result = run_scale_bench(
        sizes=sizes, rounds=rounds, smoke=smoke, output_path=output_path
    )
    for sweep in result["sweeps"]:
        q = sweep["round_ms"]
        print("BENCH " + json.dumps(
            {
                "n": sweep["n"],
                "rounds": sweep["rounds"],
                "setup_s": round(sweep["setup_s"], 3),
                "round_ms_p25": round(q["p25"], 1),
                "round_ms_median": round(q["median"], 1),
                "round_ms_p75": round(q["p75"], 1),
                "fault_free_clean": sweep["fault_free_clean"],
            },
            sort_keys=True,
        ))
    return result


if __name__ == "__main__":
    main()
