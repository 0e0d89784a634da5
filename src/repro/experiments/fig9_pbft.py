"""Figure 9: supported workload, REBOUND vs PBFT.

The paper derives PBFT scheduling constraints analogous to S3.9, randomly
generates 75 workloads, schedules them on systems of N = 25..75 nodes under
either defense (packing in more tasks than fit and letting the scheduler
drop the excess), and measures the median total utilization of the admitted
tasks *without* replicas.  Normalized to PBFT, REBOUND supports at least
twice the workload, closely tracking (3f+1)/(f+1).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from repro.bft.replication import pbft_model, rebound_model, useful_utilization
from repro.sched.workload import WorkloadGenerator


def run(
    f_values: Sequence[int],
    node_counts: Sequence[int],
    workloads_per_cell: int,
    seed: int = 0,
) -> List[Dict]:
    """One row per f: median useful utilization under each defense,
    normalized to PBFT, plus the analytic (3f+1)/(f+1) ratio."""
    rows: List[Dict] = []
    for f in f_values:
        pbft_utils: List[float] = []
        rebound_utils: List[float] = []
        for n in node_counts:
            for w in range(workloads_per_cell):
                workload = WorkloadGenerator(seed=seed + 1000 * f + 31 * n + w).workload(
                    # Overpack: more work than even REBOUND can admit.
                    target_utilization=n * 1.2
                )
                pbft_utils.append(
                    useful_utilization(workload, n, f, pbft_model())
                )
                rebound_utils.append(
                    useful_utilization(workload, n, f, rebound_model())
                )
        pbft_median = statistics.median(pbft_utils)
        rebound_median = statistics.median(rebound_utils)
        rows.append(
            {
                "f": f,
                "pbft_normalized": 1.0,
                "rebound_normalized": rebound_median / pbft_median
                if pbft_median
                else float("inf"),
                "analytic_ratio": (3 * f + 1) / (f + 1),
                "pbft_median_utilization": pbft_median,
                "rebound_median_utilization": rebound_median,
            }
        )
    return rows


def check_shape(rows: Sequence[Dict]) -> Dict[str, bool]:
    checks = {
        # Headline: REBOUND runs workloads at least ~2x PBFT's.
        "rebound_at_least_2x": all(r["rebound_normalized"] >= 1.8 for r in rows),
        # The ratio tracks (3f+1)/(f+1) within a modest tolerance.
        "tracks_analytic_ratio": all(
            abs(r["rebound_normalized"] - r["analytic_ratio"])
            <= 0.35 * r["analytic_ratio"]
            for r in rows
        ),
        # The ratio grows with f (toward 3 in the limit).
        "ratio_grows_with_f": all(
            a["rebound_normalized"] <= b["rebound_normalized"] + 0.25
            for a, b in zip(rows, rows[1:])
        ),
    }
    return checks
