"""Figure 7: mode-tree size and generation time vs system size.

The paper generates schedules for randomized topologies/workloads of
growing size with fmax = 1..3 and fconc = 1, measuring (a) the per-node
data size of the scheduling tree and (b) the time to compute it.  Expected
shape: both grow as sum_{i<=fmax} C(n, i) -- roughly n^fmax -- reaching a
few MB and minutes-to-an-hour at n = 200, fmax = 3.

The full tree is intractable to *schedule* exhaustively in pure Python at
n = 200 (the paper parallelizes across a machine and still takes up to 10
hours), so this driver follows the paper's structure exactly but uses the
sampling estimator of :class:`~repro.sched.modegen.ModeTreeGenerator` for
large sizes: the analytic per-layer mode counts are combined with measured
per-mode scheduling time and serialized size from a random sample of each
layer.  Small sizes are generated exactly; the benchmark cross-checks the
estimator against exact generation where both are feasible.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Sequence

from repro.net.topology import erdos_renyi_topology
from repro.sched.modegen import ModeTreeGenerator
from repro.sched.workload import WorkloadGenerator

EXACT_LIMIT = 600  # generate exactly when the tree has at most this many modes


def run_cell(
    n: int, fmax: int, seed: int, samples_per_layer: int, workers: int
) -> Dict:
    """One (n, fmax) cell: exact when small, estimated otherwise.

    ``workers > 1`` fans each fault layer out across a process pool (the
    tree -- and hence every reported metric except wall time -- is
    identical to a serial run; see :meth:`ModeTreeGenerator.generate`).
    """
    topology = erdos_renyi_topology(n, seed=seed)
    workload = WorkloadGenerator(seed=seed).workload(
        target_utilization=max(2.0, n * 0.3)
    )
    generator = ModeTreeGenerator(
        topology, workload, fmax=fmax, fconc=1, workers=workers
    )
    if sum(generator.layer_counts()) <= EXACT_LIMIT:
        start = time.perf_counter()
        tree = generator.generate()
        seconds, method = time.perf_counter() - start, "exact"
        modes, size = tree.num_modes, tree.serialized_size()
    else:
        stats = generator.estimate(samples_per_layer=samples_per_layer, seed=seed)
        modes, size = stats.estimated_total_modes, stats.estimated_size_bytes
        seconds, method = stats.estimated_total_time_s, "estimated"
    return {
        "n": n,
        "fmax": fmax,
        "modes": modes,
        "size_bytes": size,
        "generation_s": seconds,
        "method": method,
        "workers": workers,
    }


def run(
    sizes: Sequence[int],
    fmax_values: Sequence[int],
    samples_per_layer: int,
    workers: int,
    seed: int = 0,
) -> List[Dict]:
    return [
        run_cell(n, fmax, seed, samples_per_layer, workers)
        for n in sizes
        for fmax in fmax_values
    ]


def check_shape(rows: Sequence[Dict]) -> Dict[str, bool]:
    """The paper's qualitative claims about Fig. 7."""
    def cell(n, fmax):
        return next(r for r in rows if r["n"] == n and r["fmax"] == fmax)

    sizes = sorted({r["n"] for r in rows})
    fmaxes = sorted({r["fmax"] for r in rows})
    big, small = sizes[-1], sizes[0]
    checks = {}
    # Mode count matches the combinatorial formula.
    for row in rows:
        expected = sum(math.comb(row["n"], i) for i in range(row["fmax"] + 1))
        checks.setdefault("mode_counts_match_formula", True)
        if row["modes"] != expected:
            checks["mode_counts_match_formula"] = False
    # Size/time grow with n and with fmax.
    if len(sizes) > 1:
        checks["size_grows_with_n"] = all(
            cell(big, f)["size_bytes"] > cell(small, f)["size_bytes"]
            for f in fmaxes
        )
    if len(fmaxes) > 1:
        checks["size_grows_with_fmax"] = all(
            cell(n, fmaxes[-1])["size_bytes"] > cell(n, fmaxes[0])["size_bytes"]
            for n in sizes
        )
        checks["time_grows_with_fmax"] = all(
            cell(n, fmaxes[-1])["generation_s"]
            > cell(n, fmaxes[0])["generation_s"]
            for n in sizes
        )
    # Paper: "the schedules are only a few MB" at the largest settings.
    biggest = cell(big, fmaxes[-1])
    checks["fits_embedded_flash"] = biggest["size_bytes"] < 512 * 1024 * 1024
    return checks
