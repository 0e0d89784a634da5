"""Mode-tree generation benchmark: serial vs parallel generation.

Runs a Fig. 7-style node-fault sweep twice per cell in one process --
``workers=1`` and fanned out across a worker pool -- and verifies the
parallel tree is *identical* to the serial tree (schedules, parents, child
order, serialized size).  Each row also records the Fig. 7 sampling
estimator's size against the exact tree's.

The result is written to ``BENCH_modegen.json`` so regressions are
diffable across commits; ``python -m repro bench-modegen`` prints the
JSON line.  ``quick=True`` shrinks the sweep to a CI-sized smoke run.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional

from repro.net.topology import erdos_renyi_topology
from repro.sched.modegen import FailureScenario, ModeTree, ModeTreeGenerator
from repro.sched.workload import WorkloadGenerator

DEFAULT_WORKERS = 2

#: Fig. 7-style sweep cells.  ILP cells are deliberately small: the
#: pure-Python branch-and-bound is exponential in the model size.
CELLS: List[Dict[str, Any]] = [
    {"name": "ilp_n6_f1", "n": 6, "fmax": 1, "method": "ilp", "util": 1.2},
    {"name": "ilp_n6_f2", "n": 6, "fmax": 2, "method": "ilp", "util": 1.2},
    {"name": "greedy_n12_f2", "n": 12, "fmax": 2, "method": "greedy", "util": 2.0},
]

#: Full runs only, and not a golden cell: Fig. 7's own exact n = 30,
#: fmax 2 tree (its workload family, chains of 1-4 tasks), where the worker
#: pool has to earn its keep (>= 1.3x at workers = cores) and where the
#: estimator is cross-checked.
POOL_CELLS: List[Dict[str, Any]] = [
    {"name": "greedy_n30_f2", "n": 30, "fmax": 2, "method": "greedy", "util": 9.0,
     "chains": (1, 4)},
]

#: Samples per layer for the estimator cross-check (Fig. 7's default).
ESTIMATOR_SAMPLES = 6

QUICK_CELLS: List[Dict[str, Any]] = [
    {"name": "greedy_n8_f2", "n": 8, "fmax": 2, "method": "greedy", "util": 1.5},
    {"name": "ilp_n5_f1", "n": 5, "fmax": 1, "method": "ilp", "util": 1.0},
]

#: Online-refresh sweep: base tree at ``fmax``, one observed pattern with
#: ``fmax + extra`` node faults, extended via ``extend_for`` (serial and
#: parallel) vs a from-scratch generation at ``fmax + extra``.  ``nodes``
#: is the node count; two cells share one, so ``name`` identifies a cell.
REFRESH_CELLS: List[Dict[str, Any]] = [
    {"name": "refresh_n8_f2_x1", "nodes": 8, "fmax": 2, "extra": 1, "util": 1.5},
    {"name": "refresh_n8_f2_x2", "nodes": 8, "fmax": 2, "extra": 2, "util": 1.5},
    {"name": "refresh_n12_f2_x1", "nodes": 12, "fmax": 2, "extra": 1, "util": 2.0},
]

QUICK_REFRESH_CELLS: List[Dict[str, Any]] = [
    {"name": "refresh_n6_f2_x1", "nodes": 6, "fmax": 2, "extra": 1, "util": 1.2},
]


def _trees_identical(a: ModeTree, b: ModeTree) -> bool:
    """Full structural identity: schedules, canonical parents, child order."""
    return (
        a.schedules == b.schedules
        and a.parents == b.parents
        and a.children == b.children
        and a.serialized_size() == b.serialized_size()
    )


def _subtree_identical(
    extended: ModeTree, scratch: ModeTree, target: FailureScenario
) -> bool:
    """The extended tree's sub-lattice under ``target`` is byte-identical
    to from-scratch generation: same schedules, same canonical parents,
    same child order (restricted to the sub-lattice on both sides --
    the trees legitimately differ outside it)."""
    for scenario in scratch.schedules:
        if not target.covers(scenario):
            continue
        if scenario not in extended.schedules:
            return False
        if extended.schedules[scenario] != scratch.schedules[scenario]:
            return False
        if extended.parents.get(scenario) != scratch.parents.get(scenario):
            return False
        ext_kids = [
            c for c in extended.children.get(scenario, [])
            if target.covers(c)
        ]
        scr_kids = [
            c for c in scratch.children.get(scenario, [])
            if target.covers(c)
        ]
        if ext_kids != scr_kids:
            return False
    return True


def _refresh_setup(cell: Dict[str, Any], fmax: int, seed: int, workers: int = 1):
    topology = erdos_renyi_topology(cell["nodes"], seed=seed)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=cell["util"]
    )
    generator = ModeTreeGenerator(
        topology, workload, fmax=fmax, fconc=1, method="greedy", workers=workers
    )
    return topology, generator


def _run_refresh_cell(
    cell: Dict[str, Any], workers: int, seed: int
) -> Dict[str, Any]:
    fmax, extra = cell["fmax"], cell["extra"]
    topology, _ = _refresh_setup(cell, fmax, seed)
    target = FailureScenario(
        nodes=frozenset(topology.controllers[: fmax + extra]),
        links=frozenset(),
    )

    def extend(n_workers: int):
        _, generator = _refresh_setup(cell, fmax, seed, workers=n_workers)
        tree = generator.generate()
        t0 = time.perf_counter()
        stats = generator.extend_for(tree, target)
        return tree, stats, time.perf_counter() - t0

    tree_serial, stats, extend_serial_s = extend(1)
    tree_parallel, _, extend_parallel_s = extend(workers)
    _, scratch_gen = _refresh_setup(cell, fmax + extra, seed)
    t0 = time.perf_counter()
    scratch = scratch_gen.generate()
    scratch_s = time.perf_counter() - t0
    return {
        **{k: cell[k] for k in ("name", "nodes", "fmax", "extra", "util")},
        "target_faults": fmax + extra,
        "added_modes": stats["added_modes"],
        "extend_serial_run_s": extend_serial_s,
        "extend_parallel_run_s": extend_parallel_s,
        "scratch_run_s": scratch_s,
        "speedup_vs_scratch": (
            scratch_s / extend_serial_s if extend_serial_s else float("inf")
        ),
        "identical_to_scratch": (
            _subtree_identical(tree_serial, scratch, target)
            and _subtree_identical(tree_parallel, scratch, target)
        ),
        "parallel_identical_to_serial": (
            tree_serial.schedules == tree_parallel.schedules
            and tree_serial.parents == tree_parallel.parents
            and tree_serial.children == tree_parallel.children
        ),
    }


def _generator(cell: Dict[str, Any], workers: int, seed: int) -> ModeTreeGenerator:
    topology = erdos_renyi_topology(cell["n"], seed=seed)
    workload = WorkloadGenerator(
        seed=seed, chain_length_range=cell.get("chains", (1, 2))
    ).workload(target_utilization=cell["util"])
    return ModeTreeGenerator(
        topology,
        workload,
        fmax=cell["fmax"],
        fconc=1,
        method=cell["method"],
        workers=workers,
    )


def _generate(cell: Dict[str, Any], workers: int, seed: int):
    generator = _generator(cell, workers, seed)
    t0 = time.perf_counter()
    tree = generator.generate()
    elapsed = time.perf_counter() - t0
    return tree, elapsed


def _run_cell(cell: Dict[str, Any], workers: int, seed: int) -> Dict[str, Any]:
    tree_serial, serial_s = _generate(cell, workers=1, seed=seed)
    tree_par, parallel_s = _generate(cell, workers=workers, seed=seed)
    solver = tree_par.stats.solver
    estimate = _generator(cell, 1, seed).estimate(
        samples_per_layer=ESTIMATOR_SAMPLES, seed=seed
    )
    return {
        **{k: cell[k] for k in ("name", "n", "fmax", "method", "util")},
        "modes": tree_serial.num_modes,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        # The headline identity claim: the pool produces the very tree the
        # serial engine does.
        "parallel_identical_to_serial": _trees_identical(tree_serial, tree_par),
        "size_bytes": tree_par.serialized_size(),
        "estimator_size_ratio": (
            estimate.estimated_size_bytes / tree_serial.serialized_size()
        ),
        "ilp_nodes": solver.get("ilp_nodes_explored", 0),
        "ilp_solves": solver.get("ilp_solves", 0),
        "warm_proved_optimal": solver.get("ilp_warm_proved_optimal", 0),
    }


def run_modegen_bench(
    workers: int = DEFAULT_WORKERS,
    seed: int = 0,
    quick: bool = False,
    output_path: Optional[str] = "BENCH_modegen.json",
) -> Dict[str, Any]:
    """The serial/parallel measurement (see module docstring).

    Returns the result dict; also writes it to ``output_path`` (JSON)
    unless that is None.
    """
    cells = QUICK_CELLS if quick else CELLS + POOL_CELLS
    rows = [_run_cell(cell, workers=workers, seed=seed) for cell in cells]
    refresh_cells = QUICK_REFRESH_CELLS if quick else REFRESH_CELLS
    refresh_rows = [
        _run_refresh_cell(cell, workers=workers, seed=seed)
        for cell in refresh_cells
    ]
    from repro.experiments.common import bench_env

    result = {
        "benchmark": "modegen",
        "env": bench_env(workers=workers),
        "quick": quick,
        "workers": workers,
        "seed": seed,
        "cells": rows,
        "total_serial_s": sum(r["serial_s"] for r in rows),
        "total_parallel_s": sum(r["parallel_s"] for r in rows),
        "all_parallel_identical": all(
            r["parallel_identical_to_serial"] for r in rows
        ),
        # Online tree refresh (PROTOCOL.md §16.5): time to extend a live
        # tree with the sub-lattice of one >fmax pattern, vs regenerating
        # the whole tree at the larger budget from scratch.
        "time_to_new_tree": {
            "cells": refresh_rows,
            "total_extend_serial_run_s": sum(
                r["extend_serial_run_s"] for r in refresh_rows
            ),
            "total_extend_parallel_run_s": sum(
                r["extend_parallel_run_s"] for r in refresh_rows
            ),
            "total_scratch_run_s": sum(
                r["scratch_run_s"] for r in refresh_rows
            ),
            "all_identical_to_scratch": all(
                r["identical_to_scratch"] for r in refresh_rows
            ),
            "all_parallel_identical": all(
                r["parallel_identical_to_serial"] for r in refresh_rows
            ),
        },
    }
    if output_path is not None:
        with open(output_path, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result


def main(
    output_path: Optional[str] = "BENCH_modegen.json",
    workers: int = DEFAULT_WORKERS,
    quick: bool = False,
) -> Dict[str, Any]:
    result = run_modegen_bench(
        workers=workers, quick=quick, output_path=output_path
    )
    refresh = result["time_to_new_tree"]
    print("BENCH " + json.dumps(
        {
            **{
                k: result[k]
                for k in (
                    "benchmark", "quick", "workers",
                    "total_serial_s", "total_parallel_s",
                    "all_parallel_identical",
                )
            },
            "time_to_new_tree_s": refresh["total_extend_serial_run_s"],
            "refresh_identical_to_scratch": refresh["all_identical_to_scratch"],
        },
        sort_keys=True,
    ))
    return result


if __name__ == "__main__":
    main()
