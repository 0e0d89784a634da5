"""The golden mode trees behind ``tests/golden/mode_trees.json``.

Each cell is a Fig. 7-style mode tree: a seeded ER topology and workload,
node faults up to ``fmax``, built exactly as ``bench-modegen`` builds it.  Its
fingerprint is the SHA-256 of ``encode`` over the tree's (scenario,
schedule, parent, children) entries sorted by encoded scenario -- so
schedules, canonical parents and child order all count.  The cells are the
``bench-modegen`` quick and full cells (not its n = 30 pool cell) plus ER-7
(``fmax=1``, ILP), whose cold ILP once dropped a flow in two modes.  The
committed file was recorded with every solver optimisation of the time
switched on (ILP warm starts, batch admission, and a placement memo and
schedule interning that have since been deleted); the default generator
must reproduce it bit for bit, serial and with a worker pool.
See ``tests/golden/README.md`` for when and how to regenerate it.

    PYTHONPATH=src python -m tests.golden_mode_trees CELL      # print one cell
    PYTHONPATH=src python -m tests.golden_mode_trees --write   # rewrite the file
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Dict

from repro.experiments.bench_modegen import CELLS as BENCH_CELLS
from repro.experiments.bench_modegen import QUICK_CELLS, _generate
from repro.net.message import encode
from repro.sched.modegen import ModeTree

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "mode_trees.json")
SEED = 0

#: cell name -> bench-modegen cell (controllers, fmax, method, utilisation)
CELLS: Dict[str, Dict[str, Any]] = {
    cell["name"]: cell for cell in QUICK_CELLS + BENCH_CELLS
}
CELLS["er7_ilp_f1"] = {"name": "er7_ilp_f1", "n": 7, "fmax": 1, "method": "ilp", "util": 1.5}


def fingerprint(tree: ModeTree) -> Dict[str, Any]:
    entries = sorted(
        (
            (scenario, schedule, tree.parents[scenario], tree.children[scenario])
            for scenario, schedule in tree.schedules.items()
        ),
        key=lambda entry: encode(entry[0]),
    )
    return {
        "modes": tree.num_modes,
        "tree_sha256": hashlib.sha256(encode(entries)).hexdigest(),
    }


def run_cell(cell: str, workers: int = 1) -> Dict[str, Any]:
    tree, _elapsed = _generate(CELLS[cell], workers=workers, seed=SEED)
    return fingerprint(tree)


def load_golden() -> Dict[str, Any]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def main(argv) -> int:
    if argv == ["--write"]:
        golden = load_golden()
        golden["cells"] = {cell: run_cell(cell) for cell in CELLS}
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(golden, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0
    if len(argv) == 1 and argv[0] in CELLS:
        print(json.dumps(run_cell(argv[0]), sort_keys=True))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
