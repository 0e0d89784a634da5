"""The golden identity cells behind ``tests/golden/identity_cells.json``.

Each cell is a small seeded deployment run for ``ROUNDS`` rounds; its
fingerprint is the SHA-256 over every round's
:func:`repro.analysis.metrics.transcript_entry`, the logical crypto
counters and the total bytes put on links.  The committed file was
recorded by reference paths that have since been deleted (every simulator
fast path switched off); the production paths must reproduce it bit for
bit.  See ``tests/golden/README.md`` for when and how to regenerate it.

    PYTHONPATH=src python -m tests.golden_cells CELL      # print one cell
    PYTHONPATH=src python -m tests.golden_cells --write   # rewrite the files

``--write`` also rewrites ``tests/golden/node_counters.json``: every node's
per-domain counters on the MULTI cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Any, Callable, Dict, Optional, Tuple

from repro.analysis.metrics import transcript_entry
from repro.core.config import ReboundConfig
from repro.core.runtime import ReboundSystem
from repro.faults.adversary import CrashBehavior, EquivocateBehavior, LFDStormBehavior
from repro.net.topology import erdos_renyi_topology, grid_topology
from repro.sched.workload import WorkloadGenerator

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "identity_cells.json")
NODE_COUNTERS_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "node_counters.json"
)
ROUNDS = 24
INJECT_ROUND = 8

#: scenario -> (topology builder, fmax, behaviour factory or None)
SCENARIOS: Dict[str, Tuple[Callable, int, Optional[Callable]]] = {
    "er20-faultfree": (lambda: erdos_renyi_topology(20, seed=0), 1, None),
    "grid20-crash": (lambda: grid_topology(4, 5), 1, CrashBehavior),
    "er20-equivocate": (lambda: erdos_renyi_topology(20, seed=0), 2, EquivocateBehavior),
    "er20-lfdstorm": (lambda: erdos_renyi_topology(20, seed=0), 1, LFDStormBehavior),
}
CELLS = [f"{scenario}/{variant}" for scenario in SCENARIOS for variant in ("basic", "multi")]


def run_cell(
    cell: str, inspect: Optional[Callable[[ReboundSystem], None]] = None
) -> Dict[str, Any]:
    """Run one cell; ``inspect`` sees the system after the last round."""
    scenario, variant = cell.split("/")
    build_topology, fmax, behaviour = SCENARIOS[scenario]
    topology = build_topology()
    workload = WorkloadGenerator(seed=0, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(fmax=fmax, fconc=1, variant=variant, rsa_bits=256)
    system = ReboundSystem(topology, workload, config, seed=0)
    digest = hashlib.sha256()
    link_bytes = 0
    try:
        for r in range(1, ROUNDS + 1):
            if behaviour is not None and r == INJECT_ROUND:
                system.inject_now(max(topology.controllers), behaviour())
            system.run_round()
            digest.update(repr(transcript_entry(system)).encode())
            link_bytes += system.network.bytes_in_round(system.network.round_no)
        counters = system.total_crypto_counters().as_dict()
        if inspect is not None:
            inspect(system)
    finally:
        system.close()
    return {
        "transcript_sha256": digest.hexdigest(),
        "crypto_counters": counters,
        "link_bytes": link_bytes,
    }


CELLS_WITH_NODE_COUNTERS = [cell for cell in CELLS if cell.endswith("/multi")]


def node_counters(system: ReboundSystem) -> Dict[str, Dict[str, Dict[str, int]]]:
    """node id -> domain -> that node's logical crypto counters."""
    return {
        str(node_id): {
            domain: bucket.as_dict() for domain, bucket in node.crypto.counters.items()
        }
        for node_id, node in sorted(system.nodes.items())
    }


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def _write(path: str, cells: Dict[str, Any]) -> None:
    golden = load_golden(path) if os.path.exists(path) else {}
    golden["cells"] = cells
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv) -> int:
    if argv == ["--write"]:
        fingerprints, per_node = {}, {}
        for cell in CELLS:
            fingerprints[cell] = run_cell(
                cell, inspect=lambda system, cell=cell: per_node.update(
                    {cell: node_counters(system)}
                ),
            )
        _write(GOLDEN_PATH, fingerprints)
        _write(NODE_COUNTERS_PATH, {c: per_node[c] for c in CELLS_WITH_NODE_COUNTERS})
        return 0
    if len(argv) == 1 and argv[0] in CELLS:
        print(json.dumps(run_cell(argv[0]), sort_keys=True))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
