"""The production paths reproduce the recorded reference fingerprints."""

import json
import os
import subprocess
import sys

import pytest

from tests.golden_cells import (
    CELLS,
    CELLS_WITH_NODE_COUNTERS,
    NODE_COUNTERS_PATH,
    load_golden,
    node_counters,
    run_cell,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_golden_file_covers_every_cell():
    assert sorted(load_golden()["cells"]) == sorted(CELLS)


def test_node_counter_file_covers_every_multi_cell():
    assert sorted(load_golden(NODE_COUNTERS_PATH)["cells"]) == sorted(
        CELLS_WITH_NODE_COUNTERS
    )


@pytest.mark.parametrize("cell", CELLS)
def test_cell_reproduces_golden_fingerprint(cell):
    """...and on MULTI cells every node's counters, per domain: the totals
    alone would not see a cost moved from one node to another."""
    per_node = []
    assert run_cell(cell, inspect=lambda s: per_node.append(node_counters(s))) == (
        load_golden()["cells"][cell]
    )
    if cell in CELLS_WITH_NODE_COUNTERS:
        assert per_node == [load_golden(NODE_COUNTERS_PATH)["cells"][cell]]


@pytest.mark.parametrize(
    "cell", [c for c in CELLS if c.startswith(("er20-faultfree/", "grid20-crash/"))]
)
def test_quota_layer_never_fires_without_an_adversary(cell):
    """Admission quotas and evidence buckets bound what an adversary can
    make a correct node store; with none (fault-free, crash) neither may
    drop a message or evict an item."""
    fired, charged = [], []

    def inspect(system):
        for node_id, node in system.nodes.items():
            fwd = node.forwarding
            charged.append(fwd.quotas.total_charged)
            if fwd.quotas.total_dropped or fwd.evidence.evictions:
                fired.append(node_id)

    assert run_cell(cell, inspect=inspect) == load_golden()["cells"][cell]
    assert fired == []
    assert sum(charged) > 0  # the layer ran


def test_runs_are_deterministic_across_interpreter_hash_seeds():
    """str hashes are salted per process; nothing observable may depend on
    them (keys were once derived from ``hash((seed, "rsa", node_id))``)."""
    results = []
    for hash_seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join(
                [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]
            ),
        )
        out = subprocess.run(
            [sys.executable, "-m", "tests.golden_cells", "grid20-crash/multi"],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=120,
        ).stdout
        results.append(json.loads(out))
    assert results[0]["transcript_sha256"] == results[1]["transcript_sha256"]
    assert results[0]["link_bytes"] == results[1]["link_bytes"]
