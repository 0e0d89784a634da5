"""Figure 5: steady-state overhead of the bare protocol vs system size.

The paper runs REBOUND-BASIC and REBOUND-MULTI *without a higher-level
protocol* for 50 rounds on Erdos-Renyi topologies (p = 3 ln n / n,
n = 4..100, 10 topologies per size) and measures, in the final round:

* (a) bandwidth per link per round,
* (b) storage per node,
* (c) cryptographic operations per node per round.

Expected shape: BASIC grows linearly with n on all three axes (every node
forwards and verifies a heartbeat from every other node); MULTI levels off
(bandwidth tracks the max-fail distance ~ O(log n); one aggregate
verification per neighbor per in-flight round).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.metrics import MetricsCollector
from repro.core.config import ReboundConfig
from repro.core.runtime import ReboundSystem
from repro.net.topology import erdos_renyi_topology
from repro.sched.task import Workload


def run_one(n: int, variant: str, rounds: int, seed: int, rsa_bits: int) -> Dict:
    """One (size, variant) cell of Fig. 5; returns a row dict."""
    topology = erdos_renyi_topology(n, seed=seed)
    config = ReboundConfig(fmax=1, fconc=1, variant=variant, rsa_bits=rsa_bits)
    system = ReboundSystem(topology, Workload([]), config, seed=seed)
    collector = MetricsCollector(system)
    collector.run_and_sample(rounds)
    steady = collector.steady_state(tail=3)
    ops = steady.forwarding_ops
    return {
        "n": n,
        "variant": variant,
        "bandwidth_kb_per_link_round": steady.bytes_per_link / 1024.0,
        "storage_kb_per_node": steady.storage_per_node / 1024.0,
        "sign_ops_per_node_round": ops.rsa_sign + ops.ms_sign,
        "verify_ops_per_node_round": ops.rsa_verify + ops.ms_verify,
    }


def run(
    sizes: Sequence[int], rounds: int, seeds: Sequence[int], rsa_bits: int
) -> List[Dict]:
    """The full Fig. 5 sweep: every size x variant, averaged over seeds."""
    rows: List[Dict] = []
    for n in sizes:
        for variant in ("basic", "multi"):
            cells = [run_one(n, variant, rounds, seed, rsa_bits) for seed in seeds]
            rows.append({
                key: value if key in ("n", "variant")
                else sum(c[key] for c in cells) / len(cells)
                for key, value in cells[0].items()
            })
    return rows


def check_shape(rows: Sequence[Dict]) -> Dict[str, bool]:
    """The paper's qualitative claims, as checkable booleans."""
    basic = sorted(
        (r for r in rows if r["variant"] == "basic"), key=lambda r: r["n"]
    )
    multi = sorted(
        (r for r in rows if r["variant"] == "multi"), key=lambda r: r["n"]
    )
    biggest = basic[-1]["n"]
    basic_big = basic[-1]
    multi_big = next(r for r in multi if r["n"] == biggest)
    return {
        # (a) BASIC bandwidth grows ~linearly; MULTI stays far below.
        "basic_bandwidth_grows": basic[-1]["bandwidth_kb_per_link_round"]
        > 2 * basic[0]["bandwidth_kb_per_link_round"],
        "multi_bandwidth_much_lower": multi_big["bandwidth_kb_per_link_round"]
        < basic_big["bandwidth_kb_per_link_round"] / 3,
        # (b) MULTI storage far below BASIC at scale.
        "multi_storage_much_lower": multi_big["storage_kb_per_node"]
        < basic_big["storage_kb_per_node"] / 3,
        # (c) BASIC verifications grow linearly with n; MULTI's grow much
        # more slowly (O(degree x in-flight rounds) ~ O(log^2 n)).  The
        # paper notes BASIC can even be cheaper on small topologies.
        "basic_verifies_grow": basic[-1]["verify_ops_per_node_round"]
        > 2 * basic[0]["verify_ops_per_node_round"],
        "multi_verifies_sublinear": (
            multi[-1]["verify_ops_per_node_round"]
            / max(1e-9, multi[0]["verify_ops_per_node_round"])
        )
        < (
            basic[-1]["verify_ops_per_node_round"]
            / max(1e-9, basic[0]["verify_ops_per_node_round"])
        ),
        # Both variants sign once per round.
        "one_signature_per_round": abs(basic_big["sign_ops_per_node_round"] - 1)
        < 0.5
        and abs(multi_big["sign_ops_per_node_round"] - 1) < 0.5,
    }
