"""Figure 8: per-node runtime costs of a full BTR deployment vs fconc.

The paper's case study: 26 nodes, 4 application flows, 100 rounds, EDF,
comparing an unprotected system against REBOUND-MULTI + auditing with
fconc = 1..3.  Three per-node metrics, each decomposed by layer:

* (a) average bandwidth: payload vs REBOUND (heartbeats/evidence) vs
  auditing (input bundles, authenticators, replica exchange);
* (b) average computation: auditing RSA sign/verify vs REBOUND
  multisignature sign/verify;
* (c) average storage: payload/protocol state vs auditing state.

Expected shape: REBOUND adds a fixed overhead independent of fconc;
auditing costs grow with fconc (each task effectively executes fconc+1
times, and replicas store the primary's streamed state), with a small
O(fconc^2) term from authenticator relaying.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import ReboundConfig
from repro.core.identity import DOMAIN_AUDITING, DOMAIN_FORWARDING
from repro.core.runtime import ReboundSystem
from repro.net.topology import erdos_renyi_topology
from repro.sched.workload import WorkloadGenerator


def _build_workload(seed: int, flows: int):
    generator = WorkloadGenerator(seed=seed, chain_length_range=(2, 3))
    built = []
    next_task = 1
    for flow_id in range(flows):
        flow = generator.flow(flow_id, next_task)
        built.append(flow)
        next_task += len(flow.tasks)
    from repro.sched.task import Workload

    return Workload(built)


def run_one(
    fconc: Optional[int], n: int, flows: int, rounds: int, seed: int, rsa_bits: int
) -> Dict:
    """One bar group of Fig. 8.  ``fconc=None`` is the unprotected system."""
    topology = erdos_renyi_topology(n, seed=seed)
    workload = _build_workload(seed, flows)
    protected = fconc is not None
    config = ReboundConfig(
        fmax=max(1, fconc or 0),
        fconc=fconc or 0,
        variant="multi",
        rsa_bits=rsa_bits,
        protocol_enabled=protected,
    )
    system = ReboundSystem(topology, workload, config, seed=seed)
    for node in system.nodes.values():
        node.traffic_accounting = True
    system.run(rounds)

    num_nodes = len(system.nodes)
    per_node_rounds = num_nodes * rounds
    traffic = {"payload": 0, "rebound": 0, "auditing": 0}
    for node in system.nodes.values():
        for key in traffic:
            traffic[key] += node.traffic_bytes[key]

    fwd_ops = {"sign": 0.0, "verify": 0.0}
    aud_ops = {"sign": 0.0, "verify": 0.0}
    rebound_storage = 0
    auditing_storage = 0
    for node in system.nodes.values():
        fwd = node.crypto.counters[DOMAIN_FORWARDING]
        aud = node.crypto.counters[DOMAIN_AUDITING]
        fwd_ops["sign"] += fwd.total_signatures()
        fwd_ops["verify"] += fwd.total_verifications()
        aud_ops["sign"] += aud.total_signatures()
        aud_ops["verify"] += aud.total_verifications()
        rebound_storage += node.forwarding.storage_bytes() if protected else 0
        auditing_storage += node.auditing.storage_bytes()

    return {
        "config": "unprot" if fconc is None else f"fconc={fconc}",
        "payload_kb_per_node_round": traffic["payload"] / per_node_rounds / 1024.0,
        "rebound_kb_per_node_round": traffic["rebound"] / per_node_rounds / 1024.0,
        "auditing_kb_per_node_round": traffic["auditing"] / per_node_rounds / 1024.0,
        "rebound_ms_ops_per_node_round": (fwd_ops["sign"] + fwd_ops["verify"])
        / per_node_rounds,
        "auditing_rsa_ops_per_node_round": (aud_ops["sign"] + aud_ops["verify"])
        / per_node_rounds,
        "rebound_storage_kb_per_node": rebound_storage / num_nodes / 1024.0,
        "auditing_storage_kb_per_node": auditing_storage / num_nodes / 1024.0,
    }


def run(
    fconc_values: Sequence[Optional[int]],
    n: int,
    flows: int,
    rounds: int,
    rsa_bits: int,
    seed: int = 0,
) -> List[Dict]:
    return [run_one(f, n, flows, rounds, seed, rsa_bits) for f in fconc_values]


def check_shape(rows: Sequence[Dict]) -> Dict[str, bool]:
    by_config = {r["config"]: r for r in rows}
    unprot = by_config.get("unprot")
    f1 = by_config.get("fconc=1")
    f3 = by_config.get("fconc=3")
    payloads = [r["payload_kb_per_node_round"] for r in rows]
    checks: Dict[str, bool] = {
        # The application's own traffic does not depend on the defense.
        "payload_constant_across_configs": max(payloads) <= 1.05 * min(payloads),
    }
    if unprot and f1:
        checks["unprotected_has_no_protocol_traffic"] = (
            unprot["rebound_kb_per_node_round"] == 0.0
            and unprot["rebound_ms_ops_per_node_round"] == 0.0
        )
        checks["rebound_adds_overhead"] = (
            f1["rebound_kb_per_node_round"] > 0
            and f1["rebound_ms_ops_per_node_round"] > 0
        )
    if f1 and f3:
        checks["auditing_grows_with_fconc"] = (
            f3["auditing_kb_per_node_round"] > f1["auditing_kb_per_node_round"]
            and f3["auditing_storage_kb_per_node"]
            >= f1["auditing_storage_kb_per_node"]
        )
        # The REBOUND (forwarding) overhead is roughly fconc-independent.
        checks["rebound_overhead_fixed"] = (
            abs(
                f3["rebound_ms_ops_per_node_round"]
                - f1["rebound_ms_ops_per_node_round"]
            )
            < 0.5 * max(1e-9, f1["rebound_ms_ops_per_node_round"])
        )
    return checks
