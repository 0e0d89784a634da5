"""Figure 6: mode-change dynamics around a worst-case fault.

The paper runs REBOUND-MULTI for 100 rounds on a 45-node topology; in round
50 the highest-degree node turns faulty and performs the most expensive
action -- declaring a different link failure over each of its links
(S3.6's worst case).  Two metrics per round:

* the fraction of correct nodes in the initial mode / intermediate modes /
  the final mode (top panel), and
* the per-link bandwidth (bottom panel), which spikes during the change
  (evidence transfers + lost aggregation opportunities) and then settles.

The storm first splinters the network into many transient modes; once the
evidence floods and stabilizes, everyone converges on one final mode.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.core.config import ReboundConfig
from repro.core.runtime import ReboundSystem
from repro.faults.adversary import LFDStormBehavior
from repro.net.topology import erdos_renyi_topology
from repro.sched.task import Workload

_INITIAL_MODE = ((), ())


def run(
    n: int, fault_round: int, total_rounds: int, rsa_bits: int, seed: int = 0
) -> Dict:
    """One row per round (mode fractions + mean link bandwidth), with the
    fault round and the system's ``Rmax`` (PAPER S2.7).

    ``frac_final`` is measured against the mode the system eventually
    settles in (known only post hoc, as in the paper's plot).
    """
    topology = erdos_renyi_topology(n, seed=seed)
    config = ReboundConfig(fmax=3, fconc=1, variant="multi", rsa_bits=rsa_bits)
    system = ReboundSystem(topology, Workload([]), config, seed=seed)
    victim = topology.max_degree_node()

    censuses: List[Tuple[int, Counter, float]] = []
    injected = False
    for _ in range(total_rounds):
        if system.round_no + 1 == fault_round and not injected:
            system.inject_now(victim, LFDStormBehavior())
            injected = True
        system.run_round()
        censuses.append(
            (
                system.round_no,
                system.mode_census(),
                system.mean_link_bytes_in_round() / 1024.0,
            )
        )

    final_census = censuses[-1][1]
    final_mode = _dominant_mode(final_census, exclude=_INITIAL_MODE)
    rows: List[Dict] = []
    for round_no, census, bandwidth in censuses:
        total = sum(census.values())
        in_initial = census.get(_INITIAL_MODE, 0)
        in_final = census.get(final_mode, 0) if final_mode is not None else 0
        rows.append(
            {
                "round": round_no,
                "frac_initial": in_initial / total,
                "frac_final": in_final / total,
                "frac_other": max(0.0, (total - in_initial - in_final) / total),
                "modes": len(census),
                "bandwidth_kb_per_link": bandwidth,
            }
        )
    return {"rows": rows, "fault_round": fault_round, "r_max": system.bounds.r_max}


def _dominant_mode(census: Counter, exclude) -> Optional[tuple]:
    candidates = [m for m in census if m != exclude]
    if not candidates:
        return None
    return max(candidates, key=lambda m: census[m])


def table(result: Dict) -> List[Dict]:
    """The rounds around the fault."""
    fault = result["fault_round"]
    return [r for r in result["rows"] if fault - 3 <= r["round"] <= fault + 10]


def check_shape(result: Dict) -> Dict[str, bool]:
    """The Fig. 6 narrative: one mode before the fault, convergence within
    the Req. 2 bound ``Rmax`` after it, and a bandwidth spike meanwhile."""
    rows, fault = result["rows"], result["fault_round"]
    pre = [r for r in rows if r["round"] < fault]
    post = [r for r in rows if r["round"] >= fault]
    tail = pre[-5:]
    pre_bw = sum(r["bandwidth_kb_per_link"] for r in tail) / max(1, len(tail))
    peak_bw = max((r["bandwidth_kb_per_link"] for r in post), default=0.0)
    converged = next((r["round"] for r in post if r["frac_final"] == 1.0), None)
    return {
        "all_start_in_root_mode": all(r["frac_initial"] == 1.0 for r in pre),
        "converges_within_r_max": converged is not None
        and converged - fault <= result["r_max"],
        "bandwidth_spikes": peak_bw > 1.5 * pre_bw,
    }
