"""Ablations of the design choices the paper calls out (S3.5, S3.9).

Not paper figures: each turns one choice off and measures what it buys --
message expiry (bounded storage), bus broadcast (bytes per round on buses),
signature spot-checking (verifications), and ILP over greedy placement
(migrations per mode transition).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.config import ReboundConfig
from repro.core.runtime import ReboundSystem
from repro.net.topology import Topology, chemical_plant_topology, erdos_renyi_topology
from repro.sched.assign import ScheduleBuilder
from repro.sched.task import Workload, chemical_plant_workload


def _bare_system(topology: Topology, seed: int, **flags) -> ReboundSystem:
    config = ReboundConfig(fmax=1, fconc=1, variant="basic", rsa_bits=256, **flags)
    return ReboundSystem(topology, Workload([]), config, seed=seed)


def _bus_run(rounds: int, seed: int, **flags) -> ReboundSystem:
    """One 10-node bus plus two point-to-point stragglers."""
    topology = Topology()
    for i in range(12):
        topology.add_node(i)
    topology.add_bus(range(10))
    topology.add_link(9, 10)
    topology.add_link(10, 11)
    system = _bare_system(topology, seed, **flags)
    system.run(rounds)
    return system


def _storage(expiry: bool, rounds: Sequence[int], seed: int) -> List[float]:
    system = _bare_system(
        erdos_renyi_topology(15, seed=3), seed, expiry_optimization=expiry
    )
    samples = []
    for target in rounds:
        system.run(target - system.round_no)
        samples.append(system.mean_storage_bytes())
    return samples


def _migrations() -> Dict[str, List[int]]:
    """Copies the ILP ("with") and greedy first-fit ("without") migrate into
    every single-fault mode of the Fig. 1 plant where both admit the same
    flows."""
    topology, workload = chemical_plant_topology(), chemical_plant_workload()
    builders = {
        key: ScheduleBuilder(topology, workload, fconc=1, method=method)
        for key, method in (("with", "ilp"), ("without", "greedy"))
    }
    root = builders["without"].build()
    costs: Dict[str, List[int]] = {"with": [], "without": []}
    for victim in topology.controllers:
        modes = {k: b.build(failed_nodes=[victim], parent=root)
                 for k, b in builders.items()}
        if modes["with"].active_flows == modes["without"].active_flows:
            for key, mode in modes.items():
                costs[key].append(mode.migration_cost(root))
    return costs


def run(rounds: Tuple[int, int], seed: int = 1) -> Dict[str, Dict]:
    """Each choice on ("with") and off ("without").  Storage is sampled at
    both round counts in ``rounds``; the bus systems run the later one."""
    last = rounds[-1]
    on_off = (("with", True), ("without", False))
    return {
        "expiry": {"rounds": tuple(rounds),
                   **{k: _storage(on, rounds, seed) for k, on in on_off}},
        "bus_broadcast": {
            k: _bus_run(last, seed, bus_broadcast=on, signature_spot_checking=False)
            .mean_link_bytes_in_round()
            for k, on in on_off
        },
        "spot_checking": {
            k: _bus_run(last, seed, signature_spot_checking=on)
            .total_crypto_counters().total_verifications()
            for k, on in on_off
        },
        "ilp_vs_greedy": _migrations(),
    }


def table(results: Dict[str, Dict]) -> List[Dict]:
    """One report row per ablation."""
    rounds = " / ".join(f"r{r}" for r in results["expiry"]["rounds"])
    rows = (
        ("expiry", "D_max message expiry", "§3.5", f"storage B/node at {rounds}"),
        ("bus_broadcast", "bus broadcast", "§3.5", "link bytes per round"),
        ("spot_checking", "signature spot-checking", "§3.5", "verifications"),
        ("ilp_vs_greedy", "ILP placement (vs greedy)", "§3.9",
         "migrations per single-fault mode"),
    )

    def cell(value) -> str:
        values = value if isinstance(value, list) else [value]
        return " / ".join(f"{v:.0f}" for v in values)

    return [
        {"design": design, "paper": paper, "metric": metric,
         "with": cell(results[key]["with"]),
         "without": cell(results[key]["without"])}
        for key, design, paper, metric in rows
    ]


def check_shape(results: Dict[str, Dict]) -> Dict[str, bool]:
    """Each choice delivers the saving its paper section claims."""
    expiry, bus, spot, placement = (
        results[k]
        for k in ("expiry", "bus_broadcast", "spot_checking", "ilp_vs_greedy")
    )
    return {
        # Past the expiry window storage stops growing with expiry and
        # keeps growing with the round count without it.
        "sec3_5_expiry_bounds_storage": (
            expiry["with"][-1] <= 1.05 * expiry["with"][0]
            and expiry["without"][-1] > 1.5 * expiry["without"][0]
        ),
        # One broadcast per bus instead of a unicast per member.
        "sec3_5_bus_broadcast_halves_bytes": bus["with"] < bus["without"] / 2,
        # Only fmax + 1 bus members verify each broadcast signature.
        "sec3_5_spot_checking_cuts_verifications": (
            spot["with"] < 0.7 * spot["without"]
        ),
        # The ILP minimizes transition cost; greedy first-fit does not.
        "sec3_9_ilp_migrates_no_more_than_greedy": bool(placement["with"])
        and all(i <= g for i, g in zip(placement["with"], placement["without"])),
    }
