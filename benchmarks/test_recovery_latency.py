"""Recovery latency: the BTR bound, measured (paper S2.7, S5.8).

Not a single paper figure, but the claim behind all of them: for every
attack class, Tdet + Tstab + Tswitch stays within a bound that depends on
the topology (D_max) and the audit latency -- never on what the adversary
does.  This bench sweeps behaviours x topology sizes and reports the
detection and recovery milestones in rounds, read from a flight-recorder
trace by :func:`repro.obs.timeline.reconstruct` and counted from the round
the fault is first active; with the testbed's 40 ms rounds, the
chemical-plant numbers land on the paper's ~200 ms.
"""

import pytest

from repro.core import ReboundConfig, ReboundSystem
from repro.experiments.report import md_table
from repro.faults.adversary import (
    CrashBehavior,
    EquivocateBehavior,
    RandomOutputBehavior,
    SilenceBehavior,
)
from repro.net.topology import erdos_renyi_topology
from repro.obs.recorder import FlightRecorder
from repro.obs.timeline import reconstruct
from repro.sched.workload import WorkloadGenerator

SIZES = (8, 14)
BEHAVIORS = [
    ("crash", CrashBehavior),
    ("silence", SilenceBehavior),
    ("random-output", lambda: RandomOutputBehavior(seed=9)),
    ("equivocate", EquivocateBehavior),
]


def _measure(n: int, behavior_name: str, factory) -> dict:
    topology = erdos_renyi_topology(n, seed=2)
    workload = WorkloadGenerator(seed=2, chain_length_range=(2, 2)).workload(
        target_utilization=n * 0.25
    )
    config = ReboundConfig(fmax=2, fconc=1, variant="multi", rsa_bits=256)
    with FlightRecorder().recording() as recorder:
        system = ReboundSystem(topology, workload, config, seed=2)
        system.run(12)
        victim = max(
            system.topology.controllers,
            key=lambda c: len(system.nodes[c].auditing.primaries),
        )
        system.inject_now(victim, factory())
        system.run(25)
    assert recorder.dropped == 0, "trace window lost the initial modes"
    timeline = reconstruct(recorder.events())
    fault_round = timeline.truth.first_round
    detection = timeline.detection_round
    return {
        "n": n,
        "behavior": behavior_name,
        "d_max": config.d_max,
        "detect_rounds": None if detection is None else detection - fault_round,
        "recover_rounds": timeline.recovery_rounds,
        "recovered": timeline.convergence_round is not None,
    }


@pytest.fixture(scope="module")
def rows():
    return [
        _measure(n, name, factory)
        for n in SIZES
        for name, factory in BEHAVIORS
    ]


def test_recovery_latency(benchmark, rows):
    benchmark.pedantic(
        _measure, args=(8, "crash", CrashBehavior), rounds=1, iterations=1
    )
    print("Recovery latency by behaviour and system size")
    print(md_table(rows))
    for row in rows:
        assert row["recovered"], f"{row} never recovered"
        # The bound: detection within a small constant for direct omissions,
        # within the audit latency for commissions; recovery adds the
        # evidence-flood (<= D_max) and the switch.
        bound = 2 * row["d_max"] + 10
        assert row["recover_rounds"] <= bound, (
            f"{row['behavior']} at n={row['n']}: recovery "
            f"{row['recover_rounds']} rounds exceeds bound {bound}"
        )
