"""Online mode-tree refresh under churn (PROTOCOL.md §16.5).

When the observed failure pattern drifts beyond the precomputed tree
(> fmax faults), the runtime regenerates only the affected subtree via
``ModeTreeGenerator.extend_for`` while nodes degrade gracefully to the
covering-ancestor holding mode -- the system never halts.  Pinned here:

* the extended sub-lattice is **byte-identical** to from-scratch
  generation at the larger fmax (serial and parallel extension alike);
* an fmax+1 drift triggers exactly the needed regeneration, every
  correct node keeps a schedule every round, and the survivors converge
  on a mode excluding all the faulty nodes.
"""

from repro.chaos import BTRMonitor
from repro.core import ReboundConfig, ReboundSystem
from repro.faults.adversary import CrashBehavior
from repro.net.topology import erdos_renyi_topology
from repro.sched.modegen import FailureScenario, ModeTreeGenerator
from repro.sched.workload import WorkloadGenerator

FMAX = 2


def _generator(fmax, seed=9, n=6, workers=1):
    topology = erdos_renyi_topology(n, seed=seed)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.2
    )
    generator = ModeTreeGenerator(
        topology, workload, fmax=fmax, fconc=1, method="greedy", workers=workers
    )
    return topology, generator


def test_extend_for_identical_to_scratch():
    """The sub-lattice under the target is byte-identical to generating
    the whole tree at fmax+1 from scratch: same schedules, same canonical
    parents, same child order (restricted to the sub-lattice, where the
    trees are comparable at all)."""
    from repro.experiments.bench_modegen import _subtree_identical

    topology, generator = _generator(FMAX)
    tree = generator.generate()
    target = FailureScenario(
        nodes=frozenset(topology.controllers[: FMAX + 1]), links=frozenset()
    )
    assert target not in tree.schedules
    serial_stats = generator.extend_for(tree, target)
    assert serial_stats["added_modes"] > 0
    assert target in tree.schedules

    _, gen2 = _generator(FMAX, workers=2)
    tree_parallel = gen2.generate()
    gen2.extend_for(tree_parallel, target)

    _, scratch_gen = _generator(FMAX + 1)
    scratch = scratch_gen.generate()
    assert _subtree_identical(tree, scratch, target)
    assert _subtree_identical(tree_parallel, scratch, target)
    assert tree.schedules == tree_parallel.schedules
    assert tree.parents == tree_parallel.parents
    assert tree.children == tree_parallel.children


def test_extend_for_is_idempotent():
    topology, generator = _generator(FMAX)
    tree = generator.generate()
    target = FailureScenario(
        nodes=frozenset(topology.controllers[: FMAX + 1]), links=frozenset()
    )
    generator.extend_for(tree, target)
    before = (dict(tree.schedules), dict(tree.parents))
    again = generator.extend_for(tree, target)
    assert again["added_modes"] == 0
    assert (dict(tree.schedules), dict(tree.parents)) == before


def _drift_system(seed=13):
    topology = erdos_renyi_topology(8, seed=seed)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(
        fmax=FMAX,
        d_max=4,
        rsa_bits=256,
        stabilize_enabled=True,
        audit_interval=4,
    )
    return ReboundSystem(topology, workload, config, seed=seed)


def _run_drift(system):
    """Crash fmax+1 controllers two rounds apart; every correct node must
    hold a schedule after every round (no halt)."""
    # fmax+1 crashes are out of the deployment's fault budget, so only the
    # hard/structural/stabilization invariants are armed (as in the
    # campaign's drift cells) -- inference may legitimately overflow.
    monitor = BTRMonitor(record_only=True, in_budget=False)
    system.attach_monitor(monitor)
    system.run(10)
    victims = sorted(system.correct_controllers())[: FMAX + 1]
    for i, victim in enumerate(victims):
        while system.round_no < 12 + 2 * i:
            system.run_round()
        system.inject_now(victim, CrashBehavior())
    for _ in range(24):
        system.run_round()
        for node_id in system.correct_controllers():
            assert system.nodes[node_id].current_schedule is not None, (
                f"node {node_id} lost its schedule at round {system.round_no}"
            )
    return monitor, set(victims)


def test_drift_beyond_fmax_refreshes_online():
    system = _drift_system()
    monitor, victims = _run_drift(system)
    assert system.tree_refreshes, "no online refresh despite > fmax drift"
    record = system.tree_refreshes[0]
    assert record["added_modes"] > 0
    assert record["elapsed_s"] >= 0
    assert record["holding_depth"] <= FMAX
    assert set(record["scenario_nodes"]) <= victims
    # The survivors converge on a mode excluding every crashed node.
    schedules = [
        system.nodes[n].current_schedule
        for n in system.correct_controllers()
    ]
    schedule = schedules[0]
    assert all(s == schedule for s in schedules)
    assert victims <= set(schedule.failed_nodes)
    # The adopted mode is a first-class generated entry, not a leftover
    # on-demand holding jump.
    tree = system.nodes[system.correct_controllers()[0]].mode_tree
    assert not any(
        len(scenario.nodes) > FMAX and set(scenario.nodes) <= victims
        for scenario in tree.ondemand
    )
    assert not monitor.violations
