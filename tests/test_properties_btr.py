"""Property-based tests of the BTR requirements (paper S2.7).

Hypothesis draws random connected topologies, random workloads, and a
random adversary behaviour for a random victim; the properties assert, for
every drawn configuration:

* **Accuracy (Req. 3)** -- no correct controller ever enters any correct
  node's fault set;
* **Completeness + bounded detection (Req. 1/2)** -- observable faults are
  detected within a bound;
* **Bounded stabilization (Req. 4)** -- all correct controllers agree on
  the mode within a bound;
* **BTR end-to-end** -- converged placements exclude the faulty node, and
  the active flow set is the criticality-maximal feasible set.

These runs are intentionally small (Hypothesis example counts multiply a
full multi-round simulation), but each example exercises the entire stack.

The suites run with ``derandomize=True`` so CI is deterministic.  The
equivocation-storm accuracy gap these properties once had to dodge is
closed (epoch-aware Rule B attribution + PoM-explained LFD filtering; see
``tests/test_regression_equivocation.py`` for the pinned repro), so
equivocation draws are first-class here, including in the churn property's
seed corpus.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core import ReboundConfig, ReboundSystem
from repro.faults.adversary import (
    CrashBehavior,
    EquivocateBehavior,
    LFDStormBehavior,
    RandomOutputBehavior,
    SelectiveOmissionBehavior,
    SilenceBehavior,
)
from repro.net.topology import erdos_renyi_topology
from repro.sched.workload import WorkloadGenerator

BEHAVIOR_FACTORIES = [
    ("crash", CrashBehavior),
    ("silence", SilenceBehavior),
    ("random-output", lambda: RandomOutputBehavior(seed=11)),
    ("bogus-auditor", lambda: RandomOutputBehavior(seed=11, primaries_only=False)),
    ("equivocate", EquivocateBehavior),
    ("lfd-storm", LFDStormBehavior),
]

SETTLE_ROUNDS = 18


def _build_system(n: int, seed: int, variant: str):
    topology = erdos_renyi_topology(n, seed=seed)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(fmax=2, fconc=1, variant=variant, rsa_bits=256)
    system = ReboundSystem(topology, workload, config, seed=seed)
    system.run(10)
    return system


@settings(
    derandomize=True,
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=5, max_value=9),
    seed=st.integers(min_value=0, max_value=40),
    behavior_idx=st.integers(min_value=0, max_value=len(BEHAVIOR_FACTORIES) - 1),
    victim_idx=st.integers(min_value=0, max_value=100),
    variant=st.sampled_from(["basic", "multi"]),
)
def test_accuracy_under_random_adversaries(n, seed, behavior_idx, victim_idx, variant):
    """Req. 3: whatever one Byzantine node does, correct nodes stay clean."""
    system = _build_system(n, seed, variant)
    controllers = system.topology.controllers
    victim = controllers[victim_idx % len(controllers)]
    name, factory = BEHAVIOR_FACTORIES[behavior_idx]
    system.inject_now(victim, factory())
    system.run(SETTLE_ROUNDS)
    correct = set(system.correct_controllers())
    for node_id in correct:
        pattern = system.nodes[node_id].fault_pattern
        condemned_correct = pattern.nodes & correct
        assert not condemned_correct, (
            f"{name} on node {victim} (n={n}, seed={seed}, {variant}): "
            f"correct node(s) {condemned_correct} condemned"
        )


CHURN_BEHAVIORS = [
    ("crash", CrashBehavior),
    ("silence", SilenceBehavior),
    ("equivocate", EquivocateBehavior),
]


@settings(
    derandomize=True,
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=5, max_value=8),
    seed=st.integers(min_value=0, max_value=20),
    victim_idx=st.integers(min_value=0, max_value=100),
    first_idx=st.integers(min_value=0, max_value=len(CHURN_BEHAVIORS) - 1),
    second_idx=st.integers(min_value=0, max_value=len(CHURN_BEHAVIORS) - 1),
    variant=st.sampled_from(["basic", "multi"]),
)
# Seed corpus: the equivocation-storm churn cases that used to be excluded
# while the accuracy gap was open.  Equivocate twice on the er6/seed-0
# topology, and crash-then-equivocate (a blessing must absolve the past
# without blunting detection of a *different* future fault).
@example(n=6, seed=0, victim_idx=0, first_idx=2, second_idx=2, variant="multi")
@example(n=6, seed=0, victim_idx=0, first_idx=0, second_idx=2, variant="multi")
@example(n=6, seed=0, victim_idx=0, first_idx=2, second_idx=0, variant="basic")
def test_churn_repair_rebless_recompromise(
    n, seed, victim_idx, first_idx, second_idx, variant
):
    """Churn (paper S2.4): compromise -> repair+bless -> re-compromise.

    At *every* round of the whole lifecycle no correct node condemns
    another correct node (Req. 3); after the blessing the repaired node is
    re-admitted everywhere within the recovery bound; and a second
    compromise after the blessing is detected again (a blessing absolves
    the past, never the future)."""
    system = _build_system(n, seed, variant)
    controllers = system.topology.controllers
    victim = controllers[victim_idx % len(controllers)]
    first_name, first_factory = CHURN_BEHAVIORS[first_idx]
    second_name, second_factory = CHURN_BEHAVIORS[second_idx]

    def assert_accuracy(stage, exclude=frozenset()):
        correct = set(system.correct_controllers())
        for node_id in correct:
            condemned = (
                system.nodes[node_id].fault_pattern.nodes & correct - exclude
            )
            assert not condemned, (
                f"{stage} (n={n}, seed={seed}, {first_name}->{second_name}, "
                f"{variant}, r{system.round_no}): correct node(s) "
                f"{condemned} condemned at node {node_id}"
            )

    def run_checked(rounds, stage):
        for _ in range(rounds):
            system.run_round()
            assert_accuracy(stage)

    # Strike one.
    system.inject_now(victim, first_factory())
    run_checked(SETTLE_ROUNDS, "strike one")

    # Repair: the blessing must flood and re-admit the victim everywhere
    # within the recovery bound (2*d_max+4) plus the blessing's own flood
    # time (<= d_max rounds).
    system.repair_and_bless(victim)
    # Until the blessing floods (<= d_max rounds), remote nodes still hold
    # the pre-repair evidence and legitimately condemn the victim; Req. 3
    # applies to nodes that were never faulty, so the victim is excluded
    # from the accuracy check until re-admission completes.
    readmit_bound = 3 * system.config.d_max + 4
    for _ in range(readmit_bound):
        system.run_round()
        assert_accuracy("after blessing", exclude=frozenset({victim}))
        if all(
            victim not in system.nodes[node_id].fault_pattern.nodes
            for node_id in system.correct_controllers()
        ):
            break
    else:
        holdouts = [
            node_id
            for node_id in system.correct_controllers()
            if victim in system.nodes[node_id].fault_pattern.nodes
        ]
        raise AssertionError(
            f"blessed node {victim} not re-admitted within {readmit_bound} "
            f"rounds at nodes {holdouts}"
        )

    # Strike two: the blessing absolves the past, not the future.
    system.inject_now(victim, second_factory())
    run_checked(SETTLE_ROUNDS, "strike two")
    assert system.detected(), (
        f"re-compromise ({second_name}) after blessing went undetected"
    )


@settings(
    derandomize=True,
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=5, max_value=9),
    seed=st.integers(min_value=0, max_value=40),
    victim_idx=st.integers(min_value=0, max_value=100),
    variant=st.sampled_from(["basic", "multi"]),
)
def test_crash_detected_and_recovered_within_bound(n, seed, victim_idx, variant):
    """Req. 1/2/4 + BTR for the crash fault on random systems."""
    system = _build_system(n, seed, variant)
    controllers = system.topology.controllers
    victim = controllers[victim_idx % len(controllers)]
    system.inject_now(victim, CrashBehavior())
    detection_round = None
    for _ in range(SETTLE_ROUNDS):
        system.run_round()
        if detection_round is None and system.detected():
            detection_round = system.round_no
    assert detection_round is not None, "crash never detected"
    assert detection_round - system.fault_rounds[0] <= 3, "detection not bounded"
    assert system.converged(), "faulty node still hosts tasks"
    assert system.schedules_agree(), "correct nodes disagree on the mode"


@settings(
    derandomize=True,
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=5, max_value=8),
    seed=st.integers(min_value=0, max_value=30),
    victim_idx=st.integers(min_value=0, max_value=100),
)
def test_commission_fault_condemned_by_pom(n, seed, victim_idx):
    """A stealthy commission fault is condemned by verifiable evidence
    naming the culprit (not just link suspicions), whenever the victim
    actually hosts a primary task."""
    from repro.core.evidence import BadComputationPoM, StateChainPoM

    system = _build_system(n, seed, "multi")
    controllers = system.topology.controllers
    victim = controllers[victim_idx % len(controllers)]
    # The fault must be *observable* (paper Req. 1 explicitly excludes
    # faults with no visible effects): the victim must run a primary whose
    # output some correct consumer actually receives.
    observable = any(
        system.workload.flows_by_criticality()
        and system.workload.flow_of(task_id).downstream_of(task_id)
        for task_id in system.nodes[victim].auditing.primaries
    )
    if not observable:
        return  # corrupting an output nobody consumes is unobservable
    system.inject_now(victim, RandomOutputBehavior(seed=5))
    system.run(SETTLE_ROUNDS)
    accusations = set()
    for node_id in system.correct_controllers():
        for item in system.nodes[node_id].evidence.items():
            if isinstance(item, (BadComputationPoM, StateChainPoM)):
                accusations.add(item.accused)
    assert accusations <= {victim}, f"PoM accused non-victims: {accusations}"
    assert system.converged()


@settings(
    derandomize=True,
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=5, max_value=8),
    seed=st.integers(min_value=0, max_value=30),
    data=st.data(),
)
def test_link_fault_never_condemns_endpoints(n, seed, data):
    """Cutting a physical link may kill the link, never its endpoints."""
    system = _build_system(n, seed, "multi")
    links = sorted(tuple(sorted(l)) for l in system.topology.p2p_links)
    link = data.draw(st.sampled_from(links))
    system.cut_link_now(*link)
    system.run(SETTLE_ROUNDS)
    for node_id in system.correct_controllers():
        pattern = system.nodes[node_id].fault_pattern
        assert link[0] not in pattern.nodes
        assert link[1] not in pattern.nodes


@settings(
    derandomize=True,
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=6, max_value=9),
    seed=st.integers(min_value=0, max_value=30),
    victim_idx=st.integers(min_value=0, max_value=100),
)
def test_active_flows_maximal_by_criticality(n, seed, victim_idx):
    """After recovery, the active set equals the schedule the tree holds
    for the true scenario -- i.e. the criticality-greedy maximal set."""
    system = _build_system(n, seed, "multi")
    controllers = system.topology.controllers
    victim = controllers[victim_idx % len(controllers)]
    system.inject_now(victim, CrashBehavior())
    system.run(SETTLE_ROUNDS)
    if not system.converged():
        return  # pathological draw; covered by the recovery property above
    target = system.target_schedule()
    for node_id in system.correct_controllers():
        schedule = system.nodes[node_id].current_schedule
        assert schedule.active_flows == target.active_flows
        # The drop order respects criticality: no dropped flow is more
        # critical than every active flow.
        if schedule.active_flows and schedule.dropped_flows:
            min_active = min(
                system.workload.flows[f].criticality
                for f in schedule.active_flows
            )
            for dropped in schedule.dropped_flows:
                flow = system.workload.flows[dropped]
                # A more-critical flow may only be dropped for
                # connectivity reasons, which a crash of one controller on
                # a connected ER graph does not cause.
                assert flow.criticality <= min_active or len(
                    schedule.active_flows
                ) == len(system.workload.flows) - 1


@settings(
    derandomize=True,
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    n=st.integers(min_value=5, max_value=8),
    seed=st.integers(min_value=0, max_value=30),
    victim_idx=st.integers(min_value=0, max_value=100),
    kind_idx=st.integers(min_value=0, max_value=100),
)
# Seed corpus: the epoch-desync draw that once triggered the Rule B
# coverage cascade (digest-mismatched aggregates skipped both ways ->
# latched shortfalls -> bidirectional LFDs), closed by the resync's
# operator-absolution escalation.
@example(n=6, seed=11, victim_idx=0, kind_idx=1)
def test_transient_corruption_converges_within_audit_bound(
    n, seed, victim_idx, kind_idx
):
    """Req-S (PROTOCOL.md S16): a single-field transient corruption of a
    *correct* node's in-RAM state converges back to quorum consistency
    within ``Bounds.convergence_s`` rounds -- via the
    auditor's resync or by natural overwrite, either way ending in a clean
    audit tick -- and no correct node (the victim included) is ever
    condemned by any correct node's fault pattern."""
    from repro.chaos.corruption import CORRUPTIONS

    topology = erdos_renyi_topology(n, seed=seed)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(
        fmax=2,
        fconc=1,
        rsa_bits=256,
        stabilize_enabled=True,
        audit_interval=4,
    )
    system = ReboundSystem(topology, workload, config, seed=seed)
    system.run(10)
    controllers = system.topology.controllers
    victim = controllers[victim_idx % len(controllers)]
    kinds = sorted(CORRUPTIONS)
    kind = kinds[kind_idx % len(kinds)]
    system.corrupt_now(victim, CORRUPTIONS[kind](seed=seed))
    corrupt_round = system.round_no
    bound = system.bounds.convergence_s
    correct = set(system.correct_controllers())
    for _ in range(bound + 6):
        system.run_round()
        for node_id in correct:
            condemned = system.nodes[node_id].fault_pattern.nodes & correct
            assert not condemned, (
                f"{kind} on node {victim} (n={n}, seed={seed}, "
                f"r{system.round_no}): correct node(s) {sorted(condemned)} "
                f"condemned at node {node_id}"
            )
    audits = system.auditors[victim].audits
    assert any(
        corrupt_round < tick <= corrupt_round + bound and not outstanding
        for tick, outstanding in audits
    ), f"{kind} on node {victim}: no clean audit tick within {bound} rounds"
