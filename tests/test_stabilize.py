"""Self-stabilization under transient state corruption (PROTOCOL.md §16).

The Req-S contract: a single-field in-RAM corruption of a *correct* node
(evidence key bit flip, epoch-digest desync, mode-pointer scramble, quota
ledger garbage) is detected by the periodic :class:`StateAuditor` and the
node converges back to quorum consistency within
``Bounds.convergence_s`` rounds, without any correct
node -- the victim included -- ever being condemned.  These runs use a
**raising** :class:`BTRMonitor`, so every Req. 1/2/3 invariant is armed
throughout; a grace-window bug or resync-triggered accusation fails the
test by exception, not just by assertion.

Also pinned here: stabilization disabled-vs-enabled transcript identity
(the audit pass is observation-only when nothing is corrupted), the
durable verified-prefix replay during resync, and the monitor's shared
accusation-grace bookkeeping (``note_repair``/``note_resync``).
"""

import pytest

from repro.analysis.metrics import transcript_entry
from repro.core.evidence import evidence_digest
from repro.chaos import BTRMonitor, CORRUPTIONS
from repro.core import ReboundConfig, ReboundSystem
from repro.core.bounds import Bounds
from repro.faults.adversary import CrashBehavior, EquivocateBehavior
from repro.net.topology import erdos_renyi_topology
from repro.sched.workload import WorkloadGenerator
from repro.stabilize import StateAuditor


def _system(seed=11, stabilize=True, audit_interval=4, **kwargs):
    topology = erdos_renyi_topology(6, seed=seed)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(
        fmax=2,
        d_max=4,
        rsa_bits=256,
        stabilize_enabled=stabilize,
        audit_interval=audit_interval,
        **kwargs,
    )
    return ReboundSystem(topology, workload, config, seed=seed)


# -- Req-S convergence -------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corruption_converges_within_bound(kind):
    """Each corruption kind: detected, resolved within the bound, and no
    correct node condemned -- under a raising monitor the whole run."""
    system = _system()
    monitor = BTRMonitor()  # raising: any violation is an exception
    system.attach_monitor(monitor)
    system.inject_now(5, CrashBehavior())
    system.run(12)
    system.corrupt_now(0, CORRUPTIONS[kind](seed=7))
    assert system.transient_corruptions[-1]["kind"] == kind
    corrupt_round = system.round_no
    bound = system.bounds.convergence_s
    auditor = system.auditors[0]
    system.run(bound + 12)
    assert auditor.divergences, f"{kind}: corruption never detected"
    last = auditor.divergences[-1]
    assert last["resolved_round"] is not None, f"{kind}: never resolved"
    assert last["resolved_round"] - corrupt_round <= bound
    correct = set(system.correct_controllers())
    for node_id in correct:
        pattern = system.nodes[node_id].fault_pattern
        assert not pattern.nodes & correct, (
            f"{kind}: node {node_id} condemns correct "
            f"{sorted(pattern.nodes & correct)}"
        )


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corruption_breaks_a_local_invariant(kind):
    """Sanity: each corruption actually damages the audited field -- the
    auditor's local invariants flag it immediately after application."""
    system = _system()
    system.inject_now(5, CrashBehavior())  # populate the evidence store
    system.run(12)
    auditor = system.auditors[0]
    assert auditor.local_issues() == []
    system.corrupt_now(0, CORRUPTIONS[kind](seed=3))
    assert auditor.local_issues(), f"{kind} applied but no invariant broke"


def test_convergence_bound_formula():
    for audit_interval, d_max in ((4, 4), (1, 2)):
        config = ReboundConfig(d_max=d_max, audit_interval=audit_interval)
        bound = Bounds.from_config(config, n=6).convergence_s
        assert bound == 2 * audit_interval + d_max + 2


def test_stabilize_disabled_no_auditors():
    system = _system(stabilize=False)
    assert system.auditors == {}
    system.run(6)
    assert all(
        n.current_schedule is not None
        for n in (system.nodes[c] for c in system.correct_controllers())
    )


# -- observation-only: transcript identity -----------------------------------


def _transcript(stabilize: bool) -> str:
    system = _system(seed=5, stabilize=stabilize, audit_interval=3)
    system.inject_now(4, CrashBehavior())
    entries = []
    for _ in range(8):
        system.run_round()
        entries.append(transcript_entry(system))
    system.inject_now(5, EquivocateBehavior())
    for _ in range(18):
        system.run_round()
        entries.append(transcript_entry(system))
    return repr(entries)


def test_transcript_identical_with_stabilization_enabled():
    """With no corruption, the audit pass is pure observation: per-round
    transcripts are byte-identical on vs off, even across two real
    Byzantine faults."""
    assert _transcript(True) == _transcript(False)


def test_commission_pom_still_flooding_is_not_evidence_lag():
    """A BadComputationPoM is minted after an auditing delay: here it
    accuses round 9 but a correct controller first holds it at round 14.
    At the round-16 audit it is still flooding, so a correct node that
    lacks it has not dropped a flood -- no evidence-lag, no resync, no
    operator blessing."""
    from repro.core.blessing import Blessing
    from repro.core.evidence import BadComputationPoM
    from repro.faults.adversary import RandomOutputBehavior

    seed, victim = 5, 8
    workload = WorkloadGenerator(seed=seed, chain_length_range=(2, 3)).workload(
        target_utilization=2.0
    )
    config = ReboundConfig(fmax=1, fconc=1, rsa_bits=256, stabilize_enabled=True)
    system = ReboundSystem(
        erdos_renyi_topology(10, seed=seed), workload, config, seed=seed
    )
    system.run(8)
    system.inject_now(victim, RandomOutputBehavior(seed=seed))
    system.run(24)
    items = [
        item
        for node in system.correct_controllers()
        for item in system.nodes[node].forwarding.evidence.items()
    ]
    poms = {item for item in items if isinstance(item, BadComputationPoM)}
    assert poms and all(pom.accused == victim for pom in poms)
    assert [a.divergences for a in system.auditors.values()] == [
        [] for _ in system.auditors
    ]
    assert not any(isinstance(item, Blessing) for item in items)
    # The premise: the PoM entered the system well after the round it accuses.
    first = min(poms, key=lambda pom: pom.round_no)
    assert system.evidence_first_held[evidence_digest(first)] - first.round_no > 2


# -- durable verified-prefix replay ------------------------------------------


class _WildPointerLoss:
    """A custom corruption via the ``corrupt_now`` extension point: the
    evidence store forgets everything it admitted (total in-RAM loss, the
    case where the durable prefix is the only local recovery source)."""

    name = "wild-pointer-loss"

    def apply(self, system, node_id):
        store = system.nodes[node_id].forwarding.evidence
        store.digest()  # materialize the digest memo before the damage
        dropped = len(store._items)
        store._items.clear()
        return {"target": "evidence", "dropped": dropped}


def test_resync_replays_durable_verified_prefix(tmp_path):
    """In-RAM evidence loss is recovered from the node's own HMAC-chained
    durable log first: the resync's ``replayed`` count restores items the
    quorum merge alone would also supply, but from local trusted history."""
    system = _system(
        durability_enabled=True, durability_dir=str(tmp_path)
    )
    monitor = BTRMonitor()
    system.attach_monitor(monitor)
    system.inject_now(5, CrashBehavior())
    system.run(12)
    assert len(system.nodes[0].forwarding.evidence) > 0
    system.corrupt_now(0, _WildPointerLoss())
    assert system.transient_corruptions[-1]["dropped"] > 0
    system.run(system.bounds.convergence_s + 8)
    auditor = system.auditors[0]
    assert auditor.divergences
    last = auditor.divergences[-1]
    assert last["resolved_round"] is not None
    assert last["replayed"] > 0, "durable prefix contributed nothing"
    system.close()


# -- monitor grace bookkeeping ------------------------------------------------


class _FakeSystem:
    def __init__(self, round_no):
        self.round_no = round_no


def test_note_repair_registers_fresh_activation_and_grace():
    monitor = BTRMonitor()
    monitor._known_faulty.add(3)
    monitor.note_repair(3, 10)
    assert monitor._activations[("repair", (3, 10))] == 10
    # An operator repair is visible to the operator: Req. 1 never waits on it.
    assert monitor._undetected() == []
    # Forgetting the node lets a later re-compromise register anew.
    assert 3 not in monitor._known_faulty
    assert monitor._graces[3] == 10
    # The shared window covers d_max + 2 rounds, then expires.
    grace = Bounds.from_config(ReboundConfig(d_max=4), n=6).grace
    assert monitor._in_grace(_FakeSystem(10 + 4 + 2), grace) == {3}
    assert monitor._in_grace(_FakeSystem(10 + 4 + 3), grace) == set()


def test_note_resync_opens_grace_without_activation():
    monitor = BTRMonitor()
    before = dict(monitor._activations)
    monitor.note_resync(2, 7)
    # Not a fault event: no Req. 2 window reopens.
    assert monitor._activations == before
    assert monitor._in_grace(_FakeSystem(7 + 1), grace=4 + 2) == {2}


def test_resync_clears_pending_coverage_suspicions():
    """Suspicions the victim raised while corrupted are about a window it
    could not observe soundly -- the resync drops them instead of letting
    them mature into LFDs against innocent peers."""
    system = _system()
    system.run(8)
    fwd = system.nodes[0].forwarding
    fwd._pending_rule_b[3] = (system.round_no, 0)
    auditor = system.auditors[0]
    record = {
        "node": 0, "detected_round": system.round_no, "issues": ["x"],
        "resynced_round": None, "resolved_round": None,
        "repaired": 0, "merged": 0, "replayed": 0,
    }
    auditor._resync(system.round_no, record)
    assert fwd._pending_rule_b == {}
