"""The windows of :mod:`repro.core.bounds`: their values, and the edges of
the oracle's windows.

The table test pins every :class:`Bounds` field to its formula, written
out literally here, so a change that moves a window by one round fails.
The edge tests drive :class:`BTRMonitor` on a live system and check both
sides of each oracle window, reading the window from ``system.bounds``.
"""

import itertools
from dataclasses import fields

import pytest

from repro.chaos import BTRMonitor
from repro.core import ReboundConfig, ReboundSystem
from repro.core.bounds import Bounds
from repro.core.evidence import EquivocationPoM, heartbeat_body
from repro.net.topology import erdos_renyi_topology
from repro.sched.workload import WorkloadGenerator

_GRID = list(itertools.product(range(1, 7), (1, 4), (2, 20, 150)))


def _expected(d_max, audit_interval, n):
    return {
        "d_max": d_max,
        "n": n,
        "expiry_window": d_max + 2,
        "rule_b_horizon": d_max + 1,
        "rule_b_deferral": d_max + 2,
        "multi_fallback": d_max + 2,
        "rule_a_suspension": 2,
        "join_grace": 1,
        "rule_c_settle": 4,
        "probe": 2,
        "pom_lfd_slack": 2 * d_max + 6,
        "lfd_reissue_cooldown": 2 * d_max + 6 + 1,
        "record_quota": max(1, n) * (d_max + 3),
        "aggregate_quota": d_max + 3,
        "evidence_cap": 2 * n * n + 8 * n + 16,
        "heartbeat_store_cap": max(1, n) * (d_max + 3),
        "pending_audit_cap": 4 * d_max + 16,
        "grace": d_max + 2,
        "r_max": 2 * d_max + 4,
        "convergence_s": 2 * audit_interval + d_max + 2,
    }


@pytest.mark.parametrize("d_max,audit_interval,n", _GRID)
def test_every_window_keeps_its_value(d_max, audit_interval, n):
    config = ReboundConfig(d_max=d_max, audit_interval=audit_interval)
    bounds = Bounds.from_config(config, n)
    expected = _expected(d_max, audit_interval, n)
    assert {f.name for f in fields(Bounds)} == set(expected)
    for name, value in expected.items():
        assert getattr(bounds, name) == value, name


def test_unresolved_d_max_is_refused():
    with pytest.raises(ValueError):
        Bounds.from_config(ReboundConfig(), 4)


# -- the oracle's window edges -------------------------------------------------


def _system(stabilize=False, seed=11):
    topology = erdos_renyi_topology(6, seed=seed)
    workload = WorkloadGenerator(seed=seed, chain_length_range=(1, 2)).workload(
        target_utilization=1.5
    )
    config = ReboundConfig(
        fmax=2, d_max=4, variant="basic", rsa_bits=256,
        stabilize_enabled=stabilize,
    )
    return ReboundSystem(topology, workload, config, seed=seed)


def _run_to(system, round_no):
    while system.round_no < round_no:
        system.run_round()


def _of_kind(monitor, kind):
    return [v for v in monitor.violations if v.kind == kind]


def test_grace_excuses_an_accusation_up_to_its_last_round():
    """A node under ``note_grace`` may be accused through ``opened +
    grace``; the accusation is reported one round later."""
    system = _system()
    monitor = BTRMonitor(record_only=True)
    system.attach_monitor(monitor)
    system.run(3)
    observer, accused = system.topology.controllers[:2]
    opened = system.round_no
    monitor.note_grace(accused, opened)
    # A PoM against a correct node, held only by the observer.
    system.nodes[observer].forwarding.evidence.add(EquivocationPoM(
        accused=accused, body_a=heartbeat_body(1, 0), sig_a=b"a",
        body_b=heartbeat_body(1, 1), sig_b=b"b",
    ))
    grace = system.bounds.grace
    _run_to(system, opened + grace)
    assert _of_kind(monitor, "accuracy") == []
    system.run_round()
    (violation,) = _of_kind(monitor, "accuracy")
    assert violation.repro["round"] == opened + grace + 1
    assert violation.repro["condemned"] == [accused]


def test_recovery_timeout_fires_one_round_after_r_max():
    """An activation that never recovers is a Req. 2 violation at
    ``last_event + r_max + 1``, not at ``last_event + r_max``."""
    system = _system()
    monitor = BTRMonitor(record_only=True)
    system.attach_monitor(monitor)
    system.run(2)
    activated = system.round_no
    # Nothing ever blames node 999, so the activation stays undetected
    # and the system never counts as recovered.
    monitor._activations[("node", 999)] = activated
    r_max = system.bounds.r_max
    _run_to(system, activated + r_max)
    assert _of_kind(monitor, "recovery") == []
    system.run_round()
    (violation,) = _of_kind(monitor, "recovery")
    assert violation.repro["round"] == activated + r_max + 1
    assert violation.repro["r_max"] == r_max


class _DisagreeingTree:
    """A mode tree whose answer matches no node's mode."""

    def schedule_for(self, pattern):
        return object()


def test_structural_lookup_grace_is_the_convergence_bound():
    """With stabilization on, a node whose mode disagrees with its
    evidence's tree answer is excused for ``convergence_s - 1`` rounds
    after the first inconsistent round and reported at
    ``convergence_s``."""
    system = _system(stabilize=True)
    monitor = BTRMonitor(record_only=True)
    system.attach_monitor(monitor)
    system.run(3)
    # The nodes keep their own tree; only the oracle's lookup disagrees.
    system.mode_tree = _DisagreeingTree()
    system.run_round()
    first_bad = system.round_no
    bound = system.bounds.convergence_s
    _run_to(system, first_bad + bound - 1)
    assert _of_kind(monitor, "structural") == []
    system.run_round()
    violations = _of_kind(monitor, "structural")
    assert {v.repro["round"] for v in violations} == {first_bad + bound}
    assert {v.repro["observer"] for v in violations} == set(
        system.correct_controllers()
    )
