"""Tests for the evidence-layer admission-control and memory-bound layer.

Covers the quota caps :class:`~repro.core.bounds.Bounds` derives, the
per-(sender, kind, round) accounting with
its suspect-degradation / round-robin-favor policy, the EvidenceSet's bucket
eviction (and its pattern equivalence), and the auditing layer's pending
challenge caps.  That no quota fires without an adversary is pinned on the
golden cells (``tests/test_golden_cells.py``).
"""

import copy

from hypothesis import given, settings, strategies as st

from repro.core import evidence
from repro.core.bounds import Bounds
from repro.core.config import ReboundConfig
from repro.core.evidence import (
    EquivocationPoM,
    EvidenceSet,
    LFD,
    heartbeat_body,
)
from repro.core.quotas import AdmissionQuotas
from repro.net.topology import grid_topology


def _bounds(n, d_max):
    return Bounds.from_config(ReboundConfig(d_max=d_max), n)


class TestCapFormulas:
    def test_caps_positive_and_monotone(self):
        for n in (1, 5, 20):
            for d_max in (2, 5, 10):
                b = _bounds(n, d_max)
                assert b.record_quota >= 1
                assert b.aggregate_quota >= 1
                assert b.evidence_cap >= 1
                assert b.heartbeat_store_cap >= 1
                assert b.pending_audit_cap >= 1
        assert _bounds(20, 5).record_quota > _bounds(5, 5).record_quota
        assert _bounds(5, 10).record_quota > _bounds(5, 5).record_quota
        assert _bounds(20, 5).evidence_cap > _bounds(5, 5).evidence_cap

    def test_pom_lfd_slack_formula(self):
        # Devices and controllers must derive identical patterns, so the
        # slack is a pure function of the shared d_max.
        assert _bounds(5, 5).pom_lfd_slack == 16
        assert _bounds(5, 10).pom_lfd_slack == 26

    def test_evidence_cap_is_quadratic_not_rate_dependent(self):
        # O(n^2) state bound, independent of adversary send rate.
        n = 20
        assert _bounds(n, 10).evidence_cap <= 2 * n * n + 8 * n + 16
        assert _bounds(n, 10).evidence_cap == _bounds(n, 1).evidence_cap


class TestAdmissionQuotas:
    def _quotas(self, n=6, d_max=4):
        q = AdmissionQuotas(_bounds(n, d_max))
        q.begin_round(1)
        return q

    def test_within_cap_allowed(self):
        q = self._quotas()
        allowed, first = q.charge(3, "aggregates")
        assert allowed and not first
        assert q.total_charged == 1
        assert q.total_dropped == 0

    def test_exceeding_cap_drops_and_marks_suspect(self):
        q = self._quotas()
        cap = q.caps["aggregates"]
        for _ in range(cap):
            assert q.charge(3, "aggregates") == (True, False)
        assert q.charge(3, "aggregates") == (False, True)  # first drop
        assert q.charge(3, "aggregates") == (False, False)  # subsequent
        assert 3 in q.suspects
        assert q.total_dropped == 2

    def test_kinds_accounted_separately(self):
        q = self._quotas()
        cap = q.caps["aggregates"]
        for _ in range(cap + 1):
            q.charge(3, "aggregates")
        # Exhausting one kind must not consume another kind's budget.
        assert q.charge(3, "records")[0]

    def test_suspect_degraded_next_round_unless_favored(self):
        q = self._quotas()
        cap = q.caps["records"]
        for _ in range(cap + 1):
            q.charge(3, "records")
        for _ in range(cap + 1):
            q.charge(4, "records")
        assert q.suspects == {3, 4}
        q.begin_round(2)
        favored = q._favored
        other = ({3, 4} - {favored}).pop()
        assert q.cap_for(favored, "records") == cap
        assert q.cap_for(other, "records") == max(1, cap // 8)
        # Non-suspects always keep the full budget.
        assert q.cap_for(0, "records") == cap

    def test_favor_rotates_round_robin(self):
        q = self._quotas()
        q.suspects = {3, 4}
        seen = set()
        for r in (2, 3, 4, 5):
            q.begin_round(r)
            seen.add(q._favored)
        # Both suspects are favored over consecutive rounds: no starvation.
        assert seen == {3, 4}

    def test_budget_resets_each_round(self):
        q = self._quotas()
        cap = q.caps["aggregates"]
        for _ in range(cap + 1):
            q.charge(5, "aggregates")
        q.begin_round(2)
        q.begin_round(3)  # whichever round favors suspect 5
        assert q.charge(5, "aggregates")[0] in (True, False)
        # As the only suspect, 5 is always the favored one: full budget.
        assert q.cap_for(5, "aggregates") == cap

    def test_from_topology_uses_controller_count(self):
        topology = grid_topology(3, 3)
        n = len(topology.controllers)
        q = AdmissionQuotas(_bounds(n, 4))
        assert q.caps["records"] == n * (4 + 3)
        assert q.caps["evidence"] == 2 * n * n + 8 * n + 16

    def test_ledger_compares_the_mutable_caps_with_the_bounds(self):
        """Corrupted caps are reported and rebuilt from the frozen
        bounds, which the corruption cannot reach."""
        q = self._quotas()
        frozen = dict(q.caps)
        q.caps["records"] = 1
        assert q.ledger_issues(range(6)) == ["caps"]
        q.reset_ledger(range(6))
        assert q.caps == frozen
        assert q.ledger_issues(range(6)) == []

    def test_telemetry_counters_advance(self):
        q = self._quotas()
        q.charge(1, "records")
        assert (q.total_charged, q.total_dropped) == (1, 0)


_KINDS = ("records", "aggregates", "evidence")


def _ledger(q):
    return (dict(q._used), set(q._dropped), set(q.suspects), q._favored,
            q.total_charged, q.total_dropped)


@settings(max_examples=150, deadline=None)
@given(
    cap=st.integers(1, 9),
    suspects=st.sets(st.integers(0, 5), max_size=3),
    round_no=st.integers(1, 7),
    before=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(_KINDS),
                              st.integers(0, 12)), max_size=6),
    sender=st.integers(0, 5),
    kind=st.sampled_from(_KINDS),
    count=st.integers(0, 20),
)
def test_one_counted_charge_equals_that_many_unit_charges(
    cap, suspects, round_no, before, sender, kind, count
):
    """From any ledger state, ``charge(..., count=k)`` admits the prefix k
    unit charges admit and leaves the same ledger, and reports a first
    drop exactly when one of the unit charges does (so at most one
    EV_QUOTA_DROP per (sender, kind) and round)."""
    q = AdmissionQuotas(_bounds(6, 4))
    q.caps = dict.fromkeys(_KINDS, cap)
    q.suspects = set(suspects)
    q.begin_round(round_no)
    for s, k, n in before:
        for _ in range(n):
            q.charge(s, k)
    units, counted = q, copy.deepcopy(q)
    unit_results = [units.charge(sender, kind) for _ in range(count)]
    admitted, first = counted.charge(sender, kind, count)
    assert [bool(ok) for ok, _first in unit_results] == (
        [True] * admitted + [False] * (count - admitted)
    )
    assert [f for _ok, f in unit_results].count(True) == int(first)
    assert _ledger(counted) == _ledger(units)


class TestBoundedEvidenceSet:
    def _lfd(self, a, b, declared, issuer=None):
        return LFD(a=a, b=b, declared_round=declared,
                   issuer=issuer if issuer is not None else a,
                   signature=b"s%d" % declared)

    def test_bucket_keeps_two_extremes_per_link_issuer(self):
        es = EvidenceSet()
        for r in (5, 1, 3, 9, 7):
            es.add(self._lfd(0, 1, r))
        kept = sorted(item.declared_round for item in es.items())
        assert kept == [1, 9]  # min and max accusation rounds survive
        assert es.evictions > 0

    def test_dominated_item_refused(self):
        es = EvidenceSet()
        assert es.add(self._lfd(0, 1, 1))
        assert es.add(self._lfd(0, 1, 9))
        assert not es.add(self._lfd(0, 1, 5))  # between the extremes
        assert len(es) == 2

    def test_distinct_buckets_do_not_interfere(self):
        es = EvidenceSet()
        for r in range(6):
            es.add(self._lfd(0, 1, r, issuer=0))
            es.add(self._lfd(0, 1, r, issuer=1))
            es.add(self._lfd(2, 3, r, issuer=2))
        # Two kept per (link, issuer) bucket across three buckets.
        assert len(es) == 6

    def test_pattern_equivalent_to_unbounded_under_flood(self, monkeypatch):
        """The kept extremes must derive the same failure pattern as the
        full flood would (that is the whole point of the bucket policy).
        The reference keeps every item: buckets too large to ever evict."""
        flood = [
            lfd
            for r in range(40)
            for lfd in (self._lfd(0, 1, r), self._lfd(0, 2, r, issuer=2))
        ]
        flood.append(EquivocationPoM(
            accused=5, body_a=heartbeat_body(4, 0), sig_a=b"a",
            body_b=heartbeat_body(4, 1), sig_b=b"b",
        ))
        bounded, unbounded = EvidenceSet(), EvidenceSet()
        for item in flood:
            bounded.add(item)
        monkeypatch.setattr(evidence, "_BUCKET_KEEP", 10**6)
        for item in flood:
            unbounded.add(item)
        assert unbounded.evictions == 0
        for fmax in (1, 2):
            pb = bounded.failure_pattern(fmax=fmax)
            pu = unbounded.failure_pattern(fmax=fmax)
            assert pb.nodes == pu.nodes
            assert pb.links == pu.links
        assert len(bounded) < len(unbounded)


class TestPendingAuditCap:
    def _layer(self, cap):
        from repro.core.auditing import AuditingLayer

        layer = AuditingLayer.__new__(AuditingLayer)
        layer.pending_cap = cap
        layer.pending_drops = 0
        return layer

    def _replica(self, next_audit_round):
        import types

        return types.SimpleNamespace(next_audit_round=next_audit_round)

    def test_window_rejects_stale_and_far_future(self):
        layer = self._layer(8)
        replica = self._replica(10)
        assert not layer._admit_pending(replica, 7, {})  # < next - 2
        assert not layer._admit_pending(replica, 18, {})  # >= next + cap
        assert layer._admit_pending(replica, 8, {})
        assert layer._admit_pending(replica, 17, {})
        assert layer.pending_drops == 2

    def test_buffer_size_cap(self):
        layer = self._layer(4)
        replica = self._replica(10)
        buffer = {r: object() for r in (10, 11, 12, 13)}
        assert not layer._admit_pending(replica, 9, buffer)  # full, new round
        assert layer._admit_pending(replica, 11, buffer)  # existing round ok
        assert layer.pending_drops == 1
