"""Admission control and memory bounds for the evidence layer.

An adversary holding valid keys can manufacture unlimited *validly signed*
material: heartbeat records for every round in the window, LFDs about its
own links with arbitrary declared rounds, self-incriminating equivocation
PoMs.  Without admission control each item costs a correct node a signature
verification and a store slot, so the adversary controls both per-round CPU
and resident memory.  This module derives, from the topology alone, how
much of each message kind a *correct* node could legitimately originate in
one round; anything beyond that is dropped before signature verification
(the forwarding layer records an ``EV_QUOTA_DROP`` flight event).

Degradation policy: a sender that ever trips a quota becomes a *suspect*
and is served from a reduced budget from then on -- except that each round
one suspect (rotating round-robin by round number) regains the full budget,
so a falsely suspected correct node is never starved and the Req. 1/2
liveness bounds survive a sustained flood.

The caps below bound correct-node state independently of adversary send
rate: the bounded :class:`~repro.core.evidence.EvidenceSet` keeps at most
two items per (link, issuer) / (kind, accused) bucket, the heartbeat store
is windowed, and the auditing layer's pending challenge buffers are capped
per replica.  All bounds are O(n^2 * d_max) or better.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.net.topology import Topology

# A suspect sender's per-kind budget is its full cap divided by this,
# except for the round's favored suspect (round-robin), which keeps the
# full cap.
_SUSPECT_DIVISOR = 8


def pom_lfd_slack(d_max: int) -> int:
    """Rounds after a commission PoM's accusation round during which an LFD
    is *explained* by that PoM (see EvidenceSet.failure_pattern): conflict
    propagation (d_max) plus the Rule B deferral window (d_max + 2) plus
    margin.  A pure function of the shared d_max, so every node -- devices
    included -- derives the same pattern from the same evidence."""
    return 2 * d_max + 6


def record_quota(n: int, d_max: int) -> int:
    """Max individual heartbeat records a correct node sends in one round:
    one per (origin, round) slot inside the expiry window, during the
    worst-case catch-up flood after instability."""
    return max(1, n) * (d_max + 3)


def aggregate_quota(d_max: int) -> int:
    """Max aggregate heartbeats per round: one per origin round alive in
    the window."""
    return d_max + 3


def evidence_item_cap(n: int, d_max: int) -> int:
    """Hard cap on attributable items in a bounded evidence store.

    Two LFDs per (link, issuer) is at most 2 * 2 * n(n-1)/2, plus two PoMs
    per (kind, accused, task); the constant term absorbs small deployments.
    Deliberately generous -- the bucket policy keeps the real count far
    lower -- but O(n^2), independent of adversary send rate, and well under
    the issue's O(n^2 * d_max) ceiling.
    """
    return 2 * n * n + 8 * n + 16


def heartbeat_record_cap(n: int, d_max: int) -> int:
    """Max records a windowed heartbeat store retains: every origin for
    every round in [r - window, r] with window = d_max + 2."""
    return max(1, n) * (d_max + 3)


def pending_audit_cap(d_max: int) -> int:
    """Max buffered bundles (and auth/xrep rounds) per hosted replica.

    An honest primary streams bundles in round order and the audit loop
    drains them after a path-latency wait, so the honest backlog is a few
    rounds; a gap means the primary misbehaved and rounds far beyond the
    gap will never be audited anyway."""
    return 4 * d_max + 16


class AdmissionQuotas:
    """Per-(sender, kind, round) verification-budget accounting for one
    receiving node.  Purely local: no cross-node agreement is needed, so
    each node may hold a different suspect set."""

    def __init__(self, n: int, d_max: int):
        self.n = n
        self.d_max = d_max
        self.caps: Dict[str, int] = {
            "records": record_quota(n, d_max),
            "aggregates": aggregate_quota(d_max),
            "evidence": evidence_item_cap(n, d_max),
        }
        self.suspects: Set[int] = set()
        self._round = 0
        self._favored: Optional[int] = None
        self._used: Dict[Tuple[int, str], int] = {}
        self._dropped: Set[Tuple[int, str]] = set()
        self.total_charged = 0
        self.total_dropped = 0

    @classmethod
    def from_topology(cls, topology: Topology, d_max: int) -> "AdmissionQuotas":
        n = len(topology.controllers)
        return cls(n=n, d_max=d_max)

    def begin_round(self, round_no: int) -> None:
        self._round = round_no
        self._used = {}
        self._dropped = set()
        self._refresh_favored()

    def _refresh_favored(self) -> None:
        if self.suspects:
            ordered = sorted(self.suspects)
            self._favored = ordered[self._round % len(ordered)]
        else:
            self._favored = None

    def cap_for(self, sender: int, kind: str) -> int:
        cap = self.caps[kind]
        if sender in self.suspects and sender != self._favored:
            return max(1, cap // _SUSPECT_DIVISOR)
        return cap

    def charge(self, sender: int, kind: str) -> Tuple[bool, bool]:
        """Charge one verification for (sender, kind); returns
        (allowed, first_drop_this_round)."""
        key = (sender, kind)
        used = self._used.get(key, 0)
        if used < self.cap_for(sender, kind):
            self._used[key] = used + 1
            self.total_charged += 1
            return True, False
        first = key not in self._dropped
        self._dropped.add(key)
        if sender not in self.suspects:
            self.suspects.add(sender)
            self._refresh_favored()
        self.total_dropped += 1
        return False, first

    # -- self-stabilization hooks (docs/PROTOCOL.md section 16) ------------------

    def ledger_issues(self, controllers) -> list:
        """Internal-consistency violations of this ledger, as short tags.

        Every field is recomputable from (n, d_max, topology) or bounded by
        construction, so a transiently corrupted ledger is detectable
        without any cross-node traffic."""
        issues = []
        expected = {
            "records": record_quota(self.n, self.d_max),
            "aggregates": aggregate_quota(self.d_max),
            "evidence": evidence_item_cap(self.n, self.d_max),
        }
        if self.caps != expected:
            issues.append("caps")
        if self.total_charged < 0 or self.total_dropped < 0:
            issues.append("counters")
        if not self.suspects <= set(controllers):
            issues.append("suspects")
        if any(used < 0 for used in self._used.values()):
            issues.append("used")
        return issues

    def reset_ledger(self, controllers) -> None:
        """Rebuild every derivable field in place, keeping only the
        plausible part of the suspect set (suspicion is local state that
        cannot be recovered from quorum; dropping it only restores budget
        to senders, which is safe)."""
        self.caps = {
            "records": record_quota(self.n, self.d_max),
            "aggregates": aggregate_quota(self.d_max),
            "evidence": evidence_item_cap(self.n, self.d_max),
        }
        self.suspects &= set(controllers)
        self.total_charged = max(0, self.total_charged)
        self.total_dropped = max(0, self.total_dropped)
        self._used = {}
        self._dropped = set()
        self._refresh_favored()

