"""Admission control and memory bounds for the evidence layer.

An adversary holding valid keys can manufacture unlimited *validly signed*
material: heartbeat records for every round in the window, LFDs about its
own links with arbitrary declared rounds, self-incriminating equivocation
PoMs.  Without admission control each item costs a correct node a signature
verification and a store slot, so the adversary controls both per-round CPU
and resident memory.  This module charges each sender against how much of
each message kind a *correct* node could legitimately originate in one
round; anything beyond that is dropped before signature verification
(the forwarding layer records an ``EV_QUOTA_DROP`` flight event).

Degradation policy: a sender that ever trips a quota becomes a *suspect*
and is served from a reduced budget from then on -- except that each round
one suspect (rotating round-robin by round number) regains the full budget,
so a falsely suspected correct node is never starved and the Req. 1/2
liveness bounds survive a sustained flood.

The caps (:class:`~repro.core.bounds.Bounds`) bound correct-node state
independently of adversary send rate: the bounded EvidenceSet keeps at most
two items per (link, issuer) / (kind, accused) bucket, the heartbeat store
is windowed, and the auditing layer's pending challenge buffers are capped
per replica.  All bounds are O(n^2 * d_max) or better.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.core.bounds import Bounds

# A suspect sender's per-kind budget is its full cap divided by this,
# except for the round's favored suspect (round-robin), which keeps the
# full cap.
_SUSPECT_DIVISOR = 8


class AdmissionQuotas:
    """Per-(sender, kind, round) verification-budget accounting for one
    receiving node.  Purely local: no cross-node agreement is needed, so
    each node may hold a different suspect set."""

    def __init__(self, bounds: Bounds):
        self.bounds = bounds
        #: The mutable working copy of the caps (a transient corruption
        #: lands here; ``ledger_issues`` compares it against ``bounds``).
        self.caps: Dict[str, int] = self._derived_caps()
        self.suspects: Set[int] = set()
        self._round = 0
        self._favored: Optional[int] = None
        self._used: Dict[Tuple[int, str], int] = {}
        self._dropped: Set[Tuple[int, str]] = set()
        self.total_charged = 0
        self.total_dropped = 0

    def _derived_caps(self) -> Dict[str, int]:
        return {
            "records": self.bounds.record_quota,
            "aggregates": self.bounds.aggregate_quota,
            "evidence": self.bounds.evidence_cap,
        }

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

    def charge(self, sender: int, kind: str, count: int = 1) -> Tuple[int, bool]:
        """Charge ``count`` verifications for (sender, kind); returns (how
        many are admitted -- always a prefix of the ``count`` --,
        first_drop_this_round).  Equal to ``count`` unit charges: once a
        unit is dropped the sender is over its cap, and becoming a suspect
        only lowers it."""
        key = (sender, kind)
        used = self._used.get(key, 0)
        admitted = min(count, max(0, self.cap_for(sender, kind) - used))
        if admitted:
            self._used[key] = used + admitted
            self.total_charged += admitted
        if admitted == count:
            return admitted, False
        first = key not in self._dropped
        self._dropped.add(key)
        if sender not in self.suspects:
            self.suspects.add(sender)
            self._refresh_favored()
        self.total_dropped += count - admitted
        return admitted, first

    # -- self-stabilization hooks (docs/PROTOCOL.md section 16) ------------------

    def ledger_issues(self, controllers) -> list:
        """Internal-consistency violations of this ledger, as short tags.

        Every field is either a copy of the frozen :class:`Bounds` or
        bounded by construction, so a transiently corrupted ledger is
        detectable without any cross-node traffic."""
        issues = []
        if self.caps != self._derived_caps():
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
        self.caps = self._derived_caps()
        self.suspects &= set(controllers)
        self.total_charged = max(0, self.total_charged)
        self.total_dropped = max(0, self.total_dropped)
        self._used = {}
        self._dropped = set()
        self._refresh_favored()

