"""Every protocol and oracle window, derived in one place.

REBOUND's guarantee is a sum of bounded windows: message expiry at
``D_max`` (PAPER §3.5), the Rule A--C suspensions, the admission caps and
the ``Rmax`` clock (PAPER §2.7).  A system derives its :class:`Bounds`
once from ``(d_max, audit_interval, n)`` and every consumer reads its
windows from it; ``docs/PROTOCOL.md`` §1.1 tabulates them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import ReboundConfig


@dataclass(frozen=True)
class Bounds:
    """The windows of one deployment, in rounds (caps in items)."""

    d_max: int
    """Max-fail distance (PAPER §3.5): coverage horizon, Req. 1 bound."""
    n: int
    """Number of controllers."""
    expiry_window: int
    """Heartbeats and per-round state older than this expire (PAPER §3.5)."""
    rule_b_horizon: int
    """Rule B checks, each round ``r``, the origin round
    ``r - rule_b_horizon``: the expiry horizon, one round past age
    ``d_max`` (PAPER §3.5; PROTOCOL.md §2)."""
    rule_b_deferral: int
    """Rule B's stable floor after an evidence change and its suspicion
    hold (PROTOCOL.md §2, §11)."""
    multi_fallback: int
    """MULTI floods individual records this long after an evidence change
    (PAPER §3.6; PROTOCOL.md §3)."""
    rule_a_suspension: int
    """Rule A is off this long after an evidence change (PROTOCOL.md §2)."""
    join_grace: int
    """Rules A--C are off this long after joining (PROTOCOL.md §2)."""
    rule_c_settle: int
    """Rule C expects packets from this long after a mode switch
    (PROTOCOL.md §2)."""
    probe: int
    """Each storm symptom extends record probing this long (PROTOCOL.md §11)."""
    pom_lfd_slack: int
    """An LFD this soon after a PoM's accusation round is explained by it:
    propagation, the Rule B deferral and margin (PROTOCOL.md §11)."""
    lfd_reissue_cooldown: int
    """Rounds before a link may be declared again (PROTOCOL.md §11)."""
    record_quota: int
    """Records per sender per round: one per slot of the expiry window
    (PROTOCOL.md §11)."""
    aggregate_quota: int
    """Aggregates per sender per round (PROTOCOL.md §11)."""
    evidence_cap: int
    """Items a bounded evidence store can hold: two LFDs per link and
    issuer, two PoMs per kind and accused, generously (PROTOCOL.md §11)."""
    heartbeat_store_cap: int
    """Records a windowed heartbeat store can hold (PROTOCOL.md §11)."""
    pending_audit_cap: int
    """Pending audit entries per replica: an honest primary's backlog is a
    few rounds, and rounds past a gap are never audited (PROTOCOL.md §11)."""
    grace: int
    """The monitor's accusation grace after a restart, repair or resync:
    flooding plus the Rule A suspension (PROTOCOL.md §14, §16.4)."""
    r_max: int
    """Req. 2 recovery bound ``Rmax`` (PAPER §2.7)."""
    convergence_s: int
    """Req-S bound: two audit intervals, ``d_max`` for dropped evidence to
    age, two rounds of slack (PROTOCOL.md §16.3)."""

    @classmethod
    def from_config(cls, config: ReboundConfig, n: int) -> "Bounds":
        """The windows of ``config`` (``d_max`` resolved) with ``n``
        controllers."""
        d_max = config.d_max
        if d_max is None:
            raise ValueError("config.d_max must be resolved before deriving bounds")
        window = d_max + 2
        slots = window + 1  # origin rounds alive in the expiry window
        pom_lfd_slack = d_max + window + 4
        return cls(
            d_max=d_max,
            n=n,
            expiry_window=window,
            rule_b_horizon=d_max + 1,
            rule_b_deferral=window,
            multi_fallback=window,
            rule_a_suspension=2,
            join_grace=1,
            rule_c_settle=4,
            probe=2,
            pom_lfd_slack=pom_lfd_slack,
            lfd_reissue_cooldown=pom_lfd_slack + 1,
            record_quota=max(1, n) * slots,
            aggregate_quota=slots,
            evidence_cap=2 * n * n + 8 * n + 16,
            heartbeat_store_cap=max(1, n) * slots,
            pending_audit_cap=4 * d_max + 16,
            grace=d_max + 2,
            r_max=2 * d_max + 4,
            convergence_s=2 * config.audit_interval + d_max + 2,
        )
