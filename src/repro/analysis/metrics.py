"""Per-round cost accounting over a running :class:`ReboundSystem`.

Collects exactly the quantities the paper's evaluation reports: per-link
bandwidth (Fig. 5a, 6, 8a), per-node storage (Fig. 5b, 8c), and per-node
cryptographic operation counts split by layer (Fig. 5c, 8b).

The process-wide fast-path counters (codec memo, ILP solver) are read
through :mod:`repro.obs.registry`; a system's verdict memo counts its own
hits and misses on ``system.directory``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.identity import DOMAIN_AUDITING, DOMAIN_FORWARDING
from repro.crypto.cost_model import CryptoCostModel, CryptoCounters


@dataclass
class CostSnapshot:
    """Costs accumulated during one round, averaged per node / per link.

    Attributes:
        round_no: the last round this snapshot covers.
        bytes_per_link: mean bytes transmitted per channel per round.
        storage_per_node: mean retained protocol state in bytes.
        forwarding_ops: mean forwarding-layer crypto ops per node per round.
        auditing_ops: mean auditing-layer crypto ops per node per round.
        rounds_covered: how many rounds elapsed since the previous sample;
            all per-round means are normalized by it, so sampling every
            k-th round still yields true per-round figures.
    """

    round_no: int
    bytes_per_link: float
    storage_per_node: float
    forwarding_ops: CryptoCounters
    auditing_ops: CryptoCounters
    rounds_covered: int = 1

    def ops_per_node(self) -> float:
        total = CryptoCounters()
        total.merge(self.forwarding_ops)
        total.merge(self.auditing_ops)
        return (
            total.total_signatures()
            + total.total_verifications()
        )

    def cpu_seconds_per_node(self, model: CryptoCostModel) -> float:
        return model.cpu_seconds(self.forwarding_ops) + model.cpu_seconds(
            self.auditing_ops
        )


class MetricsCollector:
    """Samples a system each round, producing a time series of snapshots."""

    def __init__(self, system):
        self.system = system
        self.snapshots: List[CostSnapshot] = []
        self._prev_fwd: Dict[int, CryptoCounters] = {}
        self._prev_aud: Dict[int, CryptoCounters] = {}
        self._last_round = system.round_no
        self._prime()

    def _prime(self) -> None:
        for node_id, node in self.system.nodes.items():
            self._prev_fwd[node_id] = node.crypto.counters[DOMAIN_FORWARDING].copy()
            self._prev_aud[node_id] = node.crypto.counters[DOMAIN_AUDITING].copy()

    def sample(self) -> CostSnapshot:
        """Record the costs of every round since the previous sample.

        Counter deltas accumulate across skipped rounds, so when a caller
        samples every k-th round each snapshot covers k rounds and all
        per-round means are divided by the covered span -- a sparse series
        and a dense one report the same per-round costs.
        """
        system = self.system
        r = system.round_no
        span = max(1, r - self._last_round)
        covered = range(self._last_round + 1, r + 1) if r > self._last_round else [r]
        self._last_round = r
        n = max(1, len(system.nodes))
        fwd_delta = CryptoCounters()
        aud_delta = CryptoCounters()
        for node_id, node in system.nodes.items():
            current_fwd = node.crypto.counters[DOMAIN_FORWARDING]
            current_aud = node.crypto.counters[DOMAIN_AUDITING]
            fwd_delta.merge(current_fwd.diff(self._prev_fwd[node_id]))
            aud_delta.merge(current_aud.diff(self._prev_aud[node_id]))
            self._prev_fwd[node_id] = current_fwd.copy()
            self._prev_aud[node_id] = current_aud.copy()
        mean_fwd = _scale(fwd_delta, 1.0 / (n * span))
        mean_aud = _scale(aud_delta, 1.0 / (n * span))
        snapshot = CostSnapshot(
            round_no=r,
            bytes_per_link=sum(
                system.mean_link_bytes_in_round(cr) for cr in covered
            ) / span,
            storage_per_node=system.mean_storage_bytes(),
            forwarding_ops=mean_fwd,
            auditing_ops=mean_aud,
            rounds_covered=span,
        )
        self.snapshots.append(snapshot)
        return snapshot

    def run_and_sample(self, rounds: int) -> List[CostSnapshot]:
        for _ in range(rounds):
            self.system.run_round()
            self.sample()
        return self.snapshots

    def steady_state(self, tail: int = 5) -> CostSnapshot:
        """Average of the last ``tail`` snapshots (paper measures the final
        round, i.e. steady state, for Fig. 5)."""
        if not self.snapshots:
            raise ValueError("no snapshots collected")
        window = self.snapshots[-tail:]
        k = len(window)
        fwd = CryptoCounters()
        aud = CryptoCounters()
        for snap in window:
            fwd.merge(snap.forwarding_ops)
            aud.merge(snap.auditing_ops)
        return CostSnapshot(
            round_no=window[-1].round_no,
            bytes_per_link=sum(s.bytes_per_link for s in window) / k,
            storage_per_node=sum(s.storage_per_node for s in window) / k,
            forwarding_ops=_scale(fwd, 1.0 / k),
            auditing_ops=_scale(aud, 1.0 / k),
        )


def transcript_entry(system) -> tuple:
    """One round's observable state: per-node evidence digest + mode.

    The shared fingerprint for transcript-identity checks (golden cells,
    chaos no-op verification): two runs whose entries match round-for-round
    made byte-identical protocol decisions.
    """
    digests = []
    for node_id in sorted(system.nodes):
        node = system.nodes[node_id]
        schedule = node.current_schedule
        mode = (
            (tuple(sorted(schedule.failed_nodes)), tuple(sorted(schedule.failed_links)))
            if schedule
            else None
        )
        digests.append((node_id, node.forwarding.evidence.digest().hex(), mode))
    return tuple(digests)


def _scale(counters: CryptoCounters, factor: float) -> CryptoCounters:
    """Per-node/per-round means may be fractional; CryptoCounters holds
    plain numbers, so scaled copies simply carry floats."""
    scaled = CryptoCounters()
    for key, value in counters.as_dict().items():
        setattr(scaled, key, value * factor)
    return scaled
