"""Transient in-RAM state corruption (docs/PROTOCOL.md §16.2).

These are *not* adversary behaviors: the victim stays a **correct** node
(it follows the protocol faithfully from whatever state it holds), its
state has simply been damaged -- a cosmic-ray bit flip, a wild pointer, a
bad RAM bank.  That is the fault class of the self-stabilizing BRB work
(PAPERS.md): arbitrary transient corruption of local state, distinct from
both Byzantine nodes (PR 3/5's adversaries, injected via
``ReboundSystem.inject_now`` which marks ground-truth faulty) and PR 8's
*on-disk* tamper behaviors (which attack the durable log between crash and
restart).  Injection goes through ``ReboundSystem.corrupt_now``, which
applies the damage without touching the fault ground truth -- the Req-S
question is precisely whether a correct-but-corrupted node converges back
without ever being condemned.

Each corruption targets exactly one audited field, is applied in one shot
(transient, no lifecycle), and derives every choice from a splitmix64 mix
of its seed so campaign cells replay bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.chaos.impairments import _mix

#: registry: name -> class, for campaign/property parametrization.
CORRUPTIONS: Dict[str, type] = {}


def _register(cls):
    CORRUPTIONS[cls.name] = cls
    return cls


class TransientCorruption:
    """Base: a one-shot, seeded mutation of one node's in-RAM state."""

    name = "corruption"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def apply(self, system, node_id: int) -> Dict[str, Any]:
        """Mutate the node's state; returns a small description dict."""
        raise NotImplementedError


@_register
class EvidenceBitFlip(TransientCorruption):
    """Flip one bit in one evidence-store entry's content digest key.

    The store indexes items by canonical digest; flipping a key bit leaves
    the item intact but unlocatable/incoherent -- the classic silent store
    corruption.  Detected by ``EvidenceSet.corrupted_keys`` (the key no
    longer matches the item's re-derived digest); repaired losslessly by
    re-keying."""

    name = "evidence-bitflip"

    def apply(self, system, node_id: int) -> Dict[str, Any]:
        store = system.nodes[node_id].forwarding.evidence
        keys = sorted(store._items)
        if not keys:
            return {"target": "evidence", "flipped": None}
        victim = keys[_mix(self.seed, node_id, 0xB17F) % len(keys)]
        bit = _mix(self.seed, node_id, 0xF11B) % (len(victim) * 8)
        flipped = bytearray(victim)
        flipped[bit // 8] ^= 1 << (bit % 8)
        flipped = bytes(flipped)
        store._items[flipped] = store._items.pop(victim)
        return {"target": "evidence", "flipped": victim.hex()[:8], "bit": bit}


@_register
class EpochDesync(TransientCorruption):
    """Corrupt the memoized epoch digest so the node advertises a stale/
    wrong evidence root in its aggregates (peers fall back to the probe
    path; PR 5 keeps that accurate, but the node itself is desynced).
    Detected by ``EvidenceSet.digest_cache_coherent``."""

    name = "epoch-desync"

    def apply(self, system, node_id: int) -> Dict[str, Any]:
        store = system.nodes[node_id].forwarding.evidence
        root = bytearray(store.digest())  # materializes the memo
        bit = _mix(self.seed, node_id, 0xE90C) % (len(root) * 8)
        root[bit // 8] ^= 1 << (bit % 8)
        store._digest_cache = bytes(root)
        return {"target": "epoch", "bit": bit}


@_register
class ModePointerScramble(TransientCorruption):
    """Point ``current_schedule``/``current_scenario`` at a different tree
    entry.  The node now *reports and compares* against the wrong mode --
    future adoptions short-circuit against a pointer that never matches
    the tree lookup.  Detected by the auditor's mode-pointer invariant
    (``schedule_for(fault_pattern)`` disagrees with the pointer)."""

    name = "mode-scramble"

    def apply(self, system, node_id: int) -> Dict[str, Any]:
        node = system.nodes[node_id]
        tree = node.mode_tree
        correct = tree.schedule_for(node.fault_pattern)
        scenarios = [
            s for s in sorted(
                tree.schedules, key=lambda s: (s.fault_count, sorted(s.nodes))
            )
            if tree.schedules[s] != correct
        ]
        if not scenarios:
            return {"target": "mode", "scrambled": None}
        wrong = scenarios[_mix(self.seed, node_id, 0x5C8A) % len(scenarios)]
        node.current_scenario = wrong
        node.current_schedule = tree.schedules[wrong]
        return {"target": "mode", "scrambled": sorted(wrong.nodes)}


@_register
class QuotaLedgerCorrupt(TransientCorruption):
    """Garbage the admission-quota ledger: scramble the derived caps,
    negate the charge counters, and pollute the suspect set with a
    non-controller id.  Detected by ``AdmissionQuotas.ledger_issues``
    (every field is derivable or bounded by construction)."""

    name = "quota-corrupt"

    def apply(self, system, node_id: int) -> Dict[str, Any]:
        quotas = system.nodes[node_id].forwarding.quotas
        mix = _mix(self.seed, node_id, 0x0_07A)
        for kind in sorted(quotas.caps):
            quotas.caps[kind] = (quotas.caps[kind] * (mix % 7)) // 3
        quotas.total_charged = -(quotas.total_charged + 1)
        bogus = max(system.topology.controllers) + 1 + (mix % 3)
        quotas.suspects.add(bogus)
        quotas._refresh_favored()
        return {"target": "quotas", "bogus_suspect": bogus}
