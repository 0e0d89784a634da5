"""Durable, tamper-evident node state: one hash-chained log per node.

Every node can persist its protocol state to disk as an append-only,
HMAC-chained event log (the :mod:`repro.obs` event schema is the record
format): one record per admitted evidence item, plus a periodic
``persist-snapshot`` record holding the inventory of a consistent cut
(evidence digest, heartbeat-store size, quota ledger, mode pointer).  On
restart the chain is verified (per-record HMAC, prev-digest linking, head
anchor), a fresh node admits every evidence item of the verified prefix,
and it rejoins through the operator blessing flow -- the same rejoin as
an operator repair; see ``docs/PROTOCOL.md`` S14.

Off by default (``ReboundConfig.durability_enabled``); with persistence
disabled the transcript is byte-identical to a build without this package.
"""

from repro.durability.chain import GENESIS, TamperDetected, chain_tag, derive_key
from repro.durability.log import ChainedEventLog
from repro.durability.store import NodeDurableStore, RestoreResult

__all__ = [
    "GENESIS",
    "TamperDetected",
    "chain_tag",
    "derive_key",
    "ChainedEventLog",
    "NodeDurableStore",
    "RestoreResult",
]
