"""Sharded round engine: deterministic fan-out of node stepping.

At scale (hundreds of controllers) the serial per-node loop in
:meth:`repro.net.network.RoundNetwork.run_round` dominates wall clock.
This module steps nodes in parallel across ``ProcessPoolExecutor`` workers
while keeping transcripts **byte-identical** to serial execution:

1.  *Stable shard assignment.*  Sorted controllers are dealt round-robin
    over ``workers`` shards at engine start; devices, fault-scenario
    targets, and any explicitly pinned nodes stay parent-resident.  Each
    shard gets its own single-process pool, forked after the system is
    fully built, so workers inherit their resident nodes (and the whole
    directory/mode tree) copy-on-write -- the same fork-inherit pattern as
    :mod:`repro.sched.modegen`.

2.  *Capture/replay sends.*  Every node sends only from ``on_round_end``.
    Workers (and the parent, for its own residents) run the three phases
    with the network's *intent sink* armed: ``send()``/``broadcast()``
    record ``(kind, sender, target, payload)`` and return before any
    crash/adversary/guardian processing.  After the join, the parent
    replays all captured intents through the real send path in ascending
    node order -- exactly the order the serial engine would have produced
    -- so sequence numbering, guardian charging, tamper hooks, byte
    accounting, and the chaos layer's seq-keyed impairment RNG behave
    identically.  Within a node, intent order is the node's own emission
    order, also identical to serial.

3.  *Wire frames, not pickles.*  Each shard's per-round deliveries cross
    the process boundary as one flat buffer of canonical codec frames
    (:mod:`repro.net.frames`): unique frames interned by value plus one
    small header per delivery, so a bus broadcast (or a value-equal
    per-neighbor fan-out) into a shard ships one frame no matter how many
    recipients it has.  Workers decode through a bounded per-process frame
    cache; captured intents return in the same framed format and the
    parent replays them as :class:`~repro.net.message.Frame` handles --
    ``encode(Frame(b)) == b``, so nothing is encoded twice and
    guardian/chaos byte accounting is unchanged.

4.  *Summaries, not objects.*  After each round a worker returns a compact
    :class:`NodeSummary` per resident; the parent exposes them through
    :class:`ShardNodeView` proxies so monitors/metrics (`fault_pattern`,
    evidence digest, `current_schedule` via the shared mode tree, counter
    totals, buffer lengths) read the same values they would from real
    nodes.  Heavyweight reads (evidence items, storage bytes) are explicit
    RPCs to the owning worker; writes (``submit_evidence``) are *deferred*
    -- queued per shard and flushed with the next round's batch or by the
    first blocking read (read-your-writes), so a burst of submissions
    costs one IPC round-trip instead of one each.  Worker-side call
    failures surface as typed, picklable :class:`WorkerCallError` carrying
    the node id, op, and the worker traceback.

5.  *Telemetry hygiene and attribution.*  Worker initializers zero every
    registered telemetry component, so per-worker cache stats count
    post-fork work only; each round's snapshot rides back with the results
    and :func:`ShardedRoundEngine.merged_stats` folds them into the
    parent's registry snapshot without double counting.  A
    :class:`~repro.obs.profiler.RoundProfiler` (telemetry component
    ``round_profile``) decomposes every engine round into
    encode/ipc/step/replay/merge wall-clock, and component ``engine_ipc``
    counts frames, interning hits, and bytes shipped.

6.  *Shipping flight recorders.*  When the parent had an active
    :class:`~repro.obs.recorder.FlightRecorder` at fork, each worker
    installs its own recorder instead of going blind: worker-resident
    nodes emit locally, the ring is drained at the end of every
    ``_worker_round`` into an event frame batch (same columnar + interning
    + zlib plane as deliveries), and the parent-side
    :class:`~repro.obs.collector.TraceCollector` absorbs it into the
    parent ring *before* replay.  Per-node ``seq`` counters are max-merged
    across the boundary in both directions (parent snapshot ships with
    each batch; worker snapshot returns with each result), which keeps the
    ``(round, node, seq)`` numbering byte-identical to the serial engine:
    within one round only one side emits for a given node at a time, so
    each side's counter is an exact lower bound.  Known limit: a node
    whose *durable store* emits persist events in the same round as a
    chaos impairment on its sends would number differently (durable emits
    run worker-side before the parent's replay-time impairment emits);
    the identity cells run durability off, and the divergence affects
    ``seq`` only, never transcripts.  Recalled nodes drain with the
    ``release`` barrier and shutdown drains every shard, so no event is
    lost or shipped twice -- events drained before a failed future stay
    worker-side and ride the next successful batch.

Shared module-level caches (verify cache, coverage DP, path cache, codec
memo, frame cache) diverge per worker but are *fidelity-neutral*: they
cache pure functions and never feed transcripts or logical counters.
"""

from __future__ import annotations

import copy
import multiprocessing as mp
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.net.frames import (
    DeliveryWriter,
    IntentWriter,
    decode_frame,
    unpack_deliveries,
    unpack_intents,
)
from repro.net.message import Frame, encode
from repro.obs import recorder as _flight
from repro.obs import registry as _telemetry
from repro.obs.collector import EventBatch, TraceCollector, pack_events
from repro.obs.profiler import RoundProfiler
from repro.obs.recorder import FlightRecorder

class WorkerCallError(Exception):
    """A worker-side node operation failed.

    ``ProcessPoolExecutor`` pickles exceptions across the boundary, which
    strips chained context and leaves the parent with an opaque one-liner.
    This carries the node id, the op, and the full worker-side traceback
    text, and pickles losslessly via ``__reduce__``.
    """

    def __init__(
        self,
        node_id: int,
        op: str,
        cause_type: str,
        cause_message: str,
        worker_traceback: str = "",
    ):
        super().__init__(
            f"worker call {op!r} on node {node_id} failed: "
            f"{cause_type}: {cause_message}"
        )
        self.node_id = node_id
        self.op = op
        self.cause_type = cause_type
        self.cause_message = cause_message
        self.worker_traceback = worker_traceback

    def __reduce__(self):
        return (
            WorkerCallError,
            (
                self.node_id,
                self.op,
                self.cause_type,
                self.cause_message,
                self.worker_traceback,
            ),
        )


def _call_error(node_id: int, op: str, exc: BaseException) -> WorkerCallError:
    return WorkerCallError(
        node_id, op, type(exc).__name__, str(exc), traceback.format_exc()
    )


# -- per-round node summaries ---------------------------------------------------


@dataclass
class NodeSummary:
    """Everything monitors/metrics read from a node every round, shipped
    back from the owning worker after each round."""

    scenario: Any
    has_schedule: bool
    fault_pattern: Any
    evidence_digest: bytes
    accused: FrozenSet[int]
    evidence_len: int
    store_len: int
    pending_rule_b: int
    replica_lens: Dict[Tuple[int, int], Tuple[int, int, int]]
    pending_cap: int
    counters: Dict[str, Any]
    mode_switches: List[Tuple[int, Any]]


def summarize_node(node: Any) -> NodeSummary:
    fwd = node.forwarding
    aud = node.auditing
    return NodeSummary(
        scenario=node.current_scenario,
        has_schedule=node.current_schedule is not None,
        fault_pattern=fwd.fault_pattern,
        evidence_digest=fwd.evidence.digest(),
        accused=frozenset(fwd.evidence.accused_nodes()),
        evidence_len=len(fwd.evidence),
        store_len=len(fwd.store),
        pending_rule_b=len(fwd._pending_rule_b),
        replica_lens={
            key: (len(rep.bundles), len(rep.auths), len(rep.peer_digests))
            for key, rep in aud._replicas.items()
        },
        pending_cap=aud.pending_cap,
        counters={dom: copy.copy(c) for dom, c in node.crypto.counters.items()},
        mode_switches=list(node.mode_switches),
    )


# -- worker side ----------------------------------------------------------------


@dataclass
class _SpawnState:
    network: Any
    resident: FrozenSet[int]
    #: ring capacity for the worker's shipping recorder, or None when the
    #: parent had no active recorder at fork (workers then run blind, as
    #: before -- zero recording overhead).
    recorder_capacity: Optional[int] = None


@dataclass
class _WorkerState:
    network: Any
    resident: Set[int]
    sink: List[Tuple[str, int, int, Any]] = field(default_factory=list)


#: A deferred worker call: (node_id, op, args).
Call = Tuple[int, str, Tuple[Any, ...]]


@dataclass
class _RoundResult:
    #: captured ``(kind, sender, target, payload)`` intents as one frame
    #: buffer (:func:`repro.net.frames.unpack_intents`).
    intents: bytes
    summaries: Dict[int, NodeSummary]
    telemetry: Dict[str, Dict[str, Any]]
    encode_s: float
    decode_s: float
    step_s: float
    intent_raw_bytes: int
    frames_shipped: int
    interned_hits: int
    #: drained flight-recorder events (None when the worker runs blind).
    events: Optional[EventBatch] = None
    event_count: int = 0
    event_raw_bytes: int = 0
    event_interned: int = 0
    #: the worker recorder's per-node seq counters after this round.
    seqs: Dict[int, int] = field(default_factory=dict)
    #: cumulative worker-ring evictions (events lost before shipping).
    dropped: int = 0


# Set in the parent immediately before each pool's priming submit forks the
# worker; the child's initializer copies it into _W.  Never read after start.
_SPAWN: Optional[_SpawnState] = None
_W: Optional[_WorkerState] = None


def _worker_init() -> None:
    global _W
    state = _SPAWN
    assert state is not None, "worker forked without spawn state"
    _W = _WorkerState(network=state.network, resident=set(state.resident))
    # The fork snapshot carries the parent's flight recorder and telemetry
    # counts.  Replace the recorder: when the parent was recording, install
    # a fresh *shipping* recorder (same capacity, empty ring -- the parent
    # keeps the pre-fork events) that _worker_round drains every round;
    # otherwise detach so a blind run stays overhead-free.  Telemetry is
    # zeroed either way so the per-worker stats this engine reports never
    # double-count pre-fork activity.
    if state.recorder_capacity is not None:
        FlightRecorder(capacity=state.recorder_capacity).install()
    else:
        _flight.active = None
    _telemetry.ensure_default_components()
    _telemetry.reset_all()
    # Arm the intent sink permanently: nothing a worker-resident node sends
    # may enter the network here -- the parent replays it.
    _W.network._intent_sink = _W.sink


def _worker_ping() -> bool:
    return _W is not None


def _group_intents(
    sink: List[Tuple[str, int, int, Any]],
) -> Dict[int, List[Tuple[str, int, Any]]]:
    grouped: Dict[int, List[Tuple[str, int, Any]]] = {}
    for kind, sender, target, payload in sink:
        grouped.setdefault(sender, []).append((kind, target, payload))
    return grouped


def _worker_round(
    round_no: int,
    crashed: FrozenSet[int],
    batch: bytes,
    calls: List[Call],
    seq_sync: Optional[Dict[int, int]] = None,
) -> _RoundResult:
    """Run one round's three phases for this worker's resident nodes.

    ``batch`` is the shard's ``(sender, dest, payload)`` deliveries as one
    frame buffer (:func:`repro.net.frames.unpack_deliveries`).  ``calls`` are the shard's deferred writes, applied *before* any phase
    -- between rounds worker nodes never step, so this is exactly when the
    serial engine would have applied them.  ``seq_sync`` is the parent
    recorder's per-node seq snapshot for ``round_no``: max-merged in first
    so deferred-call and phase emits continue the serial numbering after
    any parent-side emits (fault injections, parent-resident activity)
    earlier in the round.
    """
    w = _W
    assert w is not None
    net = w.network
    net.round_no = round_no
    net._crashed = set(crashed)
    rec = _flight.active
    if rec is not None:
        rec.begin_round(round_no)
        if seq_sync:
            rec.merge_seq(seq_sync)
    if calls:
        _apply_calls(w, calls)
    perf = time.perf_counter
    t0 = perf()
    deliveries = [
        (sender, dest, decode_frame(frame))
        for sender, dest, frame in unpack_deliveries(batch)
    ]
    t_decode = perf() - t0
    sink = w.sink
    sink.clear()
    protos = net._protocols
    live = [n for n in sorted(w.resident) if n not in crashed]
    t1 = perf()
    for nid in live:
        protos[nid].on_round_start(round_no)
    for sender, destination, payload in deliveries:
        if destination in crashed or destination not in w.resident:
            continue
        protos[destination].on_receive(round_no, sender, payload)
    if sink:
        # The replay merge orders intents by sending node, which matches
        # serial execution only when every send happens in on_round_end
        # (true for all shipped protocols).  Fail loudly otherwise.
        raise RuntimeError(
            "sharded engine requires protocols to send only from on_round_end"
        )
    for nid in live:
        protos[nid].on_round_end(round_no)
    t_step = perf() - t1
    t2 = perf()
    writer = IntentWriter()
    for kind, sender, target, payload in sink:
        data = payload.data if type(payload) is Frame else encode(payload)
        writer.add(kind, sender, target, data)
    intents = writer.finish()
    events: Optional[EventBatch] = None
    event_count = event_raw = event_interned = 0
    seqs: Dict[int, int] = {}
    dropped = 0
    if rec is not None:
        drained = rec.drain()
        event_count = len(drained)
        if drained:
            events, event_raw, event_interned = pack_events(drained)
        seqs = rec.seq_snapshot()
        dropped = rec.dropped
    t_encode = perf() - t2
    return _RoundResult(
        intents=intents,
        summaries={nid: summarize_node(protos[nid]) for nid in sorted(w.resident)},
        telemetry=_telemetry.stats_snapshot(),
        encode_s=t_encode,
        decode_s=t_decode,
        step_s=t_step,
        intent_raw_bytes=writer.raw_bytes,
        frames_shipped=writer.frame_count,
        interned_hits=writer.interned_hits,
        events=events,
        event_count=event_count,
        event_raw_bytes=event_raw,
        event_interned=event_interned,
        seqs=seqs,
        dropped=dropped,
    )


def _dispatch_call(w: _WorkerState, node_id: int, op: str, args: Tuple[Any, ...]) -> Any:
    node = w.network._protocols[node_id]
    if op == "evidence_items":
        return list(node.forwarding.evidence.items())
    if op == "storage_bytes":
        return node.forwarding.storage_bytes()
    if op == "storage_all":
        return {
            nid: w.network._protocols[nid].forwarding.storage_bytes()
            for nid in sorted(w.resident)
        }
    if op == "submit_evidence":
        node.forwarding.submit_evidence(args[0])
        return summarize_node(node)
    if op == "summarize":
        return summarize_node(node)
    if op == "release":
        # Drop the node from this worker's residency; its local copy goes
        # stale and is never stepped again.  Return the (network-detached)
        # node when the caller wants to adopt it parent-side.  Buffered
        # durable-log records are flushed first: the recall barrier must
        # leave the on-disk chain current before the parent's copy starts
        # appending to it.  The shipping recorder drains for the same
        # reason -- any events the released node emitted since the last
        # round batch must follow it to the parent.
        w.resident.discard(node_id)
        durable = getattr(node, "durable", None)
        if durable is not None:
            durable.flush()
        node.network = None
        return (node if args and args[0] else None, _drain_worker_events())
    if op == "drain_events":
        # Shutdown barrier: ship whatever is still buffered.
        return _drain_worker_events()
    if op == "flush_durable":
        # Flush every resident node's durable store (shutdown barrier).
        flushed = 0
        for nid in sorted(w.resident):
            durable = getattr(w.network._protocols[nid], "durable", None)
            if durable is not None:
                durable.flush()
                flushed += 1
        return flushed
    raise ValueError(f"unknown worker op {op!r}")


#: A shipped recorder drain: (events batch or None, recorder round,
#: per-node seq counters, cumulative dropped count).  The round rides
#: along so the parent only merges counters that belong to *its* current
#: round (a stale snapshot is dead weight, not an error).
Drain = Tuple[Optional[EventBatch], int, Dict[int, int], int]


def _drain_worker_events() -> Optional[Drain]:
    """Drain this worker's shipping recorder, if any."""
    rec = _flight.active
    if rec is None:
        return None
    drained = rec.drain()
    batch = pack_events(drained)[0] if drained else None
    return (batch, rec.current_round, rec.seq_snapshot(), rec.dropped)


def _apply_calls(w: _WorkerState, calls: List[Call]) -> None:
    for node_id, op, args in calls:
        try:
            _dispatch_call(w, node_id, op, args)
        except WorkerCallError:
            raise
        except Exception as exc:
            raise _call_error(node_id, op, exc) from None


def _worker_call(node_id: int, op: str, *args: Any) -> Any:
    w = _W
    assert w is not None
    try:
        return _dispatch_call(w, node_id, op, args)
    except WorkerCallError:
        raise
    except Exception as exc:
        raise _call_error(node_id, op, exc) from None


def _worker_flush(
    calls: List[Call],
    summarize_ids: List[int],
    sync_round: Optional[int] = None,
    seq_sync: Optional[Dict[int, int]] = None,
) -> Tuple[Dict[int, NodeSummary], Optional[Drain]]:
    """Apply a shard's deferred writes, then return fresh summaries for the
    nodes those writes touched (read-your-writes) plus a recorder drain.

    ``sync_round``/``seq_sync`` carry the parent recorder's clock: between
    rounds the parent has already advanced to the next round, so deferred
    emits (e.g. ``submit_evidence``) must stamp that round with counters
    that account for the parent's own emits -- exactly what the serial
    engine would have produced at the call site.
    """
    w = _W
    assert w is not None
    rec = _flight.active
    if rec is not None and sync_round is not None:
        rec.begin_round(sync_round)
        if seq_sync:
            rec.merge_seq(seq_sync)
    _apply_calls(w, calls)
    protos = w.network._protocols
    summaries = {nid: summarize_node(protos[nid]) for nid in summarize_ids}
    return summaries, _drain_worker_events()


# -- parent-side views ----------------------------------------------------------


class _Sized:
    """A stand-in exposing only ``len()`` of a worker-side container."""

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n


class _ReplicaLens:
    __slots__ = ("bundles", "auths", "peer_digests")

    def __init__(self, lens: Tuple[int, int, int]):
        self.bundles = _Sized(lens[0])
        self.auths = _Sized(lens[1])
        self.peer_digests = _Sized(lens[2])


class _EvidenceView:
    def __init__(self, engine: "ShardedRoundEngine", node_id: int):
        self._engine = engine
        self._node_id = node_id

    def _summary(self) -> NodeSummary:
        return self._engine.summary(self._node_id)

    def digest(self) -> bytes:
        return self._summary().evidence_digest

    def accused_nodes(self) -> Set[int]:
        return set(self._summary().accused)

    def __len__(self) -> int:
        return self._summary().evidence_len

    def items(self) -> List[Any]:
        return self._engine.rpc(self._node_id, "evidence_items")


class _ForwardingView:
    def __init__(self, engine: "ShardedRoundEngine", node_id: int):
        self._engine = engine
        self._node_id = node_id
        self.evidence = _EvidenceView(engine, node_id)

    def _summary(self) -> NodeSummary:
        return self._engine.summary(self._node_id)

    @property
    def fault_pattern(self) -> Any:
        return self._summary().fault_pattern

    @property
    def store(self) -> _Sized:
        return _Sized(self._summary().store_len)

    @property
    def _pending_rule_b(self) -> _Sized:
        return _Sized(self._summary().pending_rule_b)

    def storage_bytes(self) -> int:
        return self._engine.rpc(self._node_id, "storage_bytes")

    def submit_evidence(self, item: Any) -> None:
        # Deferred: queued per shard, applied before the next round's
        # phases (or by the first blocking read).  Equivalent to the
        # serial engine's immediate application because worker-resident
        # nodes never step between rounds.
        self._engine.rpc_deferred(self._node_id, "submit_evidence", item)


class _AuditingView:
    def __init__(self, engine: "ShardedRoundEngine", node_id: int):
        self._engine = engine
        self._node_id = node_id

    def _summary(self) -> NodeSummary:
        return self._engine.summary(self._node_id)

    @property
    def pending_cap(self) -> int:
        return self._summary().pending_cap

    @property
    def _replicas(self) -> Dict[Tuple[int, int], _ReplicaLens]:
        return {
            key: _ReplicaLens(lens)
            for key, lens in self._summary().replica_lens.items()
        }


class _CryptoView:
    def __init__(self, engine: "ShardedRoundEngine", node_id: int):
        self._engine = engine
        self._node_id = node_id

    @property
    def counters(self) -> Dict[str, Any]:
        return self._engine.summary(self._node_id).counters

    def total_counters(self) -> Any:
        from repro.crypto.cost_model import CryptoCounters

        total = CryptoCounters()
        for c in self.counters.values():
            total.merge(c)
        return total


class ShardNodeView:
    """Parent-side proxy for a worker-resident controller.

    Supports every read the runtime, metrics, and BTR monitor perform on a
    live node; state-changing operations go through explicit engine RPCs.
    """

    is_view = True

    def __init__(self, engine: "ShardedRoundEngine", node_id: int):
        self._engine = engine
        self.node_id = node_id
        self.forwarding = _ForwardingView(engine, node_id)
        self.auditing = _AuditingView(engine, node_id)
        self.crypto = _CryptoView(engine, node_id)

    def _summary(self) -> NodeSummary:
        return self._engine.summary(self.node_id)

    @property
    def current_scenario(self) -> Any:
        return self._summary().scenario

    @property
    def current_schedule(self) -> Any:
        summary = self._summary()
        if not summary.has_schedule:
            return None
        return self._engine.mode_tree.schedule_for(summary.scenario)

    @property
    def fault_pattern(self) -> Any:
        return self._summary().fault_pattern

    @property
    def evidence(self) -> _EvidenceView:
        return self.forwarding.evidence

    @property
    def mode_switches(self) -> List[Tuple[int, Any]]:
        return self._summary().mode_switches


# -- the engine -----------------------------------------------------------------


class ShardedRoundEngine:
    """Deterministic fan-out/merge executor for :class:`RoundNetwork` rounds.

    Created by :class:`repro.core.runtime.ReboundSystem` when scale workers
    are requested; :meth:`start` must run after the system is fully built
    (workers fork-inherit it) and before the first engine round.
    """

    def __init__(
        self,
        network: Any,
        mode_tree: Any,
        workers: int,
        parent_resident: Iterable[int] = (),
    ):
        if workers < 2:
            raise ValueError("ShardedRoundEngine needs at least 2 workers")
        self.network = network
        self.mode_tree = mode_tree
        self.workers = workers
        topo = network.topology
        pinned = set(parent_resident)
        shardable = [c for c in sorted(topo.controllers) if c not in pinned]
        # Stable assignment: sorted controllers dealt round-robin.
        self._shards: List[List[int]] = [
            shard for shard in (shardable[i::workers] for i in range(workers)) if shard
        ]
        self._shard_of: Dict[int, int] = {
            nid: i for i, shard in enumerate(self._shards) for nid in shard
        }
        self._parent_ids: List[int] = sorted(
            set(topo.nodes) - set(self._shard_of)
        )
        self._summaries: Dict[int, NodeSummary] = {}
        self._pools: List[ProcessPoolExecutor] = []
        self._worker_stats: Dict[int, Dict[str, Dict[str, Any]]] = {}
        self._pending: Dict[int, List[Call]] = {}
        self._dirty: Set[int] = set()
        self._started = False
        self.rounds_executed = 0
        self.profiler = RoundProfiler(label=f"sharded x{workers}")
        #: parent-side merge point for worker-shipped trace events; set by
        #: start() when a flight recorder is active at fork time.
        self.collector: Optional[TraceCollector] = None
        self._ipc: Dict[str, Any] = {
            "rounds": 0,
            "frames_shipped": 0,
            "interned_hits": 0,
            "delivery_bytes": 0,
            "intent_bytes": 0,
            "delivery_raw_bytes": 0,
            "intent_raw_bytes": 0,
            "event_bytes": 0,
            "event_raw_bytes": 0,
            "events_shipped": 0,
            "batched_calls": 0,
            "rpc_flushes": 0,
            "blocking_rpcs": 0,
        }

    # -- lifecycle --------------------------------------------------------------

    def start(self, nodes: Dict[int, Any]) -> Dict[int, ShardNodeView]:
        """Fork one single-process pool per shard and return view proxies
        for the worker-resident nodes (keyed by node id)."""
        global _SPAWN
        if self._started:
            raise RuntimeError("engine already started")
        for nid in self._shard_of:
            self._summaries[nid] = summarize_node(nodes[nid])
        rec = _flight.active
        if rec is not None:
            self.collector = TraceCollector(rec)
        ctx = mp.get_context("fork")
        try:
            for shard_id, shard_nodes in enumerate(self._shards):
                _SPAWN = _SpawnState(
                    network=self.network,
                    resident=frozenset(shard_nodes),
                    recorder_capacity=rec.capacity if rec is not None else None,
                )
                pool = ProcessPoolExecutor(
                    max_workers=1, mp_context=ctx, initializer=_worker_init
                )
                # Force the fork now, while _SPAWN carries this shard's
                # residency (process creation happens on first submit).
                pool.submit(_worker_ping).result()
                self._pools.append(pool)
                self._worker_stats[shard_id] = {}
                self._pending[shard_id] = []
        finally:
            _SPAWN = None
        self._started = True
        _telemetry.register("scale_engine", self._stats, self._reset_stats)
        _telemetry.register("engine_ipc", self._ipc_stats, self._reset_ipc_stats)
        _telemetry.register(
            "round_profile", self.profiler.stats, self.profiler.reset
        )
        if self.collector is not None:
            _telemetry.register(
                "trace_collector", self.collector.stats, self.collector.reset
            )
        return {nid: ShardNodeView(self, nid) for nid in sorted(self._shard_of)}

    def shutdown(self) -> None:
        if self._pools:
            # Deferred writes must land before the workers die; a caller
            # may still read evidence through a rebuilt serial system.
            # Worker-resident durable logs flush for the same reason: the
            # on-disk chain must be current once the processes are gone --
            # and shipping recorders drain so no buffered event dies with
            # its worker.
            for shard_id in range(len(self._pools)):
                self._flush_pending(shard_id)
            for shard_id, shard in enumerate(self._shards):
                if shard:
                    if self.collector is not None:
                        drain = self._pools[shard_id].submit(
                            _worker_call, shard[0], "drain_events"
                        ).result()
                        self._ingest_drain(shard_id, drain)
                    self._pools[shard_id].submit(
                        _worker_call, shard[0], "flush_durable"
                    ).result()
        pools, self._pools = self._pools, []
        for pool in pools:
            pool.shutdown(wait=True, cancel_futures=True)
        if self._started:
            _telemetry.unregister("scale_engine")
            _telemetry.unregister("engine_ipc")
            _telemetry.unregister("round_profile")
            if self.collector is not None:
                _telemetry.unregister("trace_collector")

    # -- round execution --------------------------------------------------------

    def step_round(self, net: Any, deliveries: List[Tuple[int, int, Any, int]]) -> None:
        round_no = net.round_no
        crashed = frozenset(net._crashed)
        perf = time.perf_counter

        # Recorder seq hand-off (see module docstring, point 6): align the
        # parent clock with the round being executed and snapshot its
        # per-node counters, so worker emits continue the serial numbering
        # after any parent-side emits earlier in this round.
        rec = _flight.active if self.collector is not None else None
        seq_sync: Optional[Dict[int, int]] = None
        if rec is not None:
            rec.begin_round(round_no)
            seq_sync = rec.seq_snapshot()

        # Partition + pack: each shard's slice of the round's deliveries,
        # in one flat buffer (duplicate payloads are interned).
        t0 = perf()
        parent_deliveries: List[Tuple[int, int, Any, int]] = []
        batches: List[bytes] = []
        writers = [DeliveryWriter() for _ in self._pools]
        for d in deliveries:
            shard = self._shard_of.get(d[1])
            if shard is None:
                parent_deliveries.append(d)
            elif d[1] not in crashed:
                payload = d[2]
                blob = payload.data if type(payload) is Frame else encode(payload)
                writers[shard].add(d[0], d[1], blob)
        for writer in writers:
            batches.append(writer.finish())
            self._ipc["frames_shipped"] += writer.frame_count
            self._ipc["interned_hits"] += writer.interned_hits
            self._ipc["delivery_raw_bytes"] += writer.raw_bytes
            self._ipc["delivery_bytes"] += len(batches[-1])
        t_pack = perf() - t0

        # Ship: the round batch plus any deferred writes queued since the
        # last flush (applied worker-side before the round's phases).
        t1 = perf()
        futures = []
        for i, pool in enumerate(self._pools):
            calls, self._pending[i] = self._pending[i], []
            futures.append(
                pool.submit(
                    _worker_round, round_no, crashed, batches[i], calls, seq_sync
                )
            )
        self._dirty.clear()
        t_submit = perf() - t1

        # Parent-resident phases (overlaps the workers on real multicore).
        t2 = perf()
        protos = net._protocols
        sink: List[Tuple[str, int, int, Any]] = []
        net._intent_sink = sink
        try:
            for nid in self._parent_ids:
                if nid in crashed:
                    continue
                proto = protos.get(nid)
                if proto is not None:
                    proto.on_round_start(round_no)
            for sender, destination, payload, _seq in parent_deliveries:
                if destination in crashed:
                    continue
                proto = protos.get(destination)
                if proto is not None:
                    if type(payload) is Frame:
                        payload = decode_frame(payload.data)
                    proto.on_receive(round_no, sender, payload)
            if sink:
                raise RuntimeError(
                    "sharded engine requires protocols to send only from "
                    "on_round_end"
                )
            for nid in self._parent_ids:
                if nid in crashed:
                    continue
                proto = protos.get(nid)
                if proto is not None:
                    proto.on_round_end(round_no)
        finally:
            net._intent_sink = None
        t_parent_step = perf() - t2

        # Join + merge.
        t_wait = t_merge = 0.0
        worker_encode = worker_decode = worker_step = 0.0
        intent_batches: List[bytes] = []
        for shard_id, future in enumerate(futures):
            ta = perf()
            result: _RoundResult = future.result()
            t_wait += perf() - ta
            tb = perf()
            self._summaries.update(result.summaries)
            self._worker_stats[shard_id] = result.telemetry
            worker_encode += result.encode_s
            worker_decode += result.decode_s
            worker_step += result.step_s
            self._ipc["intent_bytes"] += len(result.intents)
            self._ipc["intent_raw_bytes"] += result.intent_raw_bytes
            self._ipc["frames_shipped"] += result.frames_shipped
            self._ipc["interned_hits"] += result.interned_hits
            if self.collector is not None:
                # Before replay: replay-time emits (chaos impairments at
                # worker-resident senders) need the merged seq counters.
                self.collector.ingest(
                    shard_id,
                    result.events,
                    result.seqs,
                    result.dropped,
                    raw_bytes=result.event_raw_bytes,
                    interned=result.event_interned,
                )
                if result.events is not None:
                    self._ipc["event_bytes"] += len(result.events[1])
                    self._ipc["event_raw_bytes"] += result.event_raw_bytes
                    self._ipc["events_shipped"] += result.event_count
            intent_batches.append(result.intents)
            t_merge += perf() - tb

        # Replay in ascending node order: byte-identical to the serial
        # engine's on_round_end loop (including chaos sequence numbering).
        # Worker intents replay as Frame handles -- already-canonical
        # bytes, so the send path never re-encodes them.
        t3 = perf()
        grouped = _group_intents(sink)
        for blob in intent_batches:
            for kind, sender, target, frame in unpack_intents(blob):
                grouped.setdefault(sender, []).append((kind, target, Frame(frame)))
        for nid in net.topology.nodes:
            for kind, target, payload in grouped.get(nid, ()):
                if kind == "u":
                    net.send(nid, target, payload)
                else:
                    net.broadcast(nid, target, payload)
        t_replay = perf() - t3

        self.profiler.record_round(
            round_no,
            encode=t_pack + worker_encode,
            ipc=t_submit
            + worker_decode
            + max(0.0, t_wait - worker_encode - worker_decode - worker_step),
            step=t_parent_step + worker_step,
            replay=t_replay,
            merge=t_merge,
        )
        self._ipc["rounds"] += 1
        self.rounds_executed += 1

    # -- parent/worker state management ----------------------------------------

    def summary(self, node_id: int) -> NodeSummary:
        if node_id in self._dirty:
            self._flush_pending(self._shard_of[node_id])
        return self._summaries[node_id]

    def is_sharded(self, node_id: int) -> bool:
        return node_id in self._shard_of

    def rpc(self, node_id: int, op: str, *args: Any) -> Any:
        """Blocking call on the node's owning worker (flushes that shard's
        deferred writes first, so reads observe them)."""
        shard = self._shard_of.get(node_id)
        if shard is None:
            raise KeyError(f"node {node_id} is not worker-resident")
        self._flush_pending(shard)
        self._ipc["blocking_rpcs"] += 1
        return self._pools[shard].submit(_worker_call, node_id, op, *args).result()

    def rpc_deferred(self, node_id: int, op: str, *args: Any) -> None:
        """Queue a write for the node's owning worker.  Applied before the
        next round's phases, or by the first blocking read of the shard --
        either way before any worker-resident node steps again, which
        makes it equivalent to the serial engine's immediate call."""
        shard = self._shard_of.get(node_id)
        if shard is None:
            raise KeyError(f"node {node_id} is not worker-resident")
        self._pending[shard].append((node_id, op, args))
        self._dirty.add(node_id)
        self._ipc["batched_calls"] += 1

    def _ingest_drain(self, shard: int, drain: Optional[Drain]) -> None:
        """Absorb a shipped recorder drain (flush/release/shutdown paths).

        Seq counters merge only when the drain's round matches the parent
        recorder's current round -- a snapshot for an already-passed round
        is dead weight (the parent reset its counters at the round edge,
        exactly as the serial engine would have)."""
        if drain is None or self.collector is None:
            return
        batch, rec_round, seqs, dropped = drain
        rec = self.collector.recorder
        merge = seqs if rec.current_round == rec_round else None
        self.collector.ingest(shard, batch, merge, dropped)
        if batch is not None:
            self._ipc["event_bytes"] += len(batch[1])

    def _flush_pending(self, shard: int) -> None:
        calls = self._pending.get(shard)
        if not calls:
            return
        self._pending[shard] = []
        dirty = sorted(
            nid for nid in self._dirty if self._shard_of.get(nid) == shard
        )
        self._dirty.difference_update(dirty)
        sync_round: Optional[int] = None
        seq_sync: Optional[Dict[int, int]] = None
        if self.collector is not None:
            rec = self.collector.recorder
            sync_round = rec.current_round
            seq_sync = rec.seq_snapshot()
        summaries, drain = (
            self._pools[shard]
            .submit(_worker_flush, calls, dirty, sync_round, seq_sync)
            .result()
        )
        self._summaries.update(summaries)
        self._ingest_drain(shard, drain)
        self._ipc["rpc_flushes"] += 1

    def flush_deferred(self) -> None:
        """Flush every shard's deferred writes (read-your-writes barrier)."""
        for shard_id in range(len(self._pools)):
            self._flush_pending(shard_id)

    def storage_bytes_map(self) -> Dict[int, int]:
        """Storage bytes for every worker-resident node (one RPC per shard)."""
        sizes: Dict[int, int] = {}
        for shard_id, shard in enumerate(self._shards):
            if not shard:
                continue
            self._flush_pending(shard_id)
            sizes.update(
                self._pools[shard_id]
                .submit(_worker_call, shard[0], "storage_all")
                .result()
            )
        return sizes

    def _adopt_parent(self, node_id: int, want_node: bool) -> Any:
        shard = self._shard_of[node_id]
        self._flush_pending(shard)
        self._shard_of.pop(node_id)
        node, drain = (
            self._pools[shard].submit(_worker_call, node_id, "release", want_node)
            .result()
        )
        self._ingest_drain(shard, drain)
        self._shards[shard].remove(node_id)
        self._summaries.pop(node_id, None)
        self._parent_ids = sorted(set(self._parent_ids) | {node_id})
        return node

    def recall(self, node_id: int) -> Any:
        """Pull a worker-resident node into the parent as a pickled copy
        (used for mid-run fault injection on an unpinned target).  The
        caller must re-attach it to the parent network."""
        return self._adopt_parent(node_id, want_node=True)

    def adopt_parent(self, node_id: int) -> None:
        """Mark ``node_id`` parent-resident from now on, discarding the
        worker's copy (used when the runtime rebuilds a node in-place,
        e.g. repair_and_bless)."""
        if node_id in self._shard_of:
            self._adopt_parent(node_id, want_node=False)

    # -- telemetry --------------------------------------------------------------

    def worker_snapshots(self) -> List[Dict[str, Dict[str, Any]]]:
        return [self._worker_stats[i] for i in sorted(self._worker_stats)]

    def merged_stats(self) -> Dict[str, Dict[str, Any]]:
        """The parent registry snapshot with worker-side counters folded in."""
        return _telemetry.merge_stats_snapshots(
            _telemetry.stats_snapshot(), self.worker_snapshots()
        )

    def _stats(self) -> Dict[str, Any]:
        return {
            "workers": len(self._pools),
            "shard_sizes": [len(shard) for shard in self._shards],
            "parent_resident": len(self._parent_ids),
            "rounds": self.rounds_executed,
        }

    def _reset_stats(self) -> None:
        self.rounds_executed = 0

    def _ipc_stats(self) -> Dict[str, Any]:
        return dict(self._ipc)

    def _reset_ipc_stats(self) -> None:
        for key in self._ipc:
            self._ipc[key] = 0
