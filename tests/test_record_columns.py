"""Record columns against the per-record loop they replace.

``ForwardingLayer._process_records`` reads each sender message's records
from a column shared by every recipient and checks only the records the
recipient lacks.  :class:`ReferenceLayer` keeps the loop that checked every
copy, record by record; the property drives both with the same random
message sequences and demands the same state, counters and flight events.
The count guard pins what the column saves on a fault-free run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import VARIANT_MULTI, ReboundConfig
from repro.core.evidence import EquivocationPoM, heartbeat_body
from repro.core.forwarding import ForwardingLayer, RoundMessage
from repro.core.heartbeat import HeartbeatRecord, HeartbeatStore
from repro.core.identity import Directory
from repro.core.runtime import ReboundSystem
from repro.net.topology import ROLE_SENSOR, Topology, erdos_renyi_topology
from repro.obs.events import EV_HEARTBEAT_VERIFY, EV_POM_CREATED
from repro.obs.recorder import FlightRecorder
from repro.sched.workload import WorkloadGenerator
from tests.test_core_forwarding import _make_layer


class ReferenceLayer(ForwardingLayer):
    """The per-record receive loop: every copy of every record pays a store
    lookup, and every record not already stored pays one quota unit and
    one verification before it is stored and marked."""

    def _process_records(self, sender, records):
        ok = True
        expired_before = self._round - self.bounds.expiry_window
        for rec in records:
            if rec.round_no > self._round or (
                self.config.expiry_optimization and rec.round_no < expired_before
            ):
                continue
            existing = self.store.get(rec.origin, rec.round_no)
            if existing is not None and existing.delta_count == rec.delta_count:
                self._mark_record(sender, rec)
                continue
            if not self._charge_quota(sender, "records"):
                continue
            if not self._verify_one(sender, rec):
                ok = False
                continue
            status, conflict = self.store.add(rec)
            self._mark_record(sender, rec)
            if status == "conflict" and conflict is not None:
                pom = EquivocationPoM(
                    rec.origin, conflict.body(), conflict.signature,
                    rec.body(), rec.signature,
                )
                self._trace(
                    EV_POM_CREATED, {"accused": rec.origin, "pom": "equivocation"}
                )
                self._admit_evidence([pom])
        return ok

    def _mark_record(self, sender, rec):
        if rec.origin in self._controllers:
            bucket = self._delivered[sender]
            bucket[rec.round_no] = bucket.get(rec.round_no, 0) | 1 << rec.origin

    def _verify_one(self, sender, rec):
        if self._spot_check_skip(sender, rec):
            return True
        if self.config.variant == VARIANT_MULTI:
            ok = self.crypto.ms_verify_record(rec.origin, rec.body(), rec.signature)
        else:
            ok = self.crypto.verify(rec.origin, rec.body(), rec.signature)
        self._trace(
            EV_HEARTBEAT_VERIFY,
            {"origin": rec.origin, "hb_round": rec.round_no, "ok": ok},
        )
        return ok


# A 4-ring of controllers with a sensor hanging off node 3 (origin 4:
# registered, but never in a mask) and origin 9, which no one registered.
_DEVICE, _STRANGER = 4, 9
_RECIPIENTS = (0, 2)  # both neighbours of senders 1 and 3
_SENDERS = (1, 3)


def _topology() -> Topology:
    topo = Topology()
    for n in range(4):
        topo.add_node(n)
    topo.add_node(_DEVICE, role=ROLE_SENSOR)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0), (3, _DEVICE)):
        topo.add_link(a, b)
    return topo


def _layers(cls, variant: str, record_quota: int):
    topo = _topology()
    directory = Directory(rsa_bits=256, multisig_bits=128, seed=11)
    for n in topo.nodes:
        directory.register(n)
    layers = []
    for node in _RECIPIENTS:
        layer = _make_layer(topo, node, directory, variant=variant, d_max=2, cls=cls)
        layer.quotas.caps["records"] = record_quota
        layers.append(layer)
    return directory, layers


def _sign(directory: Directory, origin: int, round_no: int, delta: int,
          multi: bool) -> bytes:
    if origin == _STRANGER:
        return b"\x01" * 32
    body = heartbeat_body(round_no, delta)
    return directory.crypto_for(origin).sign_record(body, multi)[0]


# The expiry window is d_max + 2 = 4 rounds: offset -5 is expired, offset
# 1 is from the future.  Few origins and offsets make keys collide often.
_SLOT = st.tuples(
    st.sampled_from((1, 2, 3, _DEVICE, _STRANGER)),  # origin
    st.sampled_from((-5, -2, -1, 0, 1)),  # round offset from the receive round
    st.integers(0, 1),  # delta count
    st.integers(0, 3).map(lambda x: x == 0),  # forged signature
)


@st.composite
def _plans(draw):
    """Rounds of messages; a message is (sender, slot picks, as a list?,
    fresh tuple per recipient?).  A record object is pooled by its
    content, so it recurs across messages, rounds and recipients."""
    rounds = draw(st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(_SENDERS),
                st.lists(st.integers(0, 9), max_size=7),
                st.booleans(),
                st.booleans(),
            ),
            max_size=4,
        ),
        min_size=1, max_size=4,
    ))
    slots = draw(st.lists(_SLOT, min_size=10, max_size=10))
    return slots, rounds


def _snapshot(layer: ForwardingLayer) -> Dict[str, Any]:
    quotas = layer.quotas
    return {
        "delivered": {s: dict(b) for s, b in layer._delivered.items()},
        "store": dict(layer.store._records),
        "new": list(layer.store._new_this_round),
        "quota": (dict(quotas._used), set(quotas._dropped), set(quotas.suspects),
                  quotas.total_charged, quotas.total_dropped),
        "counters": layer.crypto.total_counters(),
        "evidence": list(layer.evidence.items()),
        "outbox": list(layer._new_evidence_outbox),
    }


def _run(cls, variant: str, quota: int, plan) -> Tuple[List[Any], List[Any]]:
    slots, rounds = plan
    multi = variant == VARIANT_MULTI
    directory, layers = _layers(cls, variant, quota)
    pool: Dict[Tuple[int, int, int, bool], HeartbeatRecord] = {}
    states, events = [], []
    recorder = FlightRecorder()
    with recorder.recording():
        for offset, messages in enumerate(rounds):
            r = 8 + offset
            for layer in layers:
                layer.begin_round(r)
            for sender, picks, as_list, per_recipient in messages:
                def records():
                    out = []
                    for pick in picks:
                        origin, dr, delta, forged = slots[pick]
                        key = (origin, r + dr, delta, forged)
                        rec = pool.get(key)
                        if rec is None:
                            sig = _sign(directory, origin, r + dr, delta, multi)
                            if forged:
                                sig = bytes([sig[0] ^ 1]) + sig[1:]
                            rec = pool[key] = HeartbeatRecord(*key[:3], sig)
                        out.append(rec)
                    return out if as_list else tuple(out)

                shared = records()
                for layer in layers:
                    # A fresh tuple per recipient, dropped right after the
                    # receive, lets CPython hand its id to the next one.
                    recs = records() if per_recipient else shared
                    msg = RoundMessage(sender, r - 1, recs, (), (), ())
                    layer.receive(r, sender, msg)
                    del msg, recs
            for layer in layers:
                states.append(_snapshot(layer))
                layer.store.drain_new()
                layer.store.expire(r)
    for e in recorder.events():
        events.append((e.kind, e.node, e.round_no, e.seq, e.data))
    return states, events


@settings(max_examples=100, deadline=None)
@given(plan=_plans(), variant=st.sampled_from(("basic", "multi")),
       quota=st.sampled_from((2, 5, 1000)))
def test_column_path_equals_per_record_loop(plan, variant, quota):
    """Same _delivered masks, store and drain order, quota ledger, crypto
    counters, evidence and flight events as the per-record loop."""
    expected = _run(ReferenceLayer, variant, quota, plan)
    got = _run(ForwardingLayer, variant, quota, plan)
    assert got[0] == expected[0]
    assert got[1] == expected[1]


def test_fresh_tuple_reusing_an_id_gets_its_own_column():
    """Two messages in one round whose record tuples are built and freed
    one after the other: the second must not read the first's column."""
    directory, (layer, _other) = _layers(ForwardingLayer, "basic", 1000)
    rec_a = HeartbeatRecord(2, 1, 0, _sign(directory, 2, 1, 0, False))
    rec_b = HeartbeatRecord(2, 1, 3, _sign(directory, 2, 1, 3, False))
    layer.begin_round(2)
    layer.receive(2, 1, RoundMessage(1, 1, tuple([rec_a]), (), (), ()))
    layer.receive(2, 3, RoundMessage(3, 1, tuple([rec_b]), (), (), ()))
    poms = [i for i in layer.evidence.items() if isinstance(i, EquivocationPoM)]
    assert len(poms) == 1 and poms[0].accused == 2


# -- count guard ---------------------------------------------------------------


def test_recipient_checks_only_the_records_it_lacks(monkeypatch):
    """Fault-free ER-30 BASIC: per recipient and round, store lookups and
    record verifications each equal the records new to that recipient
    (counted, not timed).  The per-record loop paid a lookup per copy."""
    topo = erdos_renyi_topology(30, seed=3)
    workload = WorkloadGenerator(seed=3, chain_length_range=(1, 2)).workload(
        target_utilization=1.0
    )
    config = ReboundConfig(fmax=0, fconc=0, variant="basic", rsa_bits=256)
    system = ReboundSystem(topo, workload, config, seed=3)
    lookups: Dict[int, int] = {}

    def counted(method):
        def wrapper(store, *args):
            lookups[store.owner] = lookups.get(store.owner, 0) + 1
            return method(store, *args)
        return wrapper

    monkeypatch.setattr(HeartbeatStore, "get", counted(HeartbeatStore.get))
    monkeypatch.setattr(HeartbeatStore, "holds", counted(HeartbeatStore.holds))
    rows = []
    original = ForwardingLayer.receive_batch

    def receive_batch(layer, batch):
        lookups[layer.node_id] = 0
        stored = len(layer.store)
        verified = layer.crypto.counters["forwarding"].rsa_verify
        original(layer, batch)
        rows.append((
            layer._round, layer.node_id, lookups[layer.node_id],
            layer.crypto.counters["forwarding"].rsa_verify - verified,
            len(layer.store) - stored,
            sum(len(msg.records) for _r, _s, msg in batch),
        ))

    monkeypatch.setattr(ForwardingLayer, "receive_batch", receive_batch)
    for _ in range(12):
        system.run_round()
    steady = [row for row in rows if row[0] > 6]
    assert steady
    for round_no, node, looked_up, verified, new, copies in steady:
        assert looked_up == verified == new, (round_no, node)
    # The saving is real: recipients receive several copies of each record.
    assert sum(row[5] for row in steady) > 3 * sum(row[4] for row in steady)
