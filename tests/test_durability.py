"""Unit tests for the durability layer (docs/PROTOCOL.md S14).

Covers the HMAC chain primitives, the anchored append-only log (every
tamper mode: bit-flip, truncation, splice, cross-node key), and the
store's refuse-and-rollback restore path.
"""

import json

import pytest

from repro.core.evidence import LFD
from repro.durability import (
    GENESIS,
    ChainedEventLog,
    NodeDurableStore,
    TamperDetected,
    chain_tag,
    derive_key,
)
from repro.durability.chain import canonical_body
from repro.durability.log import head_path
from repro.obs.events import (
    EV_PERSIST_EVIDENCE,
    EV_PERSIST_SNAPSHOT,
    validate_record,
)

KEY = derive_key(0, 1)


def _log(tmp_path, key=KEY, name="events.log"):
    return ChainedEventLog(str(tmp_path / name), key)


def _filled_log(tmp_path, n=5, key=KEY):
    log = _log(tmp_path, key=key)
    for i in range(n):
        log.append(EV_PERSIST_EVIDENCE, 1, i // 2, {"item": "LFD", "enc": f"0{i}"})
    log.flush()
    return log


def _lines(log):
    with open(log.path) as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


def _write_lines(log, lines):
    with open(log.path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


class TestChainPrimitives:
    def test_derive_key_is_deterministic_and_distinct(self):
        assert derive_key(0, 1) == derive_key(0, 1)
        assert derive_key(0, 1) != derive_key(0, 2)
        assert derive_key(0, 1) != derive_key(1, 1)
        assert len(derive_key(7, 3)) == 32

    def test_chain_tag_binds_key_prev_and_body(self):
        tag = chain_tag(KEY, GENESIS, b"body")
        assert tag != chain_tag(KEY, GENESIS, b"body2")
        assert tag != chain_tag(KEY, tag, b"body")
        assert tag != chain_tag(derive_key(0, 2), GENESIS, b"body")

    def test_canonical_body_excludes_chain_fields(self):
        record = {"kind": 14, "name": "persist-evidence", "node": 1,
                  "round": 0, "seq": 0, "data": {"x": 1},
                  "prev": "aa", "tag": "bb"}
        body = json.loads(canonical_body(record))
        assert "prev" not in body and "tag" not in body


class TestChainedLog:
    def test_append_flush_verify_roundtrip(self, tmp_path):
        log = _filled_log(tmp_path)
        records = log.verify()
        assert len(records) == 5
        prev = GENESIS.hex()
        for record in records:
            assert record["prev"] == prev
            prev = record["tag"]
            # chained records are still schema-valid flight-recorder events
            validate_record({k: v for k, v in record.items()
                             if k not in ("prev", "tag")})

    def test_resync_continues_the_chain_across_restart(self, tmp_path):
        _filled_log(tmp_path, n=3)
        reopened = _log(tmp_path)
        reopened.resync()
        assert reopened.count == 3
        reopened.append(EV_PERSIST_EVIDENCE, 1, 9, {"item": "LFD", "enc": "ff"})
        reopened.flush()
        assert len(_log(tmp_path).verify()) == 4

    def test_bitflip_detected_at_the_record(self, tmp_path):
        log = _filled_log(tmp_path)
        lines = _lines(log)
        lines[2] = lines[2].replace('"enc": "02"', '"enc": "09"').replace('"enc":"02"', '"enc":"09"')
        _write_lines(log, lines)
        with pytest.raises(TamperDetected) as exc:
            _log(tmp_path).verify()
        assert exc.value.index == 2
        prefix, error = _log(tmp_path).verified_prefix()
        assert len(prefix) == 2 and error is not None

    def test_truncation_caught_by_the_head_anchor(self, tmp_path):
        log = _filled_log(tmp_path)
        _write_lines(log, _lines(log)[:-1])
        with pytest.raises(TamperDetected) as exc:
            _log(tmp_path).verify()
        assert "anchor" in str(exc.value)
        prefix, error = _log(tmp_path).verified_prefix()
        assert len(prefix) == 4 and error is not None

    def test_splice_breaks_the_prev_link(self, tmp_path):
        log = _filled_log(tmp_path)
        lines = _lines(log)
        lines.append(lines[2])
        _write_lines(log, lines)
        with pytest.raises(TamperDetected, match="prev-digest"):
            _log(tmp_path).verify()

    def test_cross_node_key_rejects_a_foreign_log(self, tmp_path):
        _filled_log(tmp_path, key=derive_key(0, 1))
        with pytest.raises(TamperDetected, match="HMAC"):
            _log(tmp_path, key=derive_key(0, 2)).verify()

    def test_missing_log_with_nonempty_anchor_is_tamper(self, tmp_path):
        import os

        log = _filled_log(tmp_path, n=2)
        os.remove(log.path)
        with pytest.raises(TamperDetected, match="missing"):
            _log(tmp_path).verify()

    def test_malformed_head_anchor_is_tamper(self, tmp_path):
        log = _filled_log(tmp_path, n=1)
        with open(head_path(log.path), "w") as fh:
            fh.write('{"count": "x", "tag": 3}\n')
        with pytest.raises(TamperDetected, match="anchor"):
            _log(tmp_path).verify()

    def test_empty_log_verifies(self, tmp_path):
        assert _log(tmp_path).verify() == []


def _items(n=3):
    return [
        LFD(a=1, b=2, declared_round=3 + i, issuer=1, signature=b"sig")
        for i in range(n)
    ]


class TestStoreRestore:
    """Store-level restore: the verified chain decoded back to evidence."""

    def _store(self, tmp_path):
        return NodeDurableStore(str(tmp_path), 1, seed=0, snapshot_interval=8)

    def test_evidence_roundtrips_through_the_chain(self, tmp_path):
        store = self._store(tmp_path)
        store.record_evidence(4, _items())
        store.flush()
        result = self._store(tmp_path).load()
        assert not result.tampered
        assert result.snapshot_round is None  # no snapshot record yet
        assert len(result.evidence) == 3
        assert all(isinstance(item, LFD) for item in result.evidence)
        assert [item.declared_round for item in result.evidence] == [3, 4, 5]

    def test_tampered_suffix_is_refused_and_rolled_back(self, tmp_path):
        store = self._store(tmp_path)
        store.record_evidence(4, _items(4))
        store.flush()
        lines = _lines(store.log)
        raw = bytearray(lines[2].encode())
        raw[len(raw) // 2] ^= 0x01
        lines[2] = raw.decode("utf-8", errors="replace")
        _write_lines(store.log, lines)

        result = self._store(tmp_path).load()
        assert result.tampered
        assert "log" in result.tamper_reason
        assert result.verified_records == 2
        assert result.refused_records == 2
        assert len(result.evidence) == 2

        # The rollback landed: a second cold open sees a clean chain of
        # exactly the verified prefix.
        again = self._store(tmp_path).load()
        assert not again.tampered
        assert again.verified_records == 2

    def test_continuation_after_rollback_chains_cleanly(self, tmp_path):
        store = self._store(tmp_path)
        store.record_evidence(4, _items(3))
        store.flush()
        _write_lines(store.log, _lines(store.log)[:-1])  # truncate

        reopened = self._store(tmp_path)
        result = reopened.load()
        assert result.tampered and result.verified_records == 2
        reopened.record_evidence(5, _items(1))
        reopened.flush()
        final = self._store(tmp_path).load()
        assert not final.tampered
        assert final.verified_records == 3

    def test_snapshot_interval_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            NodeDurableStore(str(tmp_path), 1, snapshot_interval=0)
