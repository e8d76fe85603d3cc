"""Integrity layer of the result store: envelopes, quarantine, audits.

The store's self-healing contract: corruption is a *miss*, never an
error — a corrupt on-disk entry is quarantined and transparently
recomputed — and a failing disk degrades the store to memory-only
without failing a single request.  These tests pin that contract at the
store API plus the ``repro serve-store`` offline audits behind it.
"""

import json
import os

import pytest

from repro.resilience import ChaosPolicy
from repro.serve.store import (
    QUARANTINE_DIR,
    STORE_SCHEMA,
    ResultStore,
    decode_entry,
    encode_entry,
)

KEY_A = "aa" + "1" * 62
KEY_B = "bb" + "2" * 62
BODY = '{"result":"gathered"}\n'


def fresh_disk_store(tmp_path, **kwargs) -> ResultStore:
    return ResultStore(str(tmp_path / "store"), **kwargs)


def corrupt_on_disk(store: ResultStore, key: str) -> None:
    """Flip body bytes under the envelope's nose (simulated bit rot)."""
    path = store._path(key)
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(raw.replace("gathered", "tampered"))


class TestEnvelope:
    def test_round_trip(self):
        raw = encode_entry(BODY)
        header = json.loads(raw.split("\n", 1)[0])
        assert header["schema"] == STORE_SCHEMA
        assert len(header["sha256"]) == 64
        assert decode_entry(raw) == BODY

    def test_tampered_body_is_rejected(self):
        raw = encode_entry(BODY).replace("gathered", "tampered")
        assert decode_entry(raw) is None

    def test_truncated_envelope_is_rejected(self):
        header_only = encode_entry(BODY).split("\n", 1)[0]
        assert decode_entry(header_only) is None

    def test_raw_bodies_are_rejected(self):
        # A body without its envelope carries no digest to verify, so
        # it is corrupt like any other unverifiable entry.
        assert decode_entry(BODY.rstrip("\n")) is None
        assert decode_entry('{"a":1}\n{"b":2}\n') is None


class TestSelfHealing:
    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path):
        store = fresh_disk_store(tmp_path)
        store.put(KEY_A, BODY)
        corrupt_on_disk(store, KEY_A)

        # A fresh store (no memory copy) must detect the corruption,
        # report a miss, and move the file out of the serving path.
        reopened = ResultStore(store.root)
        assert reopened.get(KEY_A) is None
        assert reopened.quarantined == 1
        assert not os.path.exists(reopened._path(KEY_A))
        quarantine = os.path.join(store.root, QUARANTINE_DIR)
        assert len(os.listdir(quarantine)) == 1

        # The caller recomputes and the key serves again, verified.
        reopened.put(KEY_A, BODY)
        assert ResultStore(store.root).get(KEY_A) == BODY

    def test_put_survives_unwritable_root(self, tmp_path):
        # Regression: a failing disk write must degrade to memory-only,
        # never raise out of the request handler.  chmod tricks don't
        # bind as root, so the unwritable root is a path whose parent
        # is a regular file (makedirs -> NotADirectoryError ⊂ OSError).
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not directory")
        store = ResultStore(str(blocker / "store"))
        store.put(KEY_A, BODY)  # must not raise
        assert store.write_errors == 1
        assert store.get(KEY_A) == BODY  # memory still serves
        # Later writes keep degrading silently (warning fired once).
        store.put(KEY_B, BODY)
        assert store.write_errors == 2

    def test_chaos_write_fault_degrades_to_memory(self, tmp_path):
        chaos = ChaosPolicy(seed=1, store_write=1.0)
        store = fresh_disk_store(tmp_path, chaos=chaos)
        store.put(KEY_A, BODY)
        assert store.write_errors == 1
        assert store.get(KEY_A) == BODY  # memory hit
        assert not os.path.exists(store._path(KEY_A))

    def test_chaos_read_fault_is_a_miss_then_heals(self, tmp_path):
        # Pick a chaos seed whose schedule fails attempt 0 but not
        # attempt 1 for this key: the fault must be transient through
        # the *same* code path, so the retry (the recompute's next
        # lookup) heals without special-casing.
        for seed in range(200):
            policy = ChaosPolicy(seed=seed, store_read=0.6)
            if policy.decide_serve(
                "store_read", KEY_A, 0
            ) and not policy.decide_serve("store_read", KEY_A, 1):
                break
        else:  # pragma: no cover - 200 seeds always yield one
            pytest.fail("no suitable chaos seed found")
        store = fresh_disk_store(tmp_path, chaos=policy)
        store.put(KEY_A, BODY)
        # Drop the memory copy so the read goes to disk.
        store._memory.clear()
        assert store.get(KEY_A) is None  # attempt 0: injected OSError
        assert store.read_errors == 1
        assert store.get(KEY_A) == BODY  # attempt 1: healed
        assert store.quarantined == 0  # a read fault is not corruption

    def test_uncounted_get_leaves_counters_alone(self, tmp_path):
        store = fresh_disk_store(tmp_path)
        store.put(KEY_A, BODY)
        assert store.get(KEY_A, count=False) == BODY
        assert store.get(KEY_B, count=False) is None
        assert store.hits == 0
        assert store.misses == 0


class TestOfflineAudits:
    def test_verify_reports_and_repairs(self, tmp_path):
        store = fresh_disk_store(tmp_path)
        store.put(KEY_A, BODY)
        store.put(KEY_B, BODY)
        corrupt_on_disk(store, KEY_A)

        report = ResultStore(store.root).verify_disk(repair=False)
        assert report["checked"] == 2
        assert report["corrupt"] == 1
        assert report["quarantined"] == 0
        assert report["corrupt_keys"] == [KEY_A]
        assert os.path.exists(store._path(KEY_A))  # report-only

        report = ResultStore(store.root).verify_disk(repair=True)
        assert report["quarantined"] == 1
        assert not os.path.exists(store._path(KEY_A))
        assert ResultStore(store.root).verify_disk()["corrupt"] == 0

    def test_raw_entry_is_quarantined_recomputed_and_counted_corrupt(
        self, tmp_path
    ):
        store = fresh_disk_store(tmp_path)
        path = store._path(KEY_A)
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(BODY)  # a body without its envelope
        report = ResultStore(store.root).verify_disk(repair=False)
        assert report["corrupt"] == 1 and report["ok"] == 0
        assert "legacy" not in report

        # The serving path quarantines it and reports a miss; the
        # caller recomputes and the key serves again, verified.
        reopened = ResultStore(store.root)
        assert reopened.get(KEY_A) is None
        assert reopened.quarantined == 1
        reopened.put(KEY_A, BODY)
        assert ResultStore(store.root).get(KEY_A) == BODY
        assert ResultStore(store.root).verify_disk()["corrupt"] == 0

    def test_gc_removes_quarantine_and_temp_debris(self, tmp_path):
        store = fresh_disk_store(tmp_path)
        store.put(KEY_A, BODY)
        store.put(KEY_B, BODY)
        corrupt_on_disk(store, KEY_A)
        ResultStore(store.root).verify_disk(repair=True)
        stray = os.path.join(store.root, KEY_B[:2], "leftover.tmp")
        with open(stray, "w", encoding="utf-8") as handle:
            handle.write("writer died mid-rename")

        report = ResultStore(store.root).gc_disk()
        assert report["removed"] == 2
        assert report["freed_bytes"] > 0
        assert not os.path.exists(stray)
        assert os.listdir(os.path.join(store.root, QUARANTINE_DIR)) == []
        # The healthy entry is untouched.
        assert ResultStore(store.root).get(KEY_B) == BODY

    def test_disk_stats(self, tmp_path):
        store = fresh_disk_store(tmp_path)
        store.put(KEY_A, BODY)
        store.put(KEY_B, BODY)
        corrupt_on_disk(store, KEY_A)
        ResultStore(store.root).verify_disk(repair=True)
        stats = ResultStore(store.root).disk_stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["quarantined"] == 1

    def test_audits_on_missing_root_are_empty(self, tmp_path):
        store = ResultStore(str(tmp_path / "never-created"))
        assert store.verify_disk()["checked"] == 0
        assert store.gc_disk()["removed"] == 0
        assert store.disk_stats()["entries"] == 0
