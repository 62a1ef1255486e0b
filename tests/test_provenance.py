"""Tests for the artifact cache, trial ledger, and fork bundles."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relab import ENGINE_VERSION
from relab.hashing import sha256_bytes
from relab.manifest import EvalConfig, canonicalize, default_manifest
from relab.provenance import (
    CacheEntry,
    CacheStore,
    IntegrityError,
    ProvenanceError,
    TrialLedger,
    TrialRecord,
    cache_key,
    export_bundle,
    import_bundle,
    record_trial,
    trial_id_for,
)
from relab.registry import DatasetSelector

MANIFEST_DIGEST = "0123456789abcdef" * 4
D_FEATURES = hashlib.sha256(b"features").hexdigest()
D_LABELS = hashlib.sha256(b"labels").hexdigest()

# frozen oracle value: SHA-256 over the documented framing, computed by
# hand with hashlib over (tag, "train", manifest digest, count=2, the two
# digests above, seed=42, "0.2.0"), each field 8-byte big-endian
# length-prefixed
CACHE_KEY_FIXTURE = "261a2c454a78d00ea800be25fc9a151e817f175e756d7bc80b3c85acfb1569bb"

TRIAL_CANON = b'{"experiment_name":"t","seed":7}'
TRIAL_DATA = sorted(
    [hashlib.sha256(b"data-a").hexdigest(), hashlib.sha256(b"data-b").hexdigest()]
)
# frozen the same way over (tag, canonical bytes, "img:1", count=2, the
# two sorted data digests, "0.1.0")
TRIAL_ID_FIXTURE = "902c024ebc9db4c136d1908f51d33ff564701b327bb4a944bce2ca7db22ad57a"


class TestCacheKey:
    def test_frozen_fixture(self):
        key = cache_key("train", MANIFEST_DIGEST, [D_FEATURES, D_LABELS], 42, "0.2.0")
        assert key == CACHE_KEY_FIXTURE

    def test_engine_version_matters(self):
        # stage code of another engine version may write other bytes
        a = cache_key("train", MANIFEST_DIGEST, [D_FEATURES], 1, "0.1.0")
        b = cache_key("train", MANIFEST_DIGEST, [D_FEATURES], 1, "0.2.0")
        assert a != b
        assert cache_key("train", MANIFEST_DIGEST, [D_FEATURES], 1) == cache_key(
            "train", MANIFEST_DIGEST, [D_FEATURES], 1, ENGINE_VERSION
        )

    def test_deterministic(self):
        a = cache_key("train", MANIFEST_DIGEST, [D_FEATURES], 1)
        b = cache_key("train", MANIFEST_DIGEST, [D_FEATURES], 1)
        assert a == b

    def test_seed_sensitivity(self):
        a = cache_key("train", MANIFEST_DIGEST, [D_FEATURES], 42)
        b = cache_key("train", MANIFEST_DIGEST, [D_FEATURES], 43)
        assert a != b

    def test_stage_and_order_sensitivity(self):
        base = cache_key("train", MANIFEST_DIGEST, [D_FEATURES, D_LABELS], 1)
        assert cache_key("test", MANIFEST_DIGEST, [D_FEATURES, D_LABELS], 1) != base
        assert cache_key("train", MANIFEST_DIGEST, [D_LABELS, D_FEATURES], 1) != base

    def test_input_count_unambiguous(self):
        # one digest vs the same bytes split differently can never collide
        a = cache_key("train", MANIFEST_DIGEST, [D_FEATURES], 1)
        b = cache_key("train", MANIFEST_DIGEST, [D_FEATURES, D_FEATURES], 1)
        assert a != b

    def test_rejects_bad_digests_and_seeds(self):
        with pytest.raises(ProvenanceError, match="hex digest"):
            cache_key("train", "XYZ", [], 1)
        with pytest.raises(ProvenanceError, match="hex digest"):
            cache_key("train", MANIFEST_DIGEST, ["nothex"], 1)
        with pytest.raises(ProvenanceError, match="seed"):
            cache_key("train", MANIFEST_DIGEST, [], -1)
        with pytest.raises(ProvenanceError, match="stage"):
            cache_key("", MANIFEST_DIGEST, [], 1)

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    def test_distinct_seeds_distinct_keys(self, s1, s2):
        k1 = cache_key("train", MANIFEST_DIGEST, [], s1)
        k2 = cache_key("train", MANIFEST_DIGEST, [], s2)
        assert (k1 == k2) == (s1 == s2)


class TestTrialId:
    def test_frozen_fixture(self):
        tid = trial_id_for(TRIAL_CANON, "img:1", TRIAL_DATA, "0.1.0")
        assert tid == TRIAL_ID_FIXTURE

    def test_data_digest_order_irrelevant(self):
        a = trial_id_for(TRIAL_CANON, "img:1", TRIAL_DATA, "0.1.0")
        b = trial_id_for(TRIAL_CANON, "img:1", list(reversed(TRIAL_DATA)), "0.1.0")
        assert a == b

    def test_engine_version_matters(self):
        a = trial_id_for(TRIAL_CANON, "img:1", TRIAL_DATA, "0.1.0")
        b = trial_id_for(TRIAL_CANON, "img:1", TRIAL_DATA, "0.2.0")
        assert a != b


class TestCacheStore:
    def test_get_on_empty_absent(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        assert store.get("ab" * 32) is None

    def test_put_then_get_round_trip(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        outputs = {"m.json": b'{"auc":1}'}
        key = "cd" * 32
        entry = store.put(key, outputs)
        assert entry.key == key
        assert entry.size_bytes == len(b'{"auc":1}')
        fetched = store.get(key)
        assert fetched == entry

    def test_put_is_idempotent(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        outputs = {"m.json": b"data"}
        key = "cd" * 32
        first = store.put(key, outputs)
        second = store.put(key, outputs)
        assert second == first  # created_at of the first write survives

    def test_conflicting_put_is_integrity_error(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        outputs = {"m.json": b"data"}
        key = "cd" * 32
        store.put(key, outputs)
        with pytest.raises(IntegrityError, match="different outputs"):
            store.put(key, {"m.json": b"DIFFERENT"})

    def test_entry_that_does_not_parse_is_integrity_error(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        outputs = {"m.json": b"data"}
        key = "cd" * 32
        store.put(key, outputs)
        path = store.entries_dir / f"{key}.json"
        whole = path.read_bytes()
        for torn in (whole[: len(whole) // 2], b"", b"[]", b'{"key": 1}'):
            path.write_bytes(torn)
            with pytest.raises(IntegrityError, match="cache entry corrupt on disk"):
                store.get(key)
            with pytest.raises(IntegrityError, match="cache entry corrupt on disk"):
                store.put(key, outputs)

    def test_entry_for_another_key_is_integrity_error(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        outputs = {"m.json": b"data"}
        store.put("cd" * 32, outputs)
        moved = store.entries_dir / f"{'ef' * 32}.json"
        (store.entries_dir / f"{'cd' * 32}.json").rename(moved)
        with pytest.raises(IntegrityError, match=f"corrupt on disk: {moved}"):
            store.get("ef" * 32)

    def test_materialize_restores_bytes(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        files = {"a.csv": b"1,2\n", "sub.json": b"{}"}
        entry = store.put("ab" * 32, files)
        dest = tmp_path / "restore"
        store.materialize(entry, dest)
        for rel, data in files.items():
            assert (dest / rel).read_bytes() == data

    def test_materialize_detects_corrupt_blob(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        entry = store.put("ab" * 32, {"a.csv": b"payload"})
        blob = store.blob_path(entry.output_digests["a.csv"])
        blob.write_bytes(b"tampered")
        with pytest.raises(IntegrityError, match="corrupt"):
            store.materialize(entry, tmp_path / "restore")

    def test_blob_round_trip_and_missing(self, tmp_path):
        store = CacheStore(tmp_path / "cache")
        digest = store.put_blob(b"hello")
        assert store.get_blob(digest) == b"hello"
        with pytest.raises(ProvenanceError, match="not found"):
            store.get_blob("ef" * 32)

    @pytest.mark.parametrize("failing_write", [1, 2], ids=["blob", "entry"])
    def test_write_torn_midway_leaves_nothing_behind(
        self, tmp_path, monkeypatch, failing_write
    ):
        store = CacheStore(tmp_path / "cache")
        outputs = {"a.csv": b"payload" * 100}
        digests = {"a.csv": sha256_bytes(outputs["a.csv"])}
        key = "ab" * 32
        real_fdopen = os.fdopen
        writes = []

        class TornFile:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                writes.append(data)
                if len(writes) == failing_write:
                    self.f.write(data[: len(data) // 2])
                    self.f.flush()
                    raise OSError("device lost mid-write")
                return self.f.write(data)

        monkeypatch.setattr(
            os, "fdopen", lambda fd, mode: TornFile(real_fdopen(fd, mode))
        )
        with pytest.raises(OSError, match="mid-write"):
            store.put(key, outputs)
        monkeypatch.undo()

        blob = store.blob_path(digests["a.csv"])
        assert blob.exists() == (failing_write == 2)
        assert store.get(key) is None
        assert not (store.entries_dir / f"{key}.json").exists()
        assert not list(store.root.rglob("*.tmp"))

        entry = store.put(key, outputs)
        assert store.get(key) == entry
        assert entry.output_digests == digests
        assert store.get_blob(digests["a.csv"]) == b"payload" * 100

    def test_writers_past_every_existence_check_bind_one_output(
        self, tmp_path, monkeypatch
    ):
        # two stores on one root, as two processes would hold them; each
        # looks for the entry before the other has published it
        first, second = CacheStore(tmp_path / "cache"), CacheStore(tmp_path / "cache")
        key = "cd" * 32
        entries = first.entries_dir
        for name in ("exists", "is_file"):
            real = getattr(Path, name)
            monkeypatch.setattr(
                Path, name,
                lambda path, real=real: path.parent != entries and real(path),
            )
        first.put(key, {"m.json": b"A"})
        with pytest.raises(IntegrityError, match="different outputs"):
            second.put(key, {"m.json": b"B"})
        monkeypatch.undo()
        assert CacheStore(tmp_path / "cache").get(key).output_digests == {
            "m.json": sha256_bytes(b"A")
        }

    def test_concurrent_writer_processes_share_one_store(self, tmp_path):
        # more writers than cores, each storing the same blobs in the same
        # order, so that they race on every blob path
        script = (
            "import sys\n"
            "from relab.provenance import CacheStore\n"
            "store = CacheStore(sys.argv[1])\n"
            "for i in range(40):\n"
            "    store.put_blob(bytes([i]) * 200_000)\n"
        )
        root = tmp_path / "cache"
        writers = [
            subprocess.Popen([sys.executable, "-c", script, str(root)])
            for _ in range(max(4, 2 * (os.cpu_count() or 1)))
        ]
        for proc in writers:
            assert proc.wait(timeout=120) == 0
        store = CacheStore(root)
        for i in range(40):
            data = bytes([i]) * 200_000
            assert store.get_blob(sha256_bytes(data)) == data
        assert not list(root.rglob("*.tmp"))


def make_manifest(seed=7):
    return default_manifest(
        experiment_name="dropout-week1",
        selector=DatasetSelector(kind="all_courses"),
        eval_config=EvalConfig(scheme="holdout"),
        seed=seed,
        feature_weeks=1,
    )


@dataclass(frozen=True)
class FakeEntry:
    unit_id: str
    stage: str
    output_digests: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class FakeReport:
    phase: str
    data_digests: Tuple[str, ...]
    entries: Tuple[FakeEntry, ...]
    eval_artifacts: Dict[str, str] = field(default_factory=dict)


def eval_digest_of(*metrics_digests):
    """The documented framing: tag, then each course's metrics digest."""
    h = hashlib.sha256()
    for part in (b"relab.eval.v1", *(d.encode("ascii") for d in metrics_digests)):
        h.update(len(part).to_bytes(8, "big") + part)
    return h.hexdigest()


def make_report(tmp_path, cache, phase="succeeded"):
    """A minimal two-unit report whose artifact bytes live in the cache."""
    files = {
        "u-extract": {"features.csv": b"f1,f2\n1,2\n"},
        "u-evaluate": {"metrics.json": b'{"auc": 0.9}'},
    }
    entries = []
    for unit_id, outs in sorted(files.items()):
        digests = {}
        for rel, data in outs.items():
            digests[rel] = cache.put_blob(data)
        stage = unit_id.split("-", 1)[1]
        entries.append(FakeEntry(unit_id=unit_id, stage=stage, output_digests=digests))
    return FakeReport(
        phase=phase,
        data_digests=tuple(TRIAL_DATA),
        entries=tuple(entries),
        eval_artifacts={"course000": entries[0].output_digests["metrics.json"]},
    )


class TestRecordTrial:
    def test_successful_job_recorded(self, tmp_path):
        cache = CacheStore(tmp_path / "cache")
        ledger = TrialLedger(tmp_path / "ledger.jsonl")
        manifest = make_manifest()
        report = make_report(tmp_path, cache)
        record = record_trial(ledger, report, manifest, cache=cache)
        expected = trial_id_for(
            canonicalize(manifest), manifest.image_ref, TRIAL_DATA
        )
        assert record.trial_id == expected
        assert record.engine_version == ENGINE_VERSION
        assert record.parent_trial_id is None
        assert record.eval_digest == eval_digest_of(sha256_bytes(b'{"auc": 0.9}'))
        assert ledger.get(record.trial_id) == record

    def test_eval_digest_covers_every_course_in_course_order(self, tmp_path):
        cache = CacheStore(tmp_path / "cache")
        ledger = TrialLedger(tmp_path / "ledger.jsonl")
        a, b = sha256_bytes(b'{"auc": 0.7}'), sha256_bytes(b'{"auc": 0.8}')
        report = replace(
            make_report(tmp_path, cache),
            eval_artifacts={"course001": b, "course000": a},
        )
        record = record_trial(ledger, report, make_manifest(), cache=cache)
        assert record.eval_digest == eval_digest_of(a, b)

    def test_re_record_returns_same_trial(self, tmp_path):
        cache = CacheStore(tmp_path / "cache")
        ledger = TrialLedger(tmp_path / "ledger.jsonl")
        manifest = make_manifest()
        report = make_report(tmp_path, cache)
        first = record_trial(ledger, report, manifest, cache=cache)
        second = record_trial(ledger, report, manifest, cache=cache)
        assert second == first
        assert len(ledger.records()) == 1

    def test_failed_job_rejected(self, tmp_path):
        cache = CacheStore(tmp_path / "cache")
        ledger = TrialLedger(tmp_path / "ledger.jsonl")
        report = make_report(tmp_path, cache, phase="failed")
        with pytest.raises(ProvenanceError, match="succeeded"):
            record_trial(ledger, report, make_manifest(), cache=cache)

    def test_seed_changes_trial_id(self, tmp_path):
        cache = CacheStore(tmp_path / "cache")
        ledger = TrialLedger(tmp_path / "ledger.jsonl")
        report = make_report(tmp_path, cache)
        a = record_trial(ledger, report, make_manifest(seed=7), cache=cache)
        b = record_trial(ledger, report, make_manifest(seed=8), cache=cache)
        assert a.trial_id != b.trial_id
        assert len(ledger.records()) == 2


class TestTrialLedger:
    def test_persists_across_reopen(self, tmp_path):
        cache = CacheStore(tmp_path / "cache")
        path = tmp_path / "ledger.jsonl"
        record = record_trial(
            TrialLedger(path), make_report(tmp_path, cache), make_manifest(),
            cache=cache,
        )
        reopened = TrialLedger(path)
        assert reopened.get(record.trial_id) == record
        assert reopened.records() == (record,)

    def test_append_only_file(self, tmp_path):
        cache = CacheStore(tmp_path / "cache")
        path = tmp_path / "ledger.jsonl"
        ledger = TrialLedger(path)
        record_trial(ledger, make_report(tmp_path, cache), make_manifest(), cache=cache)
        size_one = path.stat().st_size
        record_trial(
            ledger, make_report(tmp_path, cache), make_manifest(seed=9), cache=cache
        )
        assert path.stat().st_size > size_one
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_conflicting_content_same_id_rejected(self, tmp_path):
        ledger = TrialLedger(tmp_path / "ledger.jsonl")
        base = TrialRecord(
            trial_id="ab" * 32,
            manifest_digest="cd" * 32,
            image_ref="img:1",
            data_digests=(),
            stage_digests={},
            eval_digest="",
            engine_version="0.1.0",
            created_at="2026-01-01T00:00:00+00:00",
        )
        ledger.append(base)
        clashing = TrialRecord(
            trial_id="ab" * 32,
            manifest_digest="ef" * 32,
            image_ref="img:1",
            data_digests=(),
            stage_digests={},
            eval_digest="",
            engine_version="0.1.0",
            created_at="2026-01-01T00:00:00+00:00",
        )
        with pytest.raises(IntegrityError, match="different content"):
            ledger.append(clashing)

    def test_metadata_not_content(self, tmp_path):
        # same content, later timestamp: the stored record wins untouched
        ledger = TrialLedger(tmp_path / "ledger.jsonl")
        base = TrialRecord(
            trial_id="ab" * 32,
            manifest_digest="cd" * 32,
            image_ref="img:1",
            data_digests=(),
            stage_digests={},
            eval_digest="",
            engine_version="0.1.0",
            created_at="2026-01-01T00:00:00+00:00",
        )
        ledger.append(base)
        from dataclasses import replace

        again = replace(base, created_at="2027-01-01T00:00:00+00:00")
        assert ledger.append(again) == base


class TestLedgerIsTheFile:
    """The ledger keeps no copy of its file; every call reads it."""

    def test_record_appended_by_another_ledger_is_seen(self, tmp_path):
        cache = CacheStore(tmp_path / "cache")
        path = tmp_path / "ledger.jsonl"
        reader = TrialLedger(path)
        assert reader.records() == ()
        record = record_trial(
            TrialLedger(path), make_report(tmp_path, cache), make_manifest(),
            cache=cache,
        )
        assert reader.get(record.trial_id) == record
        assert reader.records() == (record,)
        assert reader.append(record) == record
        assert len(path.read_bytes().splitlines()) == 1

    def test_torn_tail_cut_before_the_next_append(self, tmp_path):
        cache = CacheStore(tmp_path / "cache")
        path = tmp_path / "ledger.jsonl"
        ledger = TrialLedger(path)
        first = record_trial(
            ledger, make_report(tmp_path, cache), make_manifest(), cache=cache
        )
        with open(path, "ab") as fh:  # a writer killed mid-append
            fh.write(b'{"trial_id": "ab')
        assert TrialLedger(path).records() == (first,)
        second = record_trial(
            ledger, make_report(tmp_path, cache), make_manifest(seed=9), cache=cache
        )
        assert TrialLedger(path).records() == (first, second)

    def test_threads_appending_one_ledger_store_each_id_once(self, tmp_path):
        ledger = TrialLedger(tmp_path / "ledger.jsonl")
        base = TrialRecord(
            trial_id="", manifest_digest="cd" * 32, image_ref="img:1",
            data_digests=(), stage_digests={}, eval_digest="",
            engine_version="0.1.0", created_at="2026-01-01T00:00:00+00:00",
        )
        records = [replace(base, trial_id=f"{i:064x}") for i in range(40)]
        start = threading.Barrier(16)

        def append_all():
            start.wait(timeout=60)
            for record in records:
                ledger.append(record)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=append_all) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        lines = ledger.path.read_bytes().splitlines()
        assert sorted(json.loads(line)["trial_id"] for line in lines) == [
            r.trial_id for r in records
        ]

    def test_two_ledgers_on_one_file_store_each_id_once(self, tmp_path):
        # one ledger object per thread, as each process holds its own
        path = tmp_path / "ledger.jsonl"
        base = TrialRecord(
            trial_id="", manifest_digest="cd" * 32, image_ref="img:1",
            data_digests=(), stage_digests={}, eval_digest="",
            engine_version="0.1.0", created_at="2026-01-01T00:00:00+00:00",
        )
        records = [replace(base, trial_id=f"{i:064x}") for i in range(200)]
        start = threading.Barrier(2)

        def append_all():
            ledger = TrialLedger(path)
            start.wait(timeout=60)
            for record in records:
                ledger.append(record)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=append_all) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        lines = path.read_bytes().splitlines()
        assert [json.loads(line)["trial_id"] for line in lines] == [
            r.trial_id for r in records
        ]


class TestBundles:
    def setup_trial(self, tmp_path):
        cache = CacheStore(tmp_path / "cache")
        ledger = TrialLedger(tmp_path / "ledger.jsonl")
        manifest = make_manifest()
        report = make_report(tmp_path, cache)
        record = record_trial(ledger, report, manifest, cache=cache)
        return cache, ledger, record

    def test_export_is_byte_reproducible(self, tmp_path):
        cache, ledger, record = self.setup_trial(tmp_path)
        _, digest_a = export_bundle(ledger, cache, record.trial_id, tmp_path / "a.tar")
        _, digest_b = export_bundle(ledger, cache, record.trial_id, tmp_path / "b.tar")
        assert digest_a == digest_b
        assert (tmp_path / "a.tar").read_bytes() == (tmp_path / "b.tar").read_bytes()

    def test_concurrent_exports_to_one_path_each_read_a_whole_archive(self, tmp_path):
        # `GET /trials/{id}/bundle` exports every request for a trial to one
        # path, from the threads of one server; a larger member makes each
        # archive take many writes
        cache = CacheStore(tmp_path / "cache")
        ledger = TrialLedger(tmp_path / "ledger.jsonl")
        report = make_report(tmp_path, cache)
        big = FakeEntry("u-test", "test", {"p.csv": cache.put_blob(b"0.5\n" * 65536)})
        report = replace(report, entries=report.entries + (big,))
        record = record_trial(ledger, report, make_manifest(), cache=cache)
        dest = tmp_path / "bundles" / "t.tar"
        bodies = []

        def export(start):
            start.wait(timeout=60)
            path, digest = export_bundle(ledger, cache, record.trial_id, dest)
            bodies.append((digest, path.read_bytes()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                start = threading.Barrier(4)
                threads = [threading.Thread(target=export, args=(start,))
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert len(bodies) == 80
        assert all(sha256_bytes(body) == digest for digest, body in bodies)
        assert len(set(bodies)) == 1
        assert os.listdir(dest.parent) == ["t.tar"]

    def test_unknown_trial_rejected(self, tmp_path):
        cache, ledger, _ = self.setup_trial(tmp_path)
        with pytest.raises(ProvenanceError, match="unknown trial"):
            export_bundle(ledger, cache, "ab" * 32, tmp_path / "x.tar")

    def test_round_trip_into_fresh_store(self, tmp_path):
        cache, ledger, record = self.setup_trial(tmp_path)
        bundle, _ = export_bundle(ledger, cache, record.trial_id, tmp_path / "b.tar")

        cache2 = CacheStore(tmp_path / "cache2")
        ledger2 = TrialLedger(tmp_path / "ledger2.jsonl")
        imported = import_bundle(bundle, ledger2, cache2)

        assert imported.trial_id == record.trial_id
        assert imported.parent_trial_id == record.trial_id
        assert imported.content_fields() == record.content_fields()
        # artifact bytes and the canonical manifest came along
        for digests in record.stage_digests.values():
            for digest in digests.values():
                assert cache2.get_blob(digest) == cache.get_blob(digest)
        assert cache2.get_blob(record.manifest_digest)

    def test_reimport_into_origin_is_noop(self, tmp_path):
        cache, ledger, record = self.setup_trial(tmp_path)
        bundle, _ = export_bundle(ledger, cache, record.trial_id, tmp_path / "b.tar")
        result = import_bundle(bundle, ledger, cache)
        assert result == record  # original parent link (None) preserved
        assert len(ledger.records()) == 1

    def test_tampered_output_names_failing_path(self, tmp_path):
        cache, ledger, record = self.setup_trial(tmp_path)
        bundle, _ = export_bundle(ledger, cache, record.trial_id, tmp_path / "b.tar")
        raw = bytearray(bundle.read_bytes())
        idx = raw.find(b'{"auc": 0.9}')
        assert idx != -1
        raw[idx + 2] ^= 0x01  # flip one payload byte
        tampered = tmp_path / "tampered.tar"
        tampered.write_bytes(bytes(raw))

        ledger2 = TrialLedger(tmp_path / "ledger2.jsonl")
        cache2 = CacheStore(tmp_path / "cache2")
        with pytest.raises(IntegrityError, match="outputs/u-evaluate/metrics.json"):
            import_bundle(tampered, ledger2, cache2)
        assert ledger2.records() == ()

    def test_tampered_manifest_rejected(self, tmp_path):
        cache, ledger, record = self.setup_trial(tmp_path)
        bundle, _ = export_bundle(ledger, cache, record.trial_id, tmp_path / "b.tar")
        raw = bytearray(bundle.read_bytes())
        idx = raw.find(b'"seed":7')
        assert idx != -1
        raw[idx + 7] = ord("8")
        tampered = tmp_path / "tampered.tar"
        tampered.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="manifest"):
            import_bundle(
                tampered,
                TrialLedger(tmp_path / "l2.jsonl"),
                CacheStore(tmp_path / "c2"),
            )

    def test_trial_json_with_an_unknown_field_rejected(self, tmp_path):
        cache, ledger, record = self.setup_trial(tmp_path)
        bundle, _ = export_bundle(ledger, cache, record.trial_id, tmp_path / "b.tar")
        extended = tmp_path / "extended.tar"
        with tarfile.open(bundle) as src, tarfile.open(extended, "w") as dst:
            for info in src.getmembers():
                data = src.extractfile(info).read()
                if info.name == "trial.json":
                    data = json.dumps(dict(json.loads(data), note="x")).encode()
                    info.size = len(data)
                dst.addfile(info, io.BytesIO(data))
        ledger2 = TrialLedger(tmp_path / "l2.jsonl")
        with pytest.raises(IntegrityError, match="trial.json is not a trial record"):
            import_bundle(extended, ledger2, CacheStore(tmp_path / "c2"))
        assert ledger2.records() == ()

    def test_unsafe_member_rejected(self, tmp_path):
        evil = tmp_path / "evil.tar"
        with tarfile.open(evil, "w") as tar:
            info = tarfile.TarInfo(name="../escape.txt")
            data = b"x"
            info.size = len(data)
            tar.addfile(info, io.BytesIO(data))
        with pytest.raises(IntegrityError, match="unsafe"):
            import_bundle(
                evil, TrialLedger(tmp_path / "l.jsonl"), CacheStore(tmp_path / "c")
            )

    def test_missing_output_member_rejected(self, tmp_path):
        cache, ledger, record = self.setup_trial(tmp_path)
        bundle, _ = export_bundle(ledger, cache, record.trial_id, tmp_path / "b.tar")
        pruned = tmp_path / "pruned.tar"
        with tarfile.open(bundle) as src, tarfile.open(pruned, "w") as dst:
            for info in src.getmembers():
                if info.name.endswith("metrics.json"):
                    continue
                dst.addfile(info, src.extractfile(info))
        with pytest.raises(IntegrityError, match="missing outputs/u-evaluate"):
            import_bundle(
                pruned, TrialLedger(tmp_path / "l2.jsonl"), CacheStore(tmp_path / "c2")
            )
