"""Tests for digest primitives and canonical JSON serialization."""

from __future__ import annotations

import fcntl
import hashlib
import json
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from relab import hashing


class TestSha256:
    def test_known_vectors(self):
        assert (
            hashing.sha256_bytes(b"")
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )
        assert (
            hashing.sha256_bytes(b"abc")
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_lowercase_hex(self):
        digest = hashing.sha256_bytes(b"anything")
        assert digest == digest.lower()
        assert len(digest) == hashing.HEX_DIGEST_LEN

    def test_file_digest_matches_bytes(self, tmp_path):
        payload = bytes(range(256)) * 5000  # crosses the chunk boundary
        path = tmp_path / "blob.bin"
        path.write_bytes(payload)
        assert hashing.sha256_file(path) == hashing.sha256_bytes(payload)

    def test_is_hex_digest(self):
        assert hashing.is_hex_digest("0" * 64)
        assert hashing.is_hex_digest(hashing.sha256_bytes(b"x"))
        assert not hashing.is_hex_digest("0" * 63)
        assert not hashing.is_hex_digest("G" * 64)
        assert not hashing.is_hex_digest("A" * 64)  # uppercase rejected


class TestLengthPrefix:
    def test_layout(self):
        assert hashing.lp(b"abc") == (3).to_bytes(8, "big") + b"abc"
        assert hashing.lp(b"") == (0).to_bytes(8, "big")

    def test_concat_blocks_boundary_shifts(self):
        # without prefixes ("ab","c") and ("a","bc") would collide
        a = hashing.sha256_concat(b"ab", b"c")
        b = hashing.sha256_concat(b"a", b"bc")
        assert a != b

    def test_concat_order_sensitive(self):
        assert hashing.sha256_concat(b"x", b"y") != hashing.sha256_concat(b"y", b"x")

    def test_concat_matches_manual(self):
        manual = hashlib.sha256(hashing.lp(b"u") + hashing.lp(b"vw")).hexdigest()
        assert hashing.sha256_concat(b"u", b"vw") == manual

    @given(st.lists(st.binary(max_size=32), min_size=1, max_size=6))
    def test_concat_deterministic(self, fields):
        assert hashing.sha256_concat(*fields) == hashing.sha256_concat(*fields)


class TestCanonicalJson:
    def test_sorted_and_minified(self):
        obj = {"b": 1, "a": [1, 2, {"z": None, "y": True}]}
        assert (
            hashing.canonical_json_bytes(obj)
            == b'{"a":[1,2,{"y":true,"z":null}],"b":1}'
        )

    def test_utf8_not_escaped(self):
        assert hashing.canonical_json_bytes({"s": "héllo"}) == (
            '{"s":"héllo"}'.encode("utf-8")
        )

    def test_insertion_order_irrelevant(self):
        a = hashing.canonical_json_bytes({"x": 1, "y": 2})
        b = hashing.canonical_json_bytes({"y": 2, "x": 1})
        assert a == b

    @given(
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(st.integers(), st.booleans(), st.none(), st.text(max_size=8)),
            max_size=8,
        )
    )
    def test_round_trips_through_json(self, obj):
        data = hashing.canonical_json_bytes(obj)
        assert json.loads(data.decode("utf-8")) == obj


class TestJsonl:
    def test_missing_file_reads_empty(self, tmp_path):
        assert hashing.read_jsonl(tmp_path / "absent.jsonl") == []

    def test_append_writes_one_sorted_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        hashing.append_jsonl(path, {"b": 1, "a": "x"})
        hashing.append_jsonl(path, {"c": [1, 2]})
        assert path.read_bytes() == b'{"a": "x", "b": 1}\n{"c": [1, 2]}\n'
        assert hashing.read_jsonl(path) == [{"a": "x", "b": 1}, {"c": [1, 2]}]

    def test_torn_last_line_cut_and_next_append_on_its_own_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        hashing.append_jsonl(path, {"n": 1})
        intact = path.read_bytes()
        with open(path, "ab") as fh:
            fh.write(b'{"n": 2, "x')
        assert hashing.read_jsonl(path) == [{"n": 1}]
        hashing.append_jsonl(path, {"n": 3})
        assert path.read_bytes() == intact + b'{"n": 3}\n'
        assert hashing.read_jsonl(path) == [{"n": 1}, {"n": 3}]

    def test_bad_line_before_the_last_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"n": 1\n{"n": 2}\n')
        with pytest.raises(json.JSONDecodeError):
            hashing.read_jsonl(path)

    def test_reader_leaves_an_unfinished_line_alone(self, tmp_path):
        # the line may be another process's append in progress
        path = tmp_path / "log.jsonl"
        hashing.append_jsonl(path, {"n": 1})
        with open(path, "ab") as fh:
            fh.write(b'{"n": 2, "x')
        before = path.read_bytes()
        assert hashing.read_jsonl(path) == [{"n": 1}]
        assert path.read_bytes() == before

    def test_whole_last_line_without_newline_is_ended(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"n": 1}\n{"n": 2}')
        assert hashing.read_jsonl(path) == [{"n": 1}, {"n": 2}]
        hashing.append_jsonl(path, {"n": 3})
        assert path.read_bytes() == b'{"n": 1}\n{"n": 2}\n{"n": 3}\n'

    def test_unique_returns_the_stored_line_and_appends_nothing(self, tmp_path):
        path = tmp_path / "log.jsonl"
        first = hashing.append_jsonl(path, {"id": "a", "v": 1}, unique="id")
        assert first == {"id": "a", "v": 1}
        hashing.append_jsonl(path, {"id": "b", "v": 2}, unique="id")
        intact = path.read_bytes()
        stored = hashing.append_jsonl(path, {"id": "a", "v": 9}, unique="id")
        assert stored == {"id": "a", "v": 1}
        assert path.read_bytes() == intact

    def test_append_waits_while_another_holds_the_lock(self, tmp_path, children):
        path = tmp_path / "log.jsonl"
        hashing.append_jsonl(path, {"n": 1})
        ready = tmp_path / "ready"
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from relab.hashing import append_jsonl\n"
            "Path(sys.argv[2]).touch()\n"
            "append_jsonl(Path(sys.argv[1]), {'n': 2})\n"
        )
        with open(path, "ab") as held:
            fcntl.flock(held, fcntl.LOCK_EX)
            child = children.start(script, path, ready)
            deadline = time.monotonic() + 60
            while not ready.exists() and child.poll() is None:
                assert time.monotonic() < deadline, "child never started"
                time.sleep(0.01)
            time.sleep(0.5)
            assert child.poll() is None  # blocked on the lock
            assert hashing.read_jsonl(path) == [{"n": 1}]
        children.finish(child)
        assert hashing.read_jsonl(path) == [{"n": 1}, {"n": 2}]

    def test_reader_in_another_process_loses_no_append(self, tmp_path, children):
        # ledger-sized lines, appended while this process polls the log
        path = tmp_path / "ledger.jsonl"
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from relab.hashing import append_jsonl\n"
            "for i in range(300):\n"
            "    append_jsonl(Path(sys.argv[1]), {'i': i, 'pad': 'x' * 8000})\n"
        )
        child = children.start(script, path)
        seen = 0
        deadline = time.monotonic() + 60
        while child.poll() is None and time.monotonic() < deadline:
            records = hashing.read_jsonl(path)
            assert [r["i"] for r in records] == list(range(len(records)))
            assert len(records) >= seen
            seen = len(records)
        children.finish(child)
        assert [r["i"] for r in hashing.read_jsonl(path)] == list(range(300))


class TestWriteOnce:
    def test_later_writer_gets_the_first_bytes(self, tmp_path):
        path = tmp_path / "entry.json"
        assert hashing.write_once(path, b"first") == b"first"
        assert hashing.write_once(path, b"second") == b"first"
        assert path.read_bytes() == b"first"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]
