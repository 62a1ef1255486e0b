"""Tests for digest primitives and canonical JSON serialization."""

from __future__ import annotations

import hashlib
import json

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

    def test_u64_layout(self):
        assert hashing.lp_u64(5) == (8).to_bytes(8, "big") + (5).to_bytes(8, "big")

    def test_u64_range(self):
        with pytest.raises(ValueError):
            hashing.lp_u64(-1)
        with pytest.raises(ValueError):
            hashing.lp_u64(2**64)
        hashing.lp_u64(2**64 - 1)

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
        assert path.read_bytes() == intact
        hashing.append_jsonl(path, {"n": 3})
        assert hashing.read_jsonl(path) == [{"n": 1}, {"n": 3}]

    def test_bad_line_before_the_last_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"n": 1\n{"n": 2}\n')
        with pytest.raises(json.JSONDecodeError):
            hashing.read_jsonl(path)
