"""Digest, file-publishing and JSONL log helpers shared across the engine.

Every digest in the system is SHA-256, lowercase hex. Composite identifiers
(cache keys, trial ids) hash a length-prefixed concatenation of their parts
so the encoding is unambiguous and reproducible bit-exactly by third
parties; the layout is documented in the README.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import List

HEX_DIGEST_LEN = 64
_CHUNK = 1 << 20


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            chunk = f.read(_CHUNK)
            if not chunk:
                break
            h.update(chunk)
    return h.hexdigest()


def lp(data: bytes) -> bytes:
    """Length-prefix a field: 8-byte big-endian length followed by the bytes."""
    return len(data).to_bytes(8, "big") + data


def lp_u64(value: int) -> bytes:
    if not 0 <= value < 1 << 64:
        raise ValueError(f"value out of u64 range: {value}")
    return lp(value.to_bytes(8, "big"))


def sha256_concat(*fields: bytes) -> str:
    """SHA-256 over the length-prefixed concatenation of the fields.

    Each field is framed with its 8-byte big-endian length before hashing,
    so shifting bytes between adjacent fields always changes the digest.
    """
    h = hashlib.sha256()
    for field in fields:
        h.update(lp(field))
    return h.hexdigest()


def canonical_json_bytes(obj: object) -> bytes:
    """Canonical JSON encoding: sorted keys, minified, UTF-8.

    Equal values (field-wise) encode to identical bytes regardless of the
    formatting or key order of any source document.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def is_hex_digest(value: str) -> bool:
    return (
        isinstance(value, str)
        and len(value) == HEX_DIGEST_LEN
        and all(c in "0123456789abcdef" for c in value)
    )


def write_atomic(path: Path, data: bytes) -> None:
    """Write `data` to `path` through a tmp file private to this writer.

    Readers and other writers, in this process or another, see either no
    file or the whole one: a writer that dies mid-write leaves only its
    own tmp file behind.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def append_jsonl(path: Path, obj: dict) -> None:
    """Append one object to a JSONL log as a single line with sorted keys."""
    with open(path, "a") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def read_jsonl(path: Path) -> List[dict]:
    """Parse a JSONL log, dropping a torn last line; no file reads as empty.

    A writer killed mid-append leaves one partial line at the end, with no
    newline. It is cut off the file, so that later appends start on a line
    of their own; a line that fails to parse anywhere else raises.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return []
    lines = data.splitlines(keepends=True)
    if lines and not lines[-1].endswith(b"\n"):
        try:
            json.loads(lines[-1])
        except json.JSONDecodeError:
            os.truncate(path, len(data) - len(lines.pop()))
    return [json.loads(line) for line in lines if line.strip()]
