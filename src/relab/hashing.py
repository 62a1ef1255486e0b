"""Digest and file-publishing helpers shared across the engine.

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
