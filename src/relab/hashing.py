"""Digest, file-publishing and JSONL log helpers shared across the engine.

Every digest in the system is SHA-256, lowercase hex. Composite identifiers
(cache keys, trial ids) hash a length-prefixed concatenation of their parts
so the encoding is unambiguous and reproducible bit-exactly by third
parties; the layout is documented in the README.

Every file that several processes on one root may write goes through one
of two rules, both kept here. A file that never changes once written is
published by ``write_once``: the first writer, in any process, wins, and
a later one gets the bytes already there. A log is appended to by
``append_jsonl`` under ``flock``, and only the holder of that lock repairs
a line a dead writer tore; ``read_jsonl`` never writes. Which call may
change a job at all is the scheduler's one ``flock`` per job, on the same
kernel rule: the lock belongs to an open file and dies with its holder.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import List, Optional

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


def write_once(path: Path, data: bytes) -> bytes:
    """Publish `data` at `path` unless a file is there; return what is there.

    The bytes go to a tmp file private to this writer, and ``os.link``
    publishes it, which fails when `path` exists. So exactly one writer,
    in any process, creates the file, and readers see no file or the
    whole one; a writer that dies leaves only its own tmp file behind. A
    later writer gets back the first writer's bytes: whether they may
    differ from its own is for the caller to judge.
    """
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.link(tmp, path)
    except FileExistsError:
        return path.read_bytes()
    finally:
        os.unlink(tmp)
    return data


def _unfinished(line: bytes) -> bool:
    """A last line with no newline that is no whole JSON value."""
    if line.endswith(b"\n"):
        return False
    try:
        json.loads(line)
    except ValueError:
        return True
    return False


def append_jsonl(path: Path, obj: dict, unique: Optional[str] = None) -> dict:
    """Append one object to a JSONL log as a single line with sorted keys.

    The append holds ``flock(LOCK_EX)`` on the log, which the kernel drops
    when the file closes, also when the process dies. So a last line with
    no newline can only be a dead writer's: it is cut when it does not
    parse and ended with a newline when it does. With `unique` (the
    ledger's ``trial_id``), a record already stored under the same value
    is returned instead, and nothing is appended. Returns the stored line.
    """
    with open(path, "a+b") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        size = fh.seek(0, os.SEEK_END)
        if size and (unique or os.pread(fh.fileno(), 1, size - 1) != b"\n"):
            fh.seek(0)
            lines = fh.read().splitlines(keepends=True)
            if _unfinished(lines[-1]):
                fh.truncate(size - len(lines.pop()))
            elif not lines[-1].endswith(b"\n"):
                fh.write(b"\n")
            if unique is not None:
                for line in filter(bytes.strip, lines):
                    stored = json.loads(line)
                    if stored[unique] == obj[unique]:
                        return stored
        fh.write((json.dumps(obj, sort_keys=True) + "\n").encode("utf-8"))
    return obj


def read_jsonl(path: Path) -> List[dict]:
    """Parse a JSONL log; no file reads as empty. Never writes.

    A last line with no newline that does not parse is skipped: it is
    being appended right now, or a dead writer tore it, and the next
    appender cuts it. A line that fails to parse anywhere else raises.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return []
    lines = data.splitlines(keepends=True)
    if lines and _unfinished(lines[-1]):
        lines.pop()
    return [json.loads(line) for line in lines if line.strip()]
