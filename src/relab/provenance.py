"""Content-addressed artifact cache and an append-only trial ledger.

The cache maps a key derived from everything that determines a stage's
output (stage name, manifest digest, ordered input digests, seed, engine
version) to the digests of the files that stage produced, with the bytes
themselves held in a shared blob store addressed by SHA-256. Replaying a
unit whose key is cached skips execution entirely.

The ledger assigns every completed job a trial id that is a pure content
digest of its configuration: the manifest's canonical bytes, the image
reference, the registry data digests the job read, and the engine
version. Identical configuration always yields the identical id, so
re-recording is a no-op and independent engines agree on ids.

Trials travel between stores as deterministic uncompressed tar bundles:
entries sorted by name, zeroed timestamps, uid/gid 0. The bundle digest
is therefore a stable citation for the trial. Import verifies every byte
against the recorded digests and registers the trial locally; a record
whose ``parent_trial_id`` equals its own id marks a trial imported from
a bundle rather than executed locally, and any other parent id points at
the trial this one was forked from.

All digests are SHA-256 in lowercase hex. Hashed structures are framed
with 8-byte big-endian length prefixes (see ``hashing``), so no two
distinct field sequences collide.
"""

from __future__ import annotations

import io
import json
import os
import tarfile
import tempfile
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence, Tuple

from . import ENGINE_VERSION
from .hashing import (
    append_jsonl,
    canonical_json_bytes,
    is_hex_digest,
    read_jsonl,
    sha256_bytes,
    sha256_concat,
    sha256_file,
    write_once,
    write_tree,
)
from .manifest import JobManifest, canonicalize, parse_manifest, render_manifest
from .registry import normalize_relative

CACHE_KEY_TAG = b"relab.cache-key.v1"
TRIAL_ID_TAG = b"relab.trial.v1"
EVAL_DIGEST_TAG = b"relab.eval.v1"

BUNDLE_TRIAL_NAME = "trial.json"
BUNDLE_MANIFEST_NAME = "manifest.json"
BUNDLE_CANONICAL_NAME = "manifest.canonical"
BUNDLE_OUTPUT_PREFIX = "outputs/"


class ProvenanceError(Exception):
    """Raised for lookup failures and malformed provenance inputs."""


class IntegrityError(ProvenanceError):
    """Raised when stored or imported bytes contradict their digests."""


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _require_digest(value: str, what: str) -> str:
    if not is_hex_digest(value):
        raise ProvenanceError(f"{what} is not a lowercase hex digest: {value!r}")
    return value


# ---------------------------------------------------------------------------
# cache keys


def cache_key(
    stage: str,
    manifest_digest: str,
    input_digests: Sequence[str],
    seed: int,
    engine_version: str = ENGINE_VERSION,
) -> str:
    """Key identifying one unit of work.

    Byte layout under the hash (each field 8-byte length-prefixed):
    tag, stage name, manifest digest, input count as 8-byte big-endian,
    each input digest in caller order, seed as 8-byte big-endian, engine
    version. A new engine version, whose stage code may write other
    bytes, never reads an older version's entries.
    """
    if not stage:
        raise ProvenanceError("stage name must be non-empty")
    _require_digest(manifest_digest, "manifest_digest")
    for d in input_digests:
        _require_digest(d, "input digest")
    if not 0 <= seed < 1 << 64:
        raise ProvenanceError("seed must fit in an unsigned 64-bit integer")
    fields = [
        CACHE_KEY_TAG,
        stage.encode("utf-8"),
        manifest_digest.encode("ascii"),
        len(input_digests).to_bytes(8, "big"),
    ]
    fields.extend(d.encode("ascii") for d in input_digests)
    fields.append(seed.to_bytes(8, "big"))
    fields.append(engine_version.encode("utf-8"))
    return sha256_concat(*fields)


def trial_id_for(
    manifest_canonical: bytes,
    image_ref: str,
    data_digests: Sequence[str],
    engine_version: str = ENGINE_VERSION,
) -> str:
    """Content id of a trial's configuration.

    Byte layout under the hash: tag, manifest canonical bytes, image
    reference, data digest count as 8-byte big-endian, each registry
    data digest in sorted order, engine version.
    """
    ordered = sorted(data_digests)
    for d in ordered:
        _require_digest(d, "data digest")
    fields = [
        TRIAL_ID_TAG,
        manifest_canonical,
        image_ref.encode("utf-8"),
        len(ordered).to_bytes(8, "big"),
    ]
    fields.extend(d.encode("ascii") for d in ordered)
    fields.append(engine_version.encode("utf-8"))
    return sha256_concat(*fields)


# ---------------------------------------------------------------------------
# cache store


@dataclass(frozen=True)
class CacheEntry:
    key: str
    output_digests: Mapping[str, str]
    created_at: str
    size_bytes: int

    def __post_init__(self):
        object.__setattr__(self, "output_digests", dict(self.output_digests))


class CacheStore:
    """Entries under ``entries/<key>.json``, bytes under ``blobs/xx/<digest>``.

    Both are published by ``hashing.write_once``, so the first writer of a
    key or blob, in any process on the root, wins, and neither changes
    once written; reads need no lock.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        self.blobs_dir = self.root / "blobs"
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        self.blobs_dir.mkdir(parents=True, exist_ok=True)

    def _entry_path(self, key: str) -> Path:
        return self.entries_dir / f"{key}.json"

    def blob_path(self, digest: str) -> Path:
        return self.blobs_dir / digest[:2] / digest

    def get(self, key: str) -> Optional[CacheEntry]:
        path = self._entry_path(_require_digest(key, "cache key"))
        if not path.is_file():
            return None
        return self._parse_entry(path, path.read_bytes())

    @staticmethod
    def _parse_entry(path: Path, data: bytes) -> CacheEntry:
        """The entry in ``data``, read from ``path``; anything else is corrupt."""
        try:
            entry = CacheEntry(**json.loads(data))
            if f"{entry.key}.json" == path.name:
                return entry
        except (ValueError, TypeError):
            pass
        raise IntegrityError(f"cache entry corrupt on disk: {path}")

    def put_blob(self, data: bytes) -> str:
        digest = sha256_bytes(data)
        path = self.blob_path(digest)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            write_once(path, data)
        return digest

    def get_blob(self, digest: str) -> bytes:
        path = self.blob_path(_require_digest(digest, "blob digest"))
        if not path.is_file():
            raise ProvenanceError(f"blob not found: {digest}")
        data = path.read_bytes()
        if sha256_bytes(data) != digest:
            raise IntegrityError(f"blob corrupt on disk: {path}")
        return data

    def put(self, key: str, outputs: Mapping[str, bytes]) -> CacheEntry:
        """Store a finished unit's outputs, their bytes by relative path.

        Idempotent for identical content. The same key bound to different
        outputs means a stage was not deterministic (or the key omitted an
        input); that is an integrity error, never an overwrite, also when
        the other writer published its entry between this one's lookup and
        its own publish.
        """
        _require_digest(key, "cache key")
        output_digests = {rel: sha256_bytes(data) for rel, data in outputs.items()}
        entry = self.get(key)
        if entry is None:
            for data in outputs.values():
                self.put_blob(data)
            entry = CacheEntry(
                key=key,
                output_digests=output_digests,
                created_at=_utc_now(),
                size_bytes=sum(len(data) for data in outputs.values()),
            )
            path = self._entry_path(key)
            stored = write_once(path, canonical_json_bytes(asdict(entry)))
            entry = self._parse_entry(path, stored)
        if entry.output_digests != output_digests:
            raise IntegrityError(f"cache key {key} already bound to different outputs")
        return entry

    def blobs(self, entry: CacheEntry) -> Dict[str, "_Blob"]:
        """A cached unit's files by relative path, each read only on demand."""
        return {rel: _Blob(self, d) for rel, d in entry.output_digests.items()}

    def materialize(self, entry: CacheEntry, dest_dir: Path) -> None:
        """Write a cached unit's files into dest_dir, verifying each blob."""
        write_tree(dest_dir, {rel: bytes(b) for rel, b in self.blobs(entry).items()})


class _Blob:
    """A stored blob: ``len`` is its size on disk, ``bytes`` its verified bytes."""

    def __init__(self, store: CacheStore, digest: str):
        self.store, self.digest = store, digest

    def __len__(self) -> int:
        return self.store.blob_path(self.digest).stat().st_size

    def __bytes__(self) -> bytes:
        return self.store.get_blob(self.digest)


# ---------------------------------------------------------------------------
# trial ledger


@dataclass(frozen=True)
class TrialRecord:
    trial_id: str
    manifest_digest: str
    image_ref: str
    data_digests: Tuple[str, ...]
    stage_digests: Mapping[str, Mapping[str, str]]  # unit_id -> path -> digest
    eval_digest: str
    engine_version: str
    created_at: str
    parent_trial_id: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "data_digests", tuple(self.data_digests))
        object.__setattr__(
            self,
            "stage_digests",
            {u: dict(m) for u, m in self.stage_digests.items()},
        )

    def content_fields(self) -> dict:
        """Every field but the metadata, which may differ under one id."""
        obj = asdict(self)
        del obj["created_at"], obj["parent_trial_id"]
        return obj


class TrialLedger:
    """Append-only JSONL of trial records; nothing is ever rewritten.

    The file is the only state: every call reads it again, so records
    another process on the root appended are seen at once. Appends go
    through ``hashing.append_jsonl``, whose lock covers both the look for
    an id already stored and the write, so no two writers, in any
    process, store one id twice.

    created_at and parent_trial_id are provenance metadata, not content:
    appending a record whose content fields match the stored one returns
    the stored record untouched, while diverging content under the same
    id is an integrity error (it means a supposedly deterministic job
    produced different bytes).
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def get(self, trial_id: str) -> Optional[TrialRecord]:
        return next((r for r in self.records() if r.trial_id == trial_id), None)

    def records(self) -> Tuple[TrialRecord, ...]:
        """The stored records in append order; the first one per id wins."""
        by_id: Dict[str, TrialRecord] = {}
        for obj in read_jsonl(self.path):
            by_id.setdefault(obj["trial_id"], TrialRecord(**obj))
        return tuple(by_id.values())

    def append(self, record: TrialRecord) -> TrialRecord:
        if record.parent_trial_id is not None:
            _require_digest(record.parent_trial_id, "parent_trial_id")
        stored = TrialRecord(
            **append_jsonl(self.path, asdict(record), unique="trial_id")
        )
        if stored.content_fields() != record.content_fields():
            raise IntegrityError(
                f"trial {record.trial_id} already recorded with different content"
            )
        return stored


def record_trial(
    ledger: TrialLedger,
    report,
    manifest: JobManifest,
    cache: CacheStore,
    parent_trial_id: Optional[str] = None,
) -> TrialRecord:
    """Register a successful job's outcome under its content-derived id.

    ``report`` is any object exposing ``phase``, ``data_digests``,
    ``entries`` (each entry with unit_id and output_digests) and
    ``eval_artifacts`` (course id -> metrics digest), which is exactly
    what the scheduler's JobReport provides. ``eval_digest`` hashes
    every course's metrics digest, in course order. The canonical
    manifest bytes go into ``cache``, where ``export_bundle`` and a
    fork find them later.
    """
    if report.phase != "succeeded":
        raise ProvenanceError(
            f"only succeeded jobs are recorded, got phase {report.phase!r}"
        )
    canonical = canonicalize(manifest)
    manifest_digest = sha256_bytes(canonical)
    cache.put_blob(canonical)
    stage_digests = {
        e.unit_id: dict(e.output_digests) for e in report.entries
    }
    metrics = (d.encode("ascii") for _, d in sorted(report.eval_artifacts.items()))
    eval_digest = sha256_concat(EVAL_DIGEST_TAG, *metrics)
    record = TrialRecord(
        trial_id=trial_id_for(canonical, manifest.image_ref, report.data_digests),
        manifest_digest=manifest_digest,
        image_ref=manifest.image_ref,
        data_digests=tuple(sorted(report.data_digests)),
        stage_digests=stage_digests,
        eval_digest=eval_digest,
        engine_version=ENGINE_VERSION,
        created_at=_utc_now(),
        parent_trial_id=parent_trial_id,
    )
    return ledger.append(record)


# ---------------------------------------------------------------------------
# bundles


def _bundle_add(tar: tarfile.TarFile, name: str, data: bytes) -> None:
    info = tarfile.TarInfo(name=name)
    info.size = len(data)
    info.mtime = 0
    info.uid = 0
    info.gid = 0
    info.uname = ""
    info.gname = ""
    info.mode = 0o644
    tar.addfile(info, io.BytesIO(data))


def export_bundle(
    ledger: TrialLedger, cache: CacheStore, trial_id: str, dest: Path
) -> Tuple[Path, str]:
    """Write a self-contained, byte-reproducible archive of one trial.

    Returns (path, bundle digest). Exporting the same trial from the
    same store always produces identical bytes: entries are added in
    sorted name order with zeroed metadata and no compression. The archive
    is renamed onto ``dest`` whole, so no reader sees a part of one.
    """
    record = ledger.get(trial_id)
    if record is None:
        raise ProvenanceError(f"unknown trial: {trial_id}")
    manifest = manifest_for_trial(record, cache)
    canonical = canonicalize(manifest)
    if sha256_bytes(canonical) != record.manifest_digest:
        raise IntegrityError("stored manifest does not match trial record")

    files = {
        BUNDLE_TRIAL_NAME: canonical_json_bytes(asdict(record)),
        BUNDLE_MANIFEST_NAME: render_manifest(manifest).encode("utf-8"),
        BUNDLE_CANONICAL_NAME: canonical,
    }
    for unit_id in sorted(record.stage_digests):
        for rel, digest in sorted(record.stage_digests[unit_id].items()):
            files[f"{BUNDLE_OUTPUT_PREFIX}{unit_id}/{rel}"] = cache.get_blob(digest)

    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=dest.parent, prefix=f"{dest.name}.", suffix=".tmp")
    os.close(fd)
    try:
        with tarfile.open(tmp, "w", format=tarfile.USTAR_FORMAT) as tar:
            for name in sorted(files):
                _bundle_add(tar, name, files[name])
        digest = sha256_file(tmp)
        os.replace(tmp, dest)
    except BaseException:
        os.unlink(tmp)
        raise
    return dest, digest


def manifest_for_trial(record: TrialRecord, cache: CacheStore) -> JobManifest:
    """The trial's manifest, recovered from the blob store."""
    try:
        return parse_manifest(cache.get_blob(record.manifest_digest).decode("utf-8"))
    except ProvenanceError:
        raise ProvenanceError(
            f"manifest blob for trial {record.trial_id} not in store; "
            "store the canonical manifest bytes at record time"
        )


def import_bundle(
    src: Path, ledger: TrialLedger, cache: CacheStore
) -> TrialRecord:
    """Verify a bundle byte-for-byte and register its trial locally.

    Every file is checked against the digests inside the trial record
    before anything is written; the first mismatch aborts the import and
    names the offending path. The registered record carries
    ``parent_trial_id`` equal to the bundled trial id, marking it as
    imported. Importing into a store that already has the trial returns
    the existing record unchanged. A file that is no tar archive, or whose
    trial.json is no object with exactly the record's fields, is an
    integrity error.
    """
    src = Path(src)
    members: Dict[str, bytes] = {}
    try:
        with tarfile.open(src, "r") as tar:
            for info in tar.getmembers():
                name = info.name
                if not info.isfile() or normalize_relative(name) != name:
                    raise IntegrityError(f"unsafe bundle member: {name}")
                members[name] = tar.extractfile(info).read()
    except tarfile.TarError as exc:
        raise IntegrityError(f"bundle is not a tar archive: {src}: {exc}") from None

    for required in (BUNDLE_TRIAL_NAME, BUNDLE_MANIFEST_NAME, BUNDLE_CANONICAL_NAME):
        if required not in members:
            raise IntegrityError(f"bundle missing {required}")

    try:
        record = TrialRecord(**json.loads(members[BUNDLE_TRIAL_NAME]))
    except (ValueError, TypeError, AttributeError) as exc:
        raise IntegrityError(
            f"{BUNDLE_TRIAL_NAME} is not a trial record: {exc!r}"
        ) from None
    canonical = members[BUNDLE_CANONICAL_NAME]
    if sha256_bytes(canonical) != record.manifest_digest:
        raise IntegrityError(f"digest mismatch: {BUNDLE_CANONICAL_NAME}")
    manifest = parse_manifest(members[BUNDLE_MANIFEST_NAME].decode("utf-8"))
    if canonicalize(manifest) != canonical:
        raise IntegrityError(f"digest mismatch: {BUNDLE_MANIFEST_NAME}")
    recomputed = trial_id_for(
        canonical, record.image_ref, record.data_digests, record.engine_version
    )
    if recomputed != record.trial_id:
        raise IntegrityError(f"digest mismatch: {BUNDLE_TRIAL_NAME}")

    expected = {}
    for unit_id, digests in record.stage_digests.items():
        for rel, digest in digests.items():
            expected[f"{BUNDLE_OUTPUT_PREFIX}{unit_id}/{rel}"] = digest
    for name in members:
        if name.startswith(BUNDLE_OUTPUT_PREFIX) and name not in expected:
            raise IntegrityError(f"unexpected bundle member: {name}")
    for name, digest in sorted(expected.items()):
        if name not in members:
            raise IntegrityError(f"bundle missing {name}")
        if sha256_bytes(members[name]) != digest:
            raise IntegrityError(f"digest mismatch: {name}")

    cache.put_blob(canonical)
    for name in expected:
        cache.put_blob(members[name])
    return ledger.append(replace(record, parent_trial_id=record.trial_id))
