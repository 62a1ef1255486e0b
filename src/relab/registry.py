"""Course/session catalog and the execute-against access policy.

The registry owns metadata only: course descriptors, session start dates,
and content digests of the raw data files. Raw file contents never cross
this module's boundary; stages see data through read-only sandbox mounts
and may export only what the access policy allows.

On-disk layout under the registry root:
    data/<course_id>/<session_id>/...   immutable raw files
    index/<course_id>.json              registered course descriptor
"""

from __future__ import annotations

import datetime as dt
import json
import posixpath
from dataclasses import asdict, dataclass, replace
from fnmatch import fnmatchcase
from pathlib import Path
from typing import List, Mapping, Optional, Tuple

from .hashing import canonical_json_bytes, sha256_file, write_once

DEFAULT_MAX_EXPORT_BYTES = 64 * 1024 * 1024
DEFAULT_EXPORT_ALLOWLIST = ("*.csv", "*.json")

SELECTOR_KINDS = ("single_session", "whole_course", "all_courses")

# the keys a course descriptor, its sessions and its file entries may hold
COURSE_KEYS = ("course_id", "platform_schema", "sessions")
SESSION_KEYS = ("session_id", "start_date", "num_weeks", "files")
FILE_KEYS = ("path", "digest")


class RegistryError(Exception):
    """Raised for descriptor, lookup, and verification failures."""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class DataFile:
    path: str  # relative to the session directory
    digest: str
    size: int


@dataclass(frozen=True)
class Session:
    session_id: str
    start_date: dt.date
    num_weeks: int
    data_files: Tuple[DataFile, ...]

    def __post_init__(self):
        if self.num_weeks < 2:
            raise RegistryError("num_weeks must be >= 2")


@dataclass(frozen=True)
class Course:
    course_id: str
    platform_schema: str
    sessions: Tuple[Session, ...]

    def __post_init__(self):
        ids = [s.session_id for s in self.sessions]
        if len(set(ids)) != len(ids):
            raise RegistryError(f"duplicate session ids in course {self.course_id!r}")
        dates = sorted(s.start_date for s in self.sessions)
        if any(a == b for a, b in zip(dates, dates[1:])):
            raise RegistryError(
                f"session start dates must be distinct in course {self.course_id!r}"
            )

    def session(self, session_id: str) -> Session:
        for s in self.sessions:
            if s.session_id == session_id:
                return s
        raise RegistryError(
            f"unknown session {session_id!r} in course {self.course_id!r}"
        )


@dataclass(frozen=True)
class AccessPolicy:
    """Execute-against policy: which outputs may leave, and how many bytes.

    A read-only data mount and no network are constants of the model,
    left to the executor; no policy relaxes them.
    """

    export_allowlist: Tuple[str, ...] = DEFAULT_EXPORT_ALLOWLIST
    max_export_bytes: int = DEFAULT_MAX_EXPORT_BYTES

    def __post_init__(self):
        if self.max_export_bytes <= 0:
            raise RegistryError("max_export_bytes must be positive")


@dataclass(frozen=True)
class DatasetSelector:
    kind: str
    course_id: Optional[str] = None
    session_id: Optional[str] = None

    def __post_init__(self):
        if self.kind not in SELECTOR_KINDS:
            raise RegistryError(f"unknown selector kind {self.kind!r}")
        for name in ("course_id", "session_id"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise RegistryError(f"selector {name} must be a string")
        if self.kind == "single_session" and not (self.course_id and self.session_id):
            raise RegistryError("single_session selector needs course_id and session_id")
        if self.kind == "whole_course" and not self.course_id:
            raise RegistryError("whole_course selector needs course_id")
        if self.kind == "all_courses" and (self.course_id or self.session_id):
            raise RegistryError("all_courses selector takes no ids")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DatasetSelector":
        return cls(
            kind=obj.get("kind", ""),
            course_id=obj.get("course_id"),
            session_id=obj.get("session_id"),
        )


@dataclass(frozen=True)
class ExportDecision:
    path: str
    allowed: bool
    reason: str


# ---------------------------------------------------------------------------
# export policy enforcement


def _normalize_relative(path: str) -> Optional[str]:
    """Normalized relative path, or None when it escapes the output tree."""
    if not path or path.startswith("/") or "\\" in path:
        return None
    norm = posixpath.normpath(path)
    if norm.startswith("..") or norm == "." or norm.startswith("/"):
        return None
    return norm


def _pattern_matches(pattern: str, path: str) -> bool:
    """Glob match where '*' and '?' never cross a '/' separator."""
    p_parts = pattern.split("/")
    parts = path.split("/")
    if len(p_parts) != len(parts):
        return False
    return all(fnmatchcase(part, pat) for pat, part in zip(p_parts, parts))


def check_export(
    sizes: Mapping[str, int], policy: AccessPolicy
) -> Tuple[ExportDecision, ...]:
    """Decide, path by path, what a stage may export.

    A path is allowed iff it is a clean relative path, matches some
    allowlist pattern, and fits in what remains of the byte quota. Paths
    are processed in sorted order so quota exhaustion is deterministic.
    """
    decisions = []
    remaining = policy.max_export_bytes
    for path in sorted(sizes):
        norm = _normalize_relative(path)
        if norm is None:
            decisions.append(ExportDecision(path, False, "traversal"))
            continue
        if not any(_pattern_matches(p, norm) for p in policy.export_allowlist):
            decisions.append(ExportDecision(path, False, "not allowlisted"))
            continue
        size = int(sizes[path])
        if size > remaining:
            decisions.append(ExportDecision(path, False, "quota"))
            continue
        remaining -= size
        decisions.append(ExportDecision(path, True, "allowed"))
    return tuple(decisions)


# ---------------------------------------------------------------------------
# registry


def _entries(obj: dict, key: str, where: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise RegistryError(f"{where}: {key} must be a list")
    return value


def _known_keys(obj: dict, allowed: Tuple[str, ...], where: str) -> None:
    """Refuse a key outside ``allowed``: a misspelt one would be ignored."""
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise RegistryError(f"{where}: unknown key(s) {', '.join(map(repr, extra))}")


def _is_name(value: str) -> bool:
    """Whether an id names one path component under its parent directory."""
    return value not in ("", ".", "..") and "/" not in value and "\0" not in value


def _id(obj: object, key: str, where: str) -> str:
    """A string id from a descriptor object, one path component long."""
    if not isinstance(obj, dict):
        raise RegistryError(f"{where} must be an object")
    value = obj.get(key)
    if not value or not isinstance(value, str):
        raise RegistryError(f"{where} missing {key}")
    if not _is_name(value):
        raise RegistryError(f"{where}: {key} {value!r} must be one path component")
    return value


def check_file_digest(path: Path, registered: str, found: str) -> None:
    """Raise when a registered file's bytes no longer hash to its digest."""
    if found != registered:
        raise RegistryError(
            f"data drift in {path}: registered {registered[:12]}..., "
            f"found {found[:12]}..."
        )


def _iso_dates(items) -> dict:
    return {k: v.isoformat() if isinstance(v, dt.date) else v for k, v in items}


def _course_to_json(course: Course) -> dict:
    """A course's index document: its fields, with start dates in ISO form."""
    return asdict(course, dict_factory=_iso_dates)


def _course_from_json(obj: dict) -> Course:
    sessions = tuple(
        Session(**dict(s, start_date=dt.date.fromisoformat(s["start_date"]),
                       data_files=tuple(DataFile(**f) for f in s["data_files"])))
        for s in obj["sessions"]
    )
    return Course(**dict(obj, sessions=sessions))


class Registry:
    """File-backed course catalog.

    Many readers and writers, in any process: an index file is published
    once by ``hashing.write_once``, so the first registration of a course
    wins and a later one with other content is an error.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.data_dir = self.root / "data"
        self.index_dir = self.root / "index"
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.index_dir.mkdir(parents=True, exist_ok=True)

    # -- paths ------------------------------------------------------------

    def session_dir(self, course_id: str, session_id: str) -> Path:
        return self.data_dir / course_id / session_id

    def _index_path(self, course_id: str) -> Path:
        return self.index_dir / f"{course_id}.json"

    # -- registration -------------------------------------------------------

    def register_course(self, descriptor: dict) -> Course:
        """Register a course from its descriptor document.

        The descriptor lists sessions and their files (paths relative to
        the session directory, optional expected digests). Files must
        already sit under data/<course>/<session>/; their digests are
        computed here and become the registered truth. Re-registering an
        identical descriptor is a no-op; conflicting content is an error.
        A key outside ``COURSE_KEYS``, ``SESSION_KEYS`` or ``FILE_KEYS`` is
        refused, and ``platform_schema``, when given, must be a string.
        """
        course_id = _id(descriptor, "course_id", "descriptor")
        _known_keys(descriptor, COURSE_KEYS, "descriptor")
        platform_schema = descriptor.get("platform_schema", "event-log-v1")
        if not isinstance(platform_schema, str):
            raise RegistryError("descriptor: platform_schema must be a string")
        sessions = []
        for sess in _entries(descriptor, "sessions", "descriptor"):
            session_id = _id(sess, "session_id", f"session of {course_id!r}")
            where = f"session {course_id}/{session_id}"
            _known_keys(sess, SESSION_KEYS, where)
            try:
                start_date = dt.date.fromisoformat(sess["start_date"])
            except (KeyError, TypeError, ValueError):
                raise RegistryError(f"{where} needs an ISO start_date") from None
            num_weeks = sess.get("num_weeks")
            if isinstance(num_weeks, bool) or not isinstance(num_weeks, int):
                raise RegistryError(f"{where} needs an integer num_weeks")
            sdir = self.session_dir(course_id, session_id)
            files = []
            for entry in _entries(sess, "files", where):
                if isinstance(entry, str):
                    rel, expected = entry, None
                elif isinstance(entry, dict) and isinstance(entry.get("path"), str):
                    _known_keys(entry, FILE_KEYS, f"{where}: file entry")
                    rel, expected = entry["path"], entry.get("digest")
                else:
                    raise RegistryError(f"{where}: file entry {entry!r} has no path")
                if not isinstance(expected, (str, type(None))):
                    raise RegistryError(f"{where}: digest {expected!r} is not a string")
                norm = _normalize_relative(rel)
                if norm is None:
                    raise RegistryError(f"bad data file path {rel!r}")
                fpath = sdir / norm
                if not fpath.is_file():
                    raise RegistryError(f"file not found: {fpath}")
                digest = sha256_file(fpath)
                if expected is not None and expected != digest:
                    raise RegistryError(
                        f"digest mismatch for {norm!r}: descriptor says "
                        f"{expected[:12]}..., file is {digest[:12]}..."
                    )
                files.append(DataFile(path=norm, digest=digest, size=fpath.stat().st_size))
            sessions.append(
                Session(
                    session_id=session_id,
                    start_date=start_date,
                    num_weeks=num_weeks,
                    data_files=tuple(sorted(files, key=lambda f: f.path)),
                )
            )
        course = Course(
            course_id=course_id,
            platform_schema=platform_schema,
            sessions=tuple(sorted(sessions, key=lambda s: (s.start_date, s.session_id))),
        )
        payload = canonical_json_bytes(_course_to_json(course))
        if write_once(self._index_path(course_id), payload) != payload:
            raise RegistryError(
                f"course {course_id!r} already registered with different content"
            )
        return course

    # -- lookup -------------------------------------------------------------

    def course_ids(self) -> List[str]:
        return sorted(p.stem for p in self.index_dir.glob("*.json"))

    def load_course(self, course_id: str) -> Course:
        path = self._index_path(course_id)
        if not (_is_name(course_id) and path.exists()):
            raise RegistryError(f"unknown course {course_id!r}")
        return _course_from_json(json.loads(path.read_text("utf-8")))

    def resolve_selector(self, selector: DatasetSelector) -> List[Course]:
        """Each selected course, holding only its selected sessions.

        Courses sort by id; sessions keep their stored order, which
        ``register_course`` made start-date order. A course with no
        sessions is left out.
        """
        if selector.kind == "single_session":
            course = self.load_course(selector.course_id)
            session = course.session(selector.session_id)
            return [replace(course, sessions=(session,))]
        if selector.kind == "whole_course":
            course_ids = [selector.course_id]
        else:
            course_ids = self.course_ids()
        courses = (self.load_course(course_id) for course_id in course_ids)
        return [course for course in courses if course.sessions]

    def verify_course(self, course_id: str) -> None:
        """Recompute digests of every registered file; raise on drift."""
        course = self.load_course(course_id)
        for session in course.sessions:
            sdir = self.session_dir(course_id, session.session_id)
            for f in session.data_files:
                path = sdir / f.path
                if not path.is_file():
                    raise RegistryError(f"missing data file {path}")
                check_file_digest(path, f.digest, sha256_file(path))
