"""Sandboxed execution of a single pipeline stage.

Two backends share one contract; a runtime command template selects
the second:

* ``local_process`` spawns a child process with a scrubbed environment,
  working directory inside a stage-private scratch tree, and a read-only
  data mount. Overwrites of mount files are blocked by file permissions;
  creations and deletions inside the mount succeed at the filesystem
  level (directories stay traversable) but are caught by a before/after
  sweep of every entry (a file by digest, a directory, a link by its
  target, never followed) and escalate the result to
  ``policy_violation``. File modes do not bind root, so under root every
  mount mutation lands in the sweep. Run the backend against a private
  copy of the data when the caller cannot tolerate even transient
  mutation; the engine's scheduler does exactly that.
* ``container_runtime`` shells out to any OCI-compatible runtime through
  an argument-vector template with ``{IMAGE}``, ``{DATA_MOUNT}`` and
  ``{OUTPUT_DIR}`` placeholders, each of which must appear exactly once.
  The template is trusted to enforce isolation (read-only mount flag,
  disabled network); the stage command is appended after the template.

A stage whose command is the default ``python3 -m relab.refpipe`` may
instead run as a fork of a ``StageZygote``: one interpreter per
scheduler ``execute`` call that imports the reference pipeline once, so
a stage skips the interpreter start and every import it would make. A
forked stage gets the same environment, working directory and log as a
spawned one, and ``run_stage`` applies the same mount sweep, timeout and
checks to it; a custom command or the container backend always spawns.

A stage runs under its ``StageSpec`` timeout, and its declared outputs
may total at most ``MAX_OUTPUT_BYTES``.

Network denial under ``local_process`` is best-effort only (environment
scrubbing, no kernel sandboxing); treat it as honest-but-unenforced.

The stage sees seven environment variables: ``STAGE``, ``COURSE_ID``,
``SESSION_ID``, ``SEED`` (from the sandbox spec) plus ``DATA_DIR``,
``OUTPUT_DIR`` and ``SCRATCH_DIR`` (derived from the sandbox paths).
stdout and stderr are captured together, in full, to a log file whose
digest lands in the result.
"""

from __future__ import annotations

import importlib
import json
import os
import select
import signal
import socket
import stat
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, Mapping, Optional, Tuple

from .hashing import sha256_file
from .manifest import DEFAULT_STAGE_COMMAND, StageSpec
from .registry import AccessPolicy, ExportDecision, check_export

STATUS_SUCCEEDED = "succeeded"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_POLICY_VIOLATION = "policy_violation"

BACKEND_LOCAL = "local_process"
BACKEND_CONTAINER = "container_runtime"

REQUIRED_ENV_KEYS = ("STAGE", "COURSE_ID", "SESSION_ID", "SEED")
TEMPLATE_PLACEHOLDERS = ("{IMAGE}", "{DATA_MOUNT}", "{OUTPUT_DIR}")

TIMEOUT_GRACE_SECONDS = 5.0
LOG_FILE_NAME = "_stage.log"

MAX_OUTPUT_BYTES = 64 * 1024 * 1024

# the part of a stage's environment its interpreter reads at start-up,
# which a zygote is launched with; every other key is the unit's own
ZYGOTE_ENV_KEYS = ("PATH", "LANG", "PYTHONHASHSEED", "PYTHONPATH")
_ZYGOTE_CODE = (
    "import sys; from relab.executor import _zygote_main; "
    "_zygote_main(int(sys.argv[1]))"
)
_REQUEST_BYTES = 1 << 20
# what the zygote imports for every fork to share: the stage entry point
# and the numpy modules that numpy loads only at first use, which each
# stage kind reaches (a test derives the list by running the stages)
ZYGOTE_PRELOAD = ("relab.refpipe", "numpy.ma", "numpy.random")


class ExecutorError(ValueError):
    """Invalid sandbox, backend, or stage configuration."""


def _is_subpath(a: Path, b: Path) -> bool:
    try:
        a.relative_to(b)
        return True
    except ValueError:
        return False


@dataclass(frozen=True)
class SandboxSpec:
    """Filesystem layout and environment for one stage run."""

    data_mount: Path
    scratch_dir: Path
    output_dir: Path
    env: Mapping[str, str]
    image_ref: str = ""  # used by container_runtime templates

    def __post_init__(self):
        paths = {
            "data_mount": Path(self.data_mount),
            "scratch_dir": Path(self.scratch_dir),
            "output_dir": Path(self.output_dir),
        }
        for name, p in paths.items():
            if not p.is_absolute():
                raise ExecutorError(f"{name} must be an absolute path: {p}")
            object.__setattr__(self, name, p)
        keys = list(paths.values())
        for i, a in enumerate(keys):
            for b in keys[i + 1 :]:
                if _is_subpath(a, b) or _is_subpath(b, a):
                    raise ExecutorError(
                        f"sandbox paths must be pairwise disjoint: {a} vs {b}"
                    )
        missing = [k for k in REQUIRED_ENV_KEYS if k not in self.env]
        if missing:
            raise ExecutorError(f"sandbox env missing required keys: {missing}")


@dataclass(frozen=True)
class ExecutorBackend:
    """Local processes without a runtime command template, a container with one."""

    runtime_command_template: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "runtime_command_template", tuple(self.runtime_command_template)
        )
        if self.kind == BACKEND_CONTAINER:
            joined = "\x00".join(self.runtime_command_template)
            for ph in TEMPLATE_PLACEHOLDERS:
                if joined.count(ph) != 1:
                    raise ExecutorError(
                        f"container template must contain {ph} exactly once"
                    )

    @property
    def kind(self) -> str:
        return BACKEND_CONTAINER if self.runtime_command_template else BACKEND_LOCAL


@dataclass(frozen=True)
class StageResult:
    status: str
    exit_code: int
    duration: float
    log_digest: str
    output_digests: Mapping[str, str] = field(default_factory=dict)
    log_path: Optional[Path] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCEEDED


def stage_environment(sandbox: SandboxSpec) -> Dict[str, str]:
    """The scrubbed environment a stage process receives.

    Nothing from the parent environment leaks through except PATH and
    PYTHONPATH (needed to locate interpreters and, in development runs,
    this package). Stages run with their cwd in the scratch tree, so each
    PYTHONPATH entry reaches the stage as an absolute path, resolved
    against the parent's working directory; an empty entry means that
    directory, as it does for the parent's own interpreter. Absolute
    entries pass unchanged. HOME and TMPDIR point into the scratch tree.
    """
    env = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": str(sandbox.scratch_dir),
        "TMPDIR": str(sandbox.scratch_dir),
        "LANG": "C.UTF-8",
        "PYTHONHASHSEED": "0",
        "DATA_DIR": str(sandbox.data_mount),
        "OUTPUT_DIR": str(sandbox.output_dir),
        "SCRATCH_DIR": str(sandbox.scratch_dir),
    }
    if "PYTHONPATH" in os.environ:
        env["PYTHONPATH"] = os.pathsep.join(
            entry if os.path.isabs(entry) else os.path.abspath(entry)
            for entry in os.environ["PYTHONPATH"].split(os.pathsep)
        )
    env.update({k: str(v) for k, v in sandbox.env.items()})
    return env


def build_command(
    stage: StageSpec, sandbox: SandboxSpec, backend: ExecutorBackend
) -> Tuple[str, ...]:
    """Final argument vector: template-substituted prefix + stage command."""
    if backend.kind == BACKEND_LOCAL:
        return tuple(stage.command)
    prefix = []
    for arg in backend.runtime_command_template:
        arg = arg.replace("{IMAGE}", sandbox.image_ref)
        arg = arg.replace("{DATA_MOUNT}", str(sandbox.data_mount))
        arg = arg.replace("{OUTPUT_DIR}", str(sandbox.output_dir))
        prefix.append(arg)
    return tuple(prefix) + tuple(stage.command)


def _mount_entries(mount: Path) -> Iterator[Tuple[Path, os.stat_result]]:
    """Every entry under the mount with its ``lstat``; links are not followed."""
    for top, dirs, files in os.walk(mount):
        for name in dirs + files:
            path = Path(top, name)
            yield path, path.lstat()


def _mount_snapshot(mount: Path) -> Dict[str, str]:
    """Each mount entry: a regular file by digest, a link by its target."""
    snap = {}
    for path, st in _mount_entries(mount):
        if stat.S_ISREG(st.st_mode):
            state = sha256_file(path)
        elif stat.S_ISLNK(st.st_mode):
            state = "link -> " + os.readlink(path)
        else:  # a directory, fifo, socket or device: its type, never read
            state = stat.filemode(st.st_mode)[0]
        snap[str(path.relative_to(mount))] = state
    return snap


def _protect_mount_files(mount: Path) -> Dict[Path, int]:
    """chmod regular data files read-only; returns original modes for restore."""
    original = {}
    for path, st in _mount_entries(mount):
        if stat.S_ISREG(st.st_mode):
            original[path] = st.st_mode
            path.chmod(0o444)
    return original


def _restore_modes(original: Dict[Path, int]) -> None:
    for path, mode in original.items():
        # a stage may have put a link in a file's place; chmod would follow it
        if not path.is_symlink() and path.exists():
            path.chmod(mode)


def _forkable(stage: StageSpec, backend: ExecutorBackend) -> bool:
    """Whether a zygote may run the stage: the local default command only."""
    return backend.kind == BACKEND_LOCAL and stage.command == DEFAULT_STAGE_COMMAND


def _run_subprocess(
    command: Tuple[str, ...],
    cwd: Path,
    env: Mapping[str, str],
    log: BinaryIO,
    timeout: float,
) -> Tuple[int, bool, str]:
    """Spawn the stage command; returns (exit code, timed out, cause)."""
    proc = subprocess.Popen(
        command, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT
    )
    timed_out = False
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        timed_out = True
        proc.terminate()
        try:
            proc.wait(timeout=TIMEOUT_GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode, timed_out, ""


def run_stage(
    stage: StageSpec,
    sandbox: SandboxSpec,
    backend: ExecutorBackend,
    zygote: Optional[StageZygote] = None,
) -> StageResult:
    """Execute one stage to completion and classify the outcome.

    With a ``zygote``, a stage running the default command on the local
    backend is forked from it; otherwise, or when the zygote forks
    nothing, the command is spawned as a subprocess.

    Status precedence: policy_violation (mount mutated) beats timeout
    beats nonzero-exit beats missing-output; only a clean run with all
    declared outputs present is ``succeeded``.
    """
    for name in ("data_mount", "scratch_dir", "output_dir"):
        p = getattr(sandbox, name)
        if not p.is_dir():
            raise ExecutorError(f"{name} does not exist: {p}")

    log_path = sandbox.scratch_dir / LOG_FILE_NAME
    command = build_command(stage, sandbox, backend)
    env = stage_environment(sandbox)

    before = _mount_snapshot(sandbox.data_mount)
    original_modes = (
        _protect_mount_files(sandbox.data_mount)
        if backend.kind == BACKEND_LOCAL
        else {}
    )
    started = time.monotonic()
    try:
        with open(log_path, "wb") as log:
            outcome = None
            if zygote is not None and _forkable(stage, backend):
                outcome = zygote.run(sandbox.scratch_dir, env, log, stage.timeout)
            if outcome is None:
                outcome = _run_subprocess(
                    command, sandbox.scratch_dir, env, log, stage.timeout
                )
        exit_code, timed_out, cause = outcome
    finally:
        _restore_modes(original_modes)
    duration = time.monotonic() - started

    after = _mount_snapshot(sandbox.data_mount)
    log_digest = sha256_file(log_path)

    def result(status, detail="", output_digests=None):
        return StageResult(
            status=status,
            exit_code=exit_code,
            duration=duration,
            log_digest=log_digest,
            output_digests=dict(output_digests or {}),
            log_path=log_path,
            detail=detail,
        )

    if after != before:
        created = sorted(set(after) - set(before))
        deleted = sorted(set(before) - set(after))
        changed = sorted(
            k for k in set(before) & set(after) if before[k] != after[k]
        )
        parts = []
        if created:
            parts.append(f"created {created}")
        if deleted:
            parts.append(f"deleted {deleted}")
        if changed:
            parts.append(f"modified {changed}")
        return result(
            STATUS_POLICY_VIOLATION,
            detail="data mount mutated: " + "; ".join(parts),
        )
    if timed_out:
        return result(STATUS_TIMEOUT, detail=f"exceeded {stage.timeout}s wall clock")
    if exit_code != 0:
        return result(STATUS_FAILED, detail=cause or f"exit code {exit_code}")

    digests = {}
    missing = []
    total_bytes = 0
    for rel in stage.outputs:
        path = sandbox.output_dir / rel
        if not path.is_file():
            missing.append(rel)
            continue
        digests[rel] = sha256_file(path)
        total_bytes += path.stat().st_size
    if missing:
        return result(
            STATUS_FAILED,
            detail=f"missing output: {missing}",
            output_digests=digests,
        )
    if total_bytes > MAX_OUTPUT_BYTES:
        return result(
            STATUS_FAILED,
            detail=(
                f"declared outputs total {total_bytes} bytes, "
                f"limit {MAX_OUTPUT_BYTES}"
            ),
            output_digests=digests,
        )
    return result(STATUS_SUCCEEDED, output_digests=digests)


def collect_outputs(
    result: StageResult,
    policy: AccessPolicy,
    output_dir: Path,
    dest_dir: Path,
) -> Tuple[Tuple[str, ...], Tuple[ExportDecision, ...]]:
    """Copy the allowlisted declared outputs of a successful stage.

    Returns (exported relative paths, full decision list). Denied paths
    are recorded with their reasons and never copied.
    """
    if result.status != STATUS_SUCCEEDED:
        raise ExecutorError("collect_outputs requires a succeeded result")
    output_dir = Path(output_dir)
    dest_dir = Path(dest_dir)
    sizes = {
        rel: (output_dir / rel).stat().st_size for rel in result.output_digests
    }
    decisions = check_export(sizes, policy)
    exported = []
    dest_dir.mkdir(parents=True, exist_ok=True)
    for decision in decisions:
        if not decision.allowed:
            continue
        src = output_dir / decision.path
        dst = dest_dir / decision.path
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes(src.read_bytes())
        exported.append(decision.path)
    return tuple(exported), decisions


# ---------------------------------------------------------------------------
# warm stage workers


class StageZygote:
    """One pre-imported interpreter that forks a child per stage.

    Starting an interpreter and importing numpy costs far more than a
    reference stage's own work. The zygote is a ``python3`` process
    launched with a stage's ``ZYGOTE_ENV_KEYS`` (so hash seed, module
    path and BLAS set-up match a spawned stage), which imports
    ``relab.refpipe`` once and holds no Python threads. For each stage
    it receives the stage's cwd and environment over a socket, with the
    log and a status pipe as passed file descriptors, and forks; the
    child reports its pid and exit code on the pipe.

    The zygote starts at the first ``run`` and is stopped by ``close``.
    A zygote that died is started again at the next ``run``; once a
    start fails, ``run`` returns None, and the caller spawns the stage.
    Worker threads may call ``run`` concurrently.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None
        self._sock: Optional[socket.socket] = None
        self._failed = False

    @property
    def pid(self) -> Optional[int]:
        """The running zygote's pid, if one was started."""
        return None if self._proc is None else self._proc.pid

    def run(
        self, cwd: Path, env: Mapping[str, str], log: BinaryIO, timeout: float
    ) -> Optional[Tuple[int, bool, str]]:
        """Run one stage in a fork; returns (exit code, timed out, cause).

        Returns None when no child ran: the zygote could not be started,
        or it was lost before it forked. A stage still running at
        ``timeout`` gets a terminate, ``TIMEOUT_GRACE_SECONDS`` of grace,
        then a kill, by the pid it reported.
        """
        sock = self._connect(cwd, env, timeout)
        if sock is None:
            return None
        request = json.dumps({"cwd": str(cwd), "env": dict(env)}).encode()
        read_fd, write_fd = os.pipe()
        try:
            try:
                socket.send_fds(sock, [request], [log.fileno(), write_fd])
            except OSError:
                return None
            finally:
                os.close(write_fd)
            status = _StatusPipe(read_fd)
            status.read(timeout)
            if status.eof and status.pid is None:
                return None
            timed_out = not status.eof
            signalled = 0
            if timed_out:
                status.read(TIMEOUT_GRACE_SECONDS, until_pid=True)
                for sig in (signal.SIGTERM, signal.SIGKILL):
                    if status.eof or status.pid is None:
                        break
                    try:
                        os.kill(status.pid, sig)
                    except ProcessLookupError:
                        break
                    signalled = sig
                    status.read(TIMEOUT_GRACE_SECONDS)
        finally:
            os.close(read_fd)
        if status.exit_code is not None:
            return status.exit_code, timed_out, ""
        if signalled:
            return -signalled, timed_out, ""
        return -1, timed_out, (
            f"stage process {status.pid} forked from the stage zygote "
            "ended without reporting an exit code"
        )

    def close(self) -> None:
        """Stop the zygote and reap it; stages it forked are not waited for."""
        with self._lock:
            self._stop()

    def _connect(
        self, cwd: Path, env: Mapping[str, str], timeout: float
    ) -> Optional[socket.socket]:
        with self._lock:
            if self._proc is not None and self._proc.poll() is None:
                return self._sock
            self._stop()
            if self._failed:
                return None
            self._sock, theirs = socket.socketpair(
                socket.AF_UNIX, socket.SOCK_SEQPACKET
            )
            try:
                with theirs:
                    self._proc = subprocess.Popen(
                        (DEFAULT_STAGE_COMMAND[0], "-c", _ZYGOTE_CODE,
                         str(theirs.fileno())),
                        cwd=cwd,
                        env={k: env[k] for k in ZYGOTE_ENV_KEYS if k in env},
                        stdin=subprocess.DEVNULL,
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                        pass_fds=(theirs.fileno(),),
                    )
                self._sock.settimeout(timeout)
                ready = self._sock.recv(16) == b"ready"
                self._sock.settimeout(None)
            except OSError:  # includes a start-up slower than the timeout
                ready = False
            if not ready:
                self._stop()
                self._failed = True
                return None
            return self._sock

    def _stop(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        if self._proc is not None:
            # it holds nothing to flush, and a kill skips the tens of
            # milliseconds an interpreter with numpy takes to shut down
            self._proc.kill()
            self._proc.wait()
            self._proc = None


class _StatusPipe:
    """A forked stage's report: its pid, then its exit code, a line each."""

    def __init__(self, fd: int):
        self._poll = select.poll()
        self._poll.register(fd, select.POLLIN)
        self._fd = fd
        self._data = b""
        self.eof = False

    def _line(self, index: int) -> Optional[int]:
        lines = self._data.split(b"\n")[:-1]
        return int(lines[index]) if len(lines) > index else None

    @property
    def pid(self) -> Optional[int]:
        return self._line(0)

    @property
    def exit_code(self) -> Optional[int]:
        return self._line(1)

    def read(self, timeout: float, until_pid: bool = False) -> None:
        """Read until end-of-file (or a pid) or until ``timeout`` passes."""
        deadline = time.monotonic() + timeout
        while not self.eof and not (until_pid and self.pid is not None):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._poll.poll(remaining * 1000):
                return
            chunk = os.read(self._fd, 64)
            self._data += chunk
            self.eof = not chunk


def _zygote_main(fd: int) -> None:
    """Zygote body: fork a stage per request on socket ``fd`` until EOF."""
    for name in ZYGOTE_PRELOAD:
        importlib.import_module(name)
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)  # the kernel reaps forks
    with socket.socket(fileno=fd) as sock:
        sock.send(b"ready")
        while True:
            request, fds, _, _ = socket.recv_fds(sock, _REQUEST_BYTES, 2)
            if not request:
                return
            if os.fork() == 0:
                _stage_child(request, *fds)
            for passed in fds:
                os.close(passed)


def _stage_child(request: bytes, log_fd: int, status_fd: int) -> None:
    """A forked stage: set up as a spawned one would be, run, ``_exit``."""
    code = 1
    try:
        os.write(status_fd, b"%d\n" % os.getpid())
        os.dup2(log_fd, 1)
        os.dup2(log_fd, 2)
        os.closerange(3, status_fd)
        os.closerange(status_fd + 1, os.sysconf("SC_OPEN_MAX"))
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        unit = json.loads(request)
        os.chdir(unit["cwd"])
        os.environ.clear()
        os.environ.update(unit["env"])
        from .refpipe import run_stage_from_env

        code = run_stage_from_env()
    except Exception:
        traceback.print_exc()
    finally:
        try:  # the child must never return into the zygote's loop
            sys.stdout.flush()
            sys.stderr.flush()
            os.write(status_fd, b"%d\n" % code)
        finally:
            os._exit(code)
