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
instead run as a fork of a ``StageZygote``: an interpreter that imports
the reference pipeline once, so a stage skips the interpreter start and
every import it would make. A process has one, ``process_zygote()``,
which every scheduler ``execute`` call forks from, concurrent ones
included; it starts at the first stage that needs it and is stopped when
the process exits. A forked stage gets the same environment, working
directory and log as a spawned one, and ``run_stage`` applies the same
mount sweep, timeout and checks to it; a custom command or the container
backend always spawns.

Past its ``StageSpec`` timeout, a stage gets a terminate,
``TIMEOUT_GRACE_SECONDS`` of grace, then a kill, from ``_supervise`` on
both paths. A spawned stage leads a process group of its own, which is
signalled, and killed once the stage has ended, so no process the stage
started outlives its run. A forked stage runs only ``relab.refpipe``,
which starts no process; the zygote reaps it at exit, so it is signalled
alone, through the pidfd it hands back, which no other process can
take over.

A stage's declared outputs may total at most ``MAX_OUTPUT_BYTES``. Each
must be a regular file that is reached through real directories: a link,
or a path through a linked directory, fails the stage. ``run_stage`` opens
``OUTPUT_DIR`` before the stage starts and each output below that
descriptor without following a link, and reads each output once; the
result carries those bytes, which are the ones hashed, cached and
exported, so a process the stage leaves behind cannot swap an output
for a link in between.

Network denial under ``local_process`` is best-effort only (environment
scrubbing, no kernel sandboxing); treat it as honest-but-unenforced.

The stage sees seven environment variables: ``STAGE``, ``COURSE_ID``,
``SESSION_ID``, ``SEED`` (from the sandbox spec) plus ``DATA_DIR``,
``OUTPUT_DIR`` and ``SCRATCH_DIR`` (derived from the sandbox paths).
stdout and stderr are captured together, in full, to a log file whose
digest lands in the result.
"""

from __future__ import annotations

import atexit
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
from contextlib import suppress
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path, PurePosixPath
from typing import BinaryIO, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from .hashing import sha256_bytes, sha256_file, write_tree
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
# the longest single wait: poll takes at most 2**31 - 1 ms, so a longer
# timeout is waited for in slices until its deadline
_WAIT_SLICE_SECONDS = 3600.0
# the longest wait for a zygote to start (0.16-0.28 s on a 2-core host);
# the start holds the zygote's lock, which every job's forked stages and
# the exit handler wait for, so it is not a stage's own timeout
ZYGOTE_START_SECONDS = 10.0
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


class ZygoteStartError(RuntimeError):
    """A stage zygote did not start, or not within ``ZYGOTE_START_SECONDS``."""


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
    # a succeeded stage's declared outputs, as read once and hashed
    outputs: Mapping[str, bytes] = field(
        default_factory=dict, repr=False, compare=False
    )


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
    """Spawn the stage command; returns (exit code, timed out, cause).

    The stage leads a session, and so a process group, of its own, which
    ``_supervise`` signals once ``timeout`` has passed. Then, before the
    stage process is reaped (so its group id cannot have been reused),
    the group is killed: a process the stage left behind ends with it.
    """
    proc = subprocess.Popen(
        command, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT,
        start_new_session=True,
    )
    # readable once the stage has exited, which leaves it unreaped; an
    # unreaped leader keeps its group, so the kills below always land
    pidfd = os.pidfd_open(proc.pid)
    try:
        signalled = _supervise(
            pidfd, time.monotonic() + timeout, partial(os.killpg, proc.pid)
        )
        os.killpg(proc.pid, signal.SIGKILL)
    finally:
        os.close(pidfd)
    proc.wait()
    return proc.returncode, bool(signalled), ""


def _supervise(fd: int, deadline: float, send: Callable[[int], None]) -> int:
    """Wait until ``fd`` turns readable; past ``deadline``, end the stage.

    The timeout policy of both stage paths: a stage still running at the
    monotonic ``deadline`` gets ``send(SIGTERM)``, ``TIMEOUT_GRACE_SECONDS``
    of grace, then ``send(SIGKILL)``. Returns the last signal sent, or 0.
    """
    if _wait_readable(fd, deadline):
        return 0
    with suppress(ProcessLookupError):  # the stage has just ended
        send(signal.SIGTERM)
    if _wait_readable(fd, time.monotonic() + TIMEOUT_GRACE_SECONDS):
        return signal.SIGTERM
    with suppress(ProcessLookupError):
        send(signal.SIGKILL)
    return signal.SIGKILL


def run_stage(
    stage: StageSpec,
    sandbox: SandboxSpec,
    backend: ExecutorBackend,
    zygote: Optional[ZygoteCall] = None,
) -> StageResult:
    """Execute one stage to completion and classify the outcome.

    With a ``zygote``, a stage running the default command on the local
    backend is forked from it; otherwise, or when the zygote forks
    nothing, the command is spawned as a subprocess. A succeeded result
    carries its declared outputs' bytes in ``outputs``.

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
    # opened before the run, so a stage that swaps OUTPUT_DIR for a link
    # cannot point the reads below at another directory
    out_fd = os.open(sandbox.output_dir, os.O_RDONLY | os.O_DIRECTORY)
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
        duration = time.monotonic() - started
        if exit_code == 0 and not timed_out:
            outputs, missing, refused, total_bytes = _read_outputs(
                out_fd, stage.outputs
            )
    finally:
        _restore_modes(original_modes)
        os.close(out_fd)

    after = _mount_snapshot(sandbox.data_mount)
    log_digest = sha256_file(log_path)

    def result(status, detail="", output_digests=None, outputs=None):
        return StageResult(
            status=status,
            exit_code=exit_code,
            duration=duration,
            log_digest=log_digest,
            output_digests=dict(output_digests or {}),
            log_path=log_path,
            detail=detail,
            outputs=dict(outputs or {}),
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

    digests = {rel: sha256_bytes(data) for rel, data in outputs.items()}
    if refused:
        return result(
            STATUS_FAILED, detail="; ".join(refused), output_digests=digests
        )
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
    return result(STATUS_SUCCEEDED, output_digests=digests, outputs=outputs)


class _LinkedOutput(Exception):
    """A declared output that is, or lies behind, a link."""


def _open_no_link(name: str, flags: int, dir_fd: int, linked: str) -> int:
    """Open ``name`` in ``dir_fd``; a link raises ``_LinkedOutput(linked)``."""
    try:
        # non-blocking, so a FIFO opens at once and is then not a file
        return os.open(
            name, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK | flags,
            dir_fd=dir_fd,
        )
    except OSError:
        if stat.S_ISLNK(os.lstat(name, dir_fd=dir_fd).st_mode):
            raise _LinkedOutput(linked) from None
        raise


def _read_outputs(
    out_fd: int, rels: Tuple[str, ...]
) -> Tuple[Dict[str, bytes], List[str], List[str], int]:
    """Read each declared output once, below the OUTPUT_DIR ``out_fd``.

    Every component is opened without following a link, so the bytes are
    a regular file's inside the directory the stage was given. Returns
    (bytes by path, missing paths, refusals, total size); a file is read
    only while the total stays within ``MAX_OUTPUT_BYTES``.
    """
    outputs, missing, refused, total = {}, [], [], 0
    for rel in rels:
        *parents, name = PurePosixPath(rel).parts
        opened = []
        try:
            at = out_fd
            for part in parents:
                at = _open_no_link(
                    part, os.O_DIRECTORY, at, "lies behind a linked directory"
                )
                opened.append(at)
            opened.append(_open_no_link(name, 0, at, "is a link"))
            st = os.fstat(opened[-1])
            if not stat.S_ISREG(st.st_mode):
                missing.append(rel)
                continue
            total += st.st_size
            if total <= MAX_OUTPUT_BYTES:
                with open(opened[-1], "rb", closefd=False) as f:
                    outputs[rel] = f.read(st.st_size)
        except _LinkedOutput as exc:
            refused.append(f"output {rel} {exc}")
        except OSError:
            missing.append(rel)
        finally:
            for fd in opened:
                os.close(fd)
    return outputs, missing, refused, total


def collect_outputs(
    outputs: Mapping[str, bytes],
    policy: AccessPolicy,
    dest_dir: Path,
) -> Tuple[Tuple[str, ...], Tuple[ExportDecision, ...]]:
    """Write what ``policy`` lets a unit export of its ``outputs``.

    ``outputs`` is the bytes by relative path: an executed unit's
    ``StageResult.outputs``, or a cached unit's ``CacheStore.blobs``, of
    which only the exported are read. Returns (exported relative paths,
    full decision list). Denied paths are recorded with their reasons
    and never written.
    """
    decisions = check_export({rel: len(data) for rel, data in outputs.items()}, policy)
    exported = tuple(d.path for d in decisions if d.allowed)
    write_tree(dest_dir, {rel: bytes(outputs[rel]) for rel in exported})
    return exported, decisions


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
    log and one end of a fresh socket pair as passed file descriptors,
    and forks; on that pair the child sends its pid with a pidfd of
    itself, and at its end its exit code.

    The zygote starts at the first ``run`` and is stopped by ``close``.
    Its identity is its launch environment: a stage whose
    ``ZYGOTE_ENV_KEYS`` values differ restarts it, and so does a stage
    that finds it dead. A start waits at most ``ZYGOTE_START_SECONDS``.
    It is launched in the first stage's cwd and leaves it for ``/`` once
    its imports are done, so a job may delete that directory. Worker
    threads may call ``run`` concurrently.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None
        self._sock: Optional[socket.socket] = None
        self._launch_env: Optional[Dict[str, str]] = None

    @property
    def pid(self) -> Optional[int]:
        """The running zygote's pid, if one was started."""
        return None if self._proc is None else self._proc.pid

    def run(
        self, cwd: Path, env: Mapping[str, str], log: BinaryIO, timeout: float
    ) -> Optional[Tuple[int, bool, str]]:
        """Run one stage in a fork; returns (exit code, timed out, cause).

        Raises ``ZygoteStartError`` when no zygote could be started, and
        returns None when it was lost before it forked. The child's first
        message is its pid with a pidfd of itself, its last its exit code;
        ``_supervise`` waits on the socket they come over and signals the
        stage, alone, through that pidfd.
        """
        sock = self._connect(cwd, env, timeout)
        request = json.dumps({"cwd": str(cwd), "env": dict(env)}).encode()
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with ours:
            try:
                with theirs:
                    socket.send_fds(sock, [request], [log.fileno(), theirs.fileno()])
            except OSError:
                return None
            fd, deadline = ours.fileno(), time.monotonic() + timeout
            if not _wait_readable(fd, deadline + TIMEOUT_GRACE_SECONDS):
                return -1, True, ""  # nothing forked in time, nothing to signal
            pid, pidfds, _, _ = socket.recv_fds(ours, 32, 1)
            if not pidfds:  # end-of-file, or a child that ran nothing
                return None
            try:
                send = partial(signal.pidfd_send_signal, pidfds[0])
                signalled = _supervise(fd, deadline, send)
                # readable at once, unless a kill has yet to end the stage
                ended = _wait_readable(fd, time.monotonic() + TIMEOUT_GRACE_SECONDS)
                exit_code = ours.recv(32) if ended else b""
            finally:
                os.close(pidfds[0])
        if exit_code:
            return int(exit_code), bool(signalled), ""
        if signalled:
            return -signalled, True, ""
        return -1, False, (
            f"stage process {int(pid)} forked from the stage zygote "
            "ended without reporting an exit code"
        )

    def close(self) -> None:
        """Stop the zygote and reap it; stages it forked are not waited for."""
        with self._lock:
            self._stop()

    def _connect(
        self, cwd: Path, env: Mapping[str, str], timeout: float
    ) -> socket.socket:
        launch_env = {k: env[k] for k in ZYGOTE_ENV_KEYS if k in env}
        with self._lock:
            if (
                self._proc is not None
                and self._proc.poll() is None
                and self._launch_env == launch_env
            ):
                return self._sock
            self._stop()
            self._sock, theirs = socket.socketpair(
                socket.AF_UNIX, socket.SOCK_SEQPACKET
            )
            try:
                with theirs:
                    self._proc = subprocess.Popen(
                        (DEFAULT_STAGE_COMMAND[0], "-c", _ZYGOTE_CODE,
                         str(theirs.fileno())),
                        cwd=cwd,
                        env=launch_env,
                        stdin=subprocess.DEVNULL,
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.DEVNULL,
                        pass_fds=(theirs.fileno(),),
                    )
                # a start slower than the stage's timeout or the start limit
                # is a failed one
                limit = min(timeout, ZYGOTE_START_SECONDS)
                ready = _wait_readable(
                    self._sock.fileno(), time.monotonic() + limit
                ) and self._sock.recv(16) == b"ready"
            except OSError:
                ready = False
            if not ready:
                self._stop()
                raise ZygoteStartError("the stage zygote did not start")
            self._launch_env = launch_env
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
        self._launch_env = None


class ZygoteCall:
    """One scheduler call's use of a shared ``StageZygote``.

    Once the zygote fails to start, ``run`` returns None for the rest of
    the call without trying again, so the caller spawns its stages; the
    next call tries to start it again.
    """

    def __init__(self, zygote: StageZygote):
        self._zygote = zygote
        self._start_failed = False

    def run(
        self, cwd: Path, env: Mapping[str, str], log: BinaryIO, timeout: float
    ) -> Optional[Tuple[int, bool, str]]:
        """``StageZygote.run``, or None once a start has failed."""
        if self._start_failed:
            return None
        try:
            return self._zygote.run(cwd, env, log, timeout)
        except ZygoteStartError:
            self._start_failed = True
            return None


# the zygote of this process: created here, started by the first stage
# that forks from it, stopped when the interpreter exits
_PROCESS_ZYGOTE = StageZygote()
atexit.register(_PROCESS_ZYGOTE.close)


def process_zygote() -> StageZygote:
    """The zygote every scheduler call in this process forks stages from."""
    return _PROCESS_ZYGOTE


def _wait_readable(fd: int, deadline: float) -> bool:
    """Whether ``fd`` turns readable before the monotonic ``deadline``."""
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        if poller.poll(min(remaining, _WAIT_SLICE_SECONDS) * 1000):
            return True


def _zygote_main(fd: int) -> None:
    """Zygote body: fork a stage per request on socket ``fd`` until EOF."""
    for name in ZYGOTE_PRELOAD:
        importlib.import_module(name)
    # leave the launching stage's cwd, which its job deletes; every child
    # changes to its own stage's cwd before it runs
    os.chdir("/")
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


def _stage_child(request: bytes, log_fd: int, report_fd: int) -> None:
    """A forked stage: set up as a spawned one would be, run, ``_exit``."""
    code = 1
    try:
        # first its pid with a pidfd of itself, which the engine signals
        # it by; last, on the same socket, its exit code
        report = socket.socket(fileno=report_fd)
        pidfd = os.pidfd_open(os.getpid())
        socket.send_fds(report, [b"%d" % os.getpid()], [pidfd])
        os.dup2(log_fd, 1)
        os.dup2(log_fd, 2)
        os.closerange(3, report_fd)
        os.closerange(report_fd + 1, os.sysconf("SC_OPEN_MAX"))
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
            os.write(report_fd, b"%d" % code)
        finally:
            os._exit(code)
