"""Fixtures shared across the test modules."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import relab
import relab.executor as executor


@pytest.fixture
def spawned(monkeypatch):
    """Commands run through the subprocess path while the test runs."""
    commands = []
    real = executor._run_subprocess

    def spy(command, *args):
        commands.append(command)
        return real(command, *args)

    monkeypatch.setattr(executor, "_run_subprocess", spy)
    return commands


class Children:
    """Python child processes whose every wait is bounded.

    A child that outlives its wait is killed and fails the test, so a
    lock that is never released fails the suite instead of hanging it.
    Each child leads a session of its own, and a kill reaches its whole
    process group, so no process it started (a stage zygote, a stage)
    outlives it.
    """

    def __init__(self):
        self.procs = []
        paths = (str(Path(relab.__file__).parent.parent), os.environ.get("PYTHONPATH"))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))

    def start(self, script: str, *args) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *map(str, args)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            start_new_session=True,
        )
        self.procs.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen, timeout: float = 60) -> str:
        """Wait for a child to exit 0; returns its stdout."""
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill(proc)
            proc.communicate()
            pytest.fail(f"child still running after {timeout} s; killed")
        assert proc.returncode == 0, err.decode()
        return out.decode()

    @staticmethod
    def kill(proc: subprocess.Popen) -> None:
        """Kill the child's process group, also once the child has exited."""
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)

    def kill_all(self) -> None:
        for proc in self.procs:
            self.kill(proc)
            proc.stdout.close()
            proc.stderr.close()


@pytest.fixture
def children():
    """Start Python children; any still running at teardown is killed."""
    kids = Children()
    yield kids
    kids.kill_all()
