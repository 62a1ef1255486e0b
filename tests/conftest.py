"""Fixtures shared by the executor and scheduler tests."""

import pytest

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
