"""Checks that hold after every test in this directory."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """A test leaves no child process behind, running or unreaped: a CLI
    command must reap every child it starts on success and on error."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"unreaped, exit status {status}"
    pytest.fail(f"a child process was left behind ({state})")
