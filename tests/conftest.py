"""Checks that hold after every test in this directory."""

import os

import pytest

FD_DIR = "/proc/self/fd"


def open_descriptors() -> dict[int, str]:
    """What each open descriptor of this process points at. The descriptor
    that ``os.listdir`` reads the directory through is closed by the time
    it is resolved, and is left out."""
    found = {}
    for name in os.listdir(FD_DIR):
        try:
            found[int(name)] = os.readlink(os.path.join(FD_DIR, name))
        except FileNotFoundError:
            continue
    return found


@pytest.fixture
def descriptors():
    """``open_descriptors``, for a test that checks a path is closed;
    skipped where the process's descriptors cannot be listed."""
    if not os.path.isdir(FD_DIR):
        pytest.skip(f"no {FD_DIR} to list open descriptors")
    return open_descriptors


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


@pytest.fixture(autouse=True)
def no_descriptor_left():
    """A test leaves no file descriptor open that it did not find open: a
    reader must close its file on success and on error, even while the
    error it raised is still referenced."""
    if not os.path.isdir(FD_DIR):
        yield
        return
    before = open_descriptors()
    yield
    left = {fd: path for fd, path in open_descriptors().items() if before.get(fd) != path}
    if left:
        pytest.fail(f"file descriptors left open: {left}")
