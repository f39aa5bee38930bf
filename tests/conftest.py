"""Every test must reap the processes it starts.

``io.RowReader`` parses a CSV stream on a forked worker, which its
``close()`` must kill and reap on every way out: the end of the stream, an
error, an early close, a consumer's exception. A worker left behind would
outlive the test run, so each test fails if a child process it started is
still present (running or unreaped) when it ends.
"""
import glob
import os
import signal
from typing import Optional

import pytest


def _children() -> Optional[set]:
    """This process's children, running or unreaped; None where ``/proc``
    does not list them."""
    files = glob.glob(f"/proc/{os.getpid()}/task/*/children")
    if not files:
        return None
    pids = set()
    for name in files:
        try:
            with open(name) as fh:
                pids.update(int(pid) for pid in fh.read().split())
        except OSError:  # the thread ended
            continue
    return pids


@pytest.fixture(autouse=True)
def no_child_left():
    before = _children()
    yield
    if before is None:
        return
    left = _children() - before
    for pid in left:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if left:
        pytest.fail(f"child processes still present after the test: {sorted(left)}")
