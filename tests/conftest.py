"""A time limit on every test, so that a test that hangs fails by its own
name instead of stalling the run.  It needs SIGALRM, so it holds only where
the platform has one."""

import signal

import pytest

LIMIT = 60  # seconds; the slowest test takes under 2 s on a shared 2-core machine


def timed_out(signum, frame):
    raise TimeoutError(f"the test ran past its {LIMIT} s limit")


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
