"""The per-test time limit of tests/conftest.py."""

import signal
import time

import pytest

from tests.conftest import LIMIT, timed_out

needs_alarm = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the platform has no SIGALRM")


def test_the_handler_fails_the_running_test():
    with pytest.raises(TimeoutError, match=f"past its {LIMIT} s limit"):
        timed_out(getattr(signal, "SIGALRM", 14), None)


@needs_alarm
def test_a_test_past_its_limit_fails_when_the_alarm_fires():
    """The alarm, brought forward to 50 ms, interrupts a sleep of a minute."""
    assert signal.getsignal(signal.SIGALRM) is timed_out and 0 < signal.alarm(0) <= LIMIT
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    start = time.monotonic()
    with pytest.raises(TimeoutError, match="limit"):
        time.sleep(60)
    assert time.monotonic() - start < 10
