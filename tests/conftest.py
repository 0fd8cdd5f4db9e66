"""A time limit on every test, so that an engine that cycles fails the run
instead of hanging it.

The limit is an alarm signal (POSIX only; elsewhere tests run unlimited).
It is armed around each phase of a test, set-up, call and teardown, so it
also covers the session and module fixtures that a set-up builds, such as
the acceptance sweep.  The limits sit at least ten times above the slowest
phase of each group as `pytest --durations=0` reports it.
"""

import signal

import pytest

QUICK_LIMIT_S = 120
SLOW_LIMIT_S = 1200


class TimeLimitExceeded(BaseException):
    """Not an Exception, so that neither the code under test nor hypothesis
    catches it as an ordinary failure and runs on."""


def _time_limit(item, when):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    limit = SLOW_LIMIT_S if item.get_closest_marker("slow") else QUICK_LIMIT_S

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} {when} ran past its {limit} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _time_limit(item, "setup")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _time_limit(item, "call")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    yield from _time_limit(item, "teardown")
