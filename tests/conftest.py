"""A time limit on every test, so that an engine that cycles fails the run
instead of hanging it.

The limit is an alarm signal (POSIX only; elsewhere tests run unlimited).
It covers the test's own fixtures and body; session and module fixtures,
such as the acceptance sweep, are built before it is armed.  The limits sit
at least ten times above the slowest test of each group as `pytest
--durations=0` reports it.
"""

import signal

import pytest

QUICK_LIMIT_S = 120
SLOW_LIMIT_S = 1200


class TimeLimitExceeded(BaseException):
    """Not an Exception, so that neither the code under test nor hypothesis
    catches it as an ordinary failure and runs on."""


@pytest.fixture(autouse=True)
def time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    limit = SLOW_LIMIT_S if request.node.get_closest_marker("slow") else QUICK_LIMIT_S

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{request.node.nodeid} ran past its {limit} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(limit)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
