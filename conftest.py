"""Repo-wide pytest configuration.

Implements the ``@pytest.mark.timeout(seconds)`` hard-timeout marker
with no plugin dependency: the socket-transport integration tests run
in the default CI job, and a hung connection must fail fast (one
``TimeoutError``) instead of stalling the whole suite.  SIGALRM fires
in the main thread, which interrupts blocked asyncio loops too; on
platforms without SIGALRM the marker degrades to a no-op.

It also registers the ``ci`` hypothesis profile, chosen by
``HYPOTHESIS_PROFILE=ci``: more examples for every property test that
leaves its count to the profile (the codec oracle fuzz,
``tests/wire/test_codec_oracle.py``).  Unset, the default counts apply.
"""

from __future__ import annotations

import os
import signal

import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("timeout")
    if marker is None or not hasattr(signal, "SIGALRM"):
        return (yield)
    seconds = float(marker.args[0])

    def _expired(signum, frame):
        raise TimeoutError(
            f"hard timeout: {item.nodeid} exceeded {seconds:g}s"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return (yield)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
