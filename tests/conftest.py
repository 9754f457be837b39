"""Shared fixtures."""

import time

import pytest

from skewbeta import verify

SUITE_SEED = 20260823


@pytest.fixture(scope="session")
def suite_run():
    """``suite_run(name)`` is the report of verification suite ``name`` at
    ``SUITE_SEED`` and its run time in seconds.  Each suite runs once per
    session, however many tests read it."""
    runs = {}

    def get(name):
        if name not in runs:
            start = time.monotonic()
            report = verify.SUITES[name](SUITE_SEED)
            runs[name] = report, time.monotonic() - start
        return runs[name]
    return get
