"""Shared fixtures.

The orbit memo, the sum-rule memo of cyclic covers and the walkers' state
cache keep what they build in one process-wide store, so an orbit, report,
state or move built by one test would come back from the store in the
next.  Tests that patch the moves, the involution transport, the chain
maps, the homology or the checks, or that count or time the builds of a
closure or a walker, need the builds to run; every test therefore starts
from an empty store.
"""

import pytest

from pillowtiled import store


@pytest.fixture(autouse=True)
def cold_store():
    store.clear()
    yield
    store.clear()
