"""Shared fixtures.

The orbit memo lives for the whole process, so an orbit closed by one test
would come back from the memo in the next.  Tests that patch the moves,
the involution transport or the checks, or that count the checks of a
closure, need the closure to run; every test therefore starts from an
empty memo.  The sum-rule memo of cyclic covers is emptied with it: a
report kept by one test would skip the cover, the double cover and the
orbit in the next.

The walkers' state cache lives for the whole process too, and a state or
transition built by one test would be reused by the next.  Tests that
patch the chain maps or the homology, or that count or time the builds of
a walker, need the builds to run; every test therefore also starts from an
empty state cache.
"""

import pytest

from pillowtiled import cocycle, cylinders, orbit


@pytest.fixture(autouse=True)
def cold_orbit_memo():
    orbit._clear_memo()
    cylinders._clear_memo()
    yield
    orbit._clear_memo()
    cylinders._clear_memo()


@pytest.fixture(autouse=True)
def cold_state_cache():
    cocycle._clear_shared_cache()
    yield
    cocycle._clear_shared_cache()
