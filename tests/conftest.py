"""Shared fixtures.

The orbit memo lives for the whole process, so an orbit closed by one test
would come back from the memo in the next.  Tests that patch the moves,
the involution transport or the checks, or that count the checks of a
closure, need the closure to run; every test therefore starts from an
empty memo.
"""

import pytest

from pillowtiled import orbit


@pytest.fixture(autouse=True)
def cold_orbit_memo():
    orbit._clear_memo()
    yield
    orbit._clear_memo()
