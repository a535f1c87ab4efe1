import gc

import pytest


@pytest.fixture(autouse=True)
def _collector_left_enabled():
    """Fail the test that leaves the cyclic garbage collector disabled, and
    turn it back on so the tests after it run as usual."""
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the cyclic garbage collector was left disabled"
