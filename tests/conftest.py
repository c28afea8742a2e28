"""Fixtures shared by the test modules."""

import gc

import pytest


@pytest.fixture()
def collector_state():
    """Restores the collector's on/off state after a test that flips it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()
