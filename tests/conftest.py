"""Shared fixtures."""

import pytest

from repro.sim import engine


@pytest.fixture(params=["fast", "reference"])
def event_recycling(request, monkeypatch):
    """Run a test with the engine's internal-event free pool on
    (``fast``) and off (``reference``: every internal event is freshly
    allocated). Recycling must never change event order or results."""
    if request.param == "reference":
        monkeypatch.setattr(engine, "POOL_CAP", 0)
    return request.param
