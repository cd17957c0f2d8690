"""Tests for the API documentation generator."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

from gen_api_docs import first_paragraph, generate, public_names  # noqa: E402


@pytest.fixture(scope="module")
def api_text():
    return generate()


def test_generator_covers_all_packages(api_text):
    for package in ("repro.sim", "repro.epc", "repro.sdn", "repro.d2d",
                    "repro.localization", "repro.vision", "repro.core",
                    "repro.apps", "repro.baselines"):
        assert f"## `{package}" in api_text


def test_key_classes_documented(api_text):
    for name in ("MobileNetwork", "AcaciaDeviceManager",
                 "MecRegistrationServer", "FlowSwitch", "LteDirectModem",
                 "BatchObjectMatcher", "LocationTracker", "TcpSource",
                 "EPCControlPlane"):
        assert f"class `{name}" in api_text


def test_docstring_summaries_included(api_text):
    assert "Mobility Management Entity" in api_text
    assert "trilateration" in api_text.lower()


def test_helpers():
    class Example:
        """First paragraph here.

        Second paragraph ignored."""

    assert first_paragraph(Example) == "First paragraph here."

    import repro.sim as sim_module
    names = public_names(sim_module)
    assert "Simulator" in names
    assert all(not n.startswith("_") for n in names)


def test_checked_in_docs_not_stale(api_text):
    """docs/API.md must be regenerated when the public API changes."""
    path = Path(__file__).parent.parent / "docs" / "API.md"
    assert path.exists(), "run tools/gen_api_docs.py"
    checked_in = path.read_text()
    assert checked_in == api_text, \
        "docs/API.md is stale: run python tools/gen_api_docs.py"
