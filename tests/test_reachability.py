"""Tests for the reachability tool (``tools/reachability.py``)."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import reachability  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """What ``repro scenario run smoke --workers 2`` reaches, and the
    package's functions by ``(module, qualname)``."""
    reached = reachability.trace(
        [sys.executable, "-m", "repro", "scenario", "run", "smoke",
         "--workers", "2"],
        cwd=ROOT, src=ROOT / "src", out=tmp_path_factory.mktemp("reach"))
    functions = {(f.module, f.qualname): f
                 for f in reachability.list_functions(ROOT / "src")}
    return reached, functions


def test_pool_workers_are_traced(smoke):
    reached, functions = smoke
    run_trial = functions[("repro/exp/runner.py", "run_trial")]
    worker = functions[("repro/exp/runner.py", "_worker_trial")]
    assert ("repro/exp/runner.py", run_trial.first) in reached
    # only a forked pool worker runs this
    assert ("repro/exp/runner.py", worker.first) in reached


def test_unreached_function_is_not_reported_reached(smoke):
    reached, functions = smoke
    advance = functions[("repro/ops/pacer.py", "Pacer.advance")]
    assert ("repro/ops/pacer.py", advance.first) not in reached


def test_decorated_function_keyed_by_decorator_line(smoke):
    reached, functions = smoke
    ok = functions[("repro/exp/runner.py", "ExperimentResult.ok")]
    source = (ROOT / "src" / ok.module).read_text().splitlines()
    assert source[ok.first - 1].strip() == "@property"
    assert ("repro/exp/runner.py", ok.first) in reached      # the CLI reads it
    assert ("repro/exp/runner.py", ok.first + 1) not in reached
