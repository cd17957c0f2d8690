"""Unit tests for the declarative experiment spec and runner."""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.exp import (ExperimentRunner, ExperimentSpec, PRESETS, preset,
                       run_trial, workload)
from repro.exp.spec import TrialSpec
from repro.sim.context import derive_seed


@workload("_test_double")
def _double(trial):
    p = trial.param_dict
    if p.get("explode"):
        raise RuntimeError("boom")
    return {"doubled": p["x"] * 2, "seed": trial.seed}


@workload("_test_crash")
def _crash(trial):
    if trial.param_dict["crash"]:
        os._exit(1)          # the worker dies without raising
    return {"ok": True}


# ---------------------------------------------------------------------------
# spec expansion
# ---------------------------------------------------------------------------

def test_trials_cross_sweep_axes_with_seeds_innermost():
    spec = ExperimentSpec(name="t", workload="_test_double",
                          seeds=(0, 1),
                          sweep={"x": (10, 20), "y": ("a", "b")})
    trials = spec.trials()
    assert len(trials) == 8
    assert [t.index for t in trials] == list(range(8))
    # declaration order: x outermost, then y, seeds innermost
    assert [(t.param_dict["x"], t.param_dict["y"], t.base_seed)
            for t in trials[:4]] == [(10, "a", 0), (10, "a", 1),
                                     (10, "b", 0), (10, "b", 1)]


def test_trial_seed_is_derived_and_paired_across_cells():
    spec = ExperimentSpec(name="t", workload="_test_double",
                          seeds=(5,), sweep={"x": (1, 2)})
    first, second = spec.trials()
    expected = derive_seed("t", "_test_double", 5)
    # same derived seed in every sweep cell: paired comparisons
    assert first.seed == second.seed == expected


def test_fixed_params_merge_with_sweep_cell():
    spec = ExperimentSpec(name="t", workload="_test_double",
                          params={"x": 1}, sweep={"y": (7,)})
    (trial,) = spec.trials()
    assert trial.param_dict == {"x": 1, "y": 7}


def test_spec_round_trips_through_json():
    spec = ExperimentSpec(name="t", workload="ping", seeds=(3, 4),
                          sweep={"bg_mbps": (0, 40)},
                          params={"count": 2})
    clone = ExperimentSpec.from_json(
        __import__("json").dumps(spec.to_dict()))
    assert clone == spec
    assert clone.trials() == spec.trials()


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def test_serial_run_collects_metrics_in_trial_order():
    spec = ExperimentSpec(name="t", workload="_test_double",
                          sweep={"x": (1, 2, 3)})
    result = ExperimentRunner(spec).run()
    assert result.ok
    assert [t.metrics["doubled"] for t in result.trials] == [2, 4, 6]
    assert result.metrics_by("x")[(2,)]["doubled"] == 4


def test_errors_are_captured_not_raised():
    spec = ExperimentSpec(name="t", workload="_test_double",
                          sweep={"x": (1,), "explode": (False, True)})
    result = ExperimentRunner(spec).run()
    assert not result.ok
    (failure,) = result.failures()
    assert failure.status == "error"
    assert "boom" in failure.error
    # the healthy cell still produced metrics
    assert result.metrics_by("explode")[(False,)]["doubled"] == 2


def test_unknown_workload_is_an_error_result():
    spec = ExperimentSpec(name="t", workload="no-such-workload")
    result = ExperimentRunner(spec).run()
    assert not result.ok
    assert "no-such-workload" in result.failures()[0].error


def test_runner_rejects_nonpositive_workers():
    spec = ExperimentSpec(name="t", workload="_test_double")
    with pytest.raises(ValueError):
        ExperimentRunner(spec, workers=0)


def test_result_json_embeds_provenance_and_no_timestamps():
    spec = ExperimentSpec(name="t", workload="_test_double",
                          seeds=(9,), sweep={"x": (4,)})
    result = ExperimentRunner(spec).run()
    data = result.to_dict()
    assert data["spec"]["name"] == "t"
    (trial,) = data["trials"]
    assert trial["provenance"]["base_seed"] == 9
    assert trial["provenance"]["seed"] == derive_seed(
        "t", "_test_double", 9)
    assert trial["provenance"]["params"] == {"x": 4}
    # canonical JSON is reproducible: rerun gives identical bytes
    assert result.canonical_json() == \
        ExperimentRunner(spec).run().canonical_json()


def test_run_trial_is_usable_standalone():
    trial = TrialSpec(experiment="t", index=0, workload="_test_double",
                      base_seed=0, seed=1, params=(("x", 21),))
    result = run_trial(trial)
    assert result.status == "ok"
    assert result.metrics["doubled"] == 42


def test_pool_never_larger_than_the_trial_count(monkeypatch):
    sizes = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr("repro.exp.runner.ProcessPoolExecutor",
                        RecordingPool)
    spec = ExperimentSpec(name="t", workload="_test_double",
                          sweep={"x": (1, 2)})
    parallel = ExperimentRunner(spec, workers=8).run()
    assert sizes == [2]
    assert parallel.canonical_json() == \
        ExperimentRunner(spec).run().canonical_json()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="test workloads reach workers only by fork")
def test_worker_crash_breaks_the_pool_instead_of_hanging():
    spec = ExperimentSpec(name="t", workload="_test_crash",
                          sweep={"crash": (False, True)})
    with pytest.raises(BrokenProcessPool):
        ExperimentRunner(spec, workers=2).run()


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_presets_name_known_workloads():
    from repro.exp.workloads import WORKLOADS
    for name, spec in PRESETS.items():
        assert spec.name == name
        assert spec.workload in WORKLOADS
        assert spec.trials()     # every preset expands to >= 1 trial


def test_preset_lookup_fails_cleanly():
    assert preset("smoke") is PRESETS["smoke"]
    with pytest.raises(KeyError):
        preset("fig99")
