"""Unit tests for the declarative experiment spec and runner."""

import gc
import multiprocessing
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.exp import ExperimentRunner, ExperimentSpec, run_trial, workload
from repro.exp.spec import TrialSpec
from repro.exp.workloads import WORKLOADS
from repro.scenario import ScenarioError, catalogue, load
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

    # the runner imports the pool class inside its pool branch
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        RecordingPool)
    spec = ExperimentSpec(name="t", workload="_test_double",
                          sweep={"x": (1, 2)})
    parallel = ExperimentRunner(spec, workers=8).run()
    assert sizes == [2]
    assert parallel.canonical_json() == \
        ExperimentRunner(spec).run().canonical_json()


def test_scale_preset_identical_for_one_and_two_workers():
    """A real preset, not a test double: the ``scale`` attach storms
    give byte-identical canonical output serially and on two worker
    processes (the figure benchmarks rely on this to run in parallel)."""
    spec = load("scale").compile()
    serial = ExperimentRunner(spec, workers=1).run()
    parallel = ExperimentRunner(spec, workers=2).run()
    assert serial.ok and len(serial.trials) == 4
    assert parallel.canonical_json() == serial.canonical_json()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="test workloads reach workers only by fork")
def test_worker_crash_breaks_the_pool_instead_of_hanging():
    spec = ExperimentSpec(name="t", workload="_test_crash",
                          sweep={"crash": (False, True)})
    with pytest.raises(BrokenProcessPool):
        ExperimentRunner(spec, workers=2).run()


# ---------------------------------------------------------------------------
# release of finished trials' worlds
# ---------------------------------------------------------------------------

class _World:
    """Stands in for a trial's world: weakref-able, kept in a cycle."""


#: (pid, weakref) of the last probe world built in this process
_last_world = None


@pytest.fixture()
def release_probe():
    """A workload reporting whether the world of the previous trial run
    in the same process is still alive when the next trial starts."""
    global _last_world
    _last_world = None

    @workload("_test_release_probe")
    def probe(trial):
        global _last_world
        previous = None
        if _last_world is not None and _last_world[0] == os.getpid():
            previous = _last_world[1]() is not None
        world = _World()
        world.self = world                  # only the cyclic collector frees it
        # a real world lives long enough to reach the oldest generation,
        # where only a full collection looks at it
        gc.collect(1)
        _last_world = (os.getpid(), weakref.ref(world))
        return {"previous_alive": previous}

    yield "_test_release_probe"
    del WORKLOADS["_test_release_probe"]


def _previous_alive(result):
    assert result.ok
    return [t.metrics["previous_alive"] for t in result.trials]


def test_serial_run_frees_each_world_before_the_next_trial(release_probe):
    spec = ExperimentSpec(name="t", workload=release_probe,
                          seeds=(0, 1, 2, 3))
    assert _previous_alive(ExperimentRunner(spec).run()) == \
        [None, False, False, False]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="test workloads reach workers only by fork")
def test_pool_worker_frees_each_world_before_its_next_trial(release_probe):
    spec = ExperimentSpec(name="t", workload=release_probe,
                          seeds=tuple(range(6)))
    alive = _previous_alive(ExperimentRunner(spec, workers=2).run())
    # each worker's first trial has no predecessor; six trials on two
    # workers give at least four that do
    assert alive.count(None) <= 2
    assert all(a is False for a in alive if a is not None)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_presets_name_known_workloads():
    presets = [s for s in map(load, catalogue()) if "preset" in s.tags]
    assert presets
    for scenario in presets:
        spec = scenario.compile()
        assert spec.name == scenario.name
        assert spec.workload in WORKLOADS
        assert spec.trials()     # every preset expands to >= 1 trial


def test_preset_lookup_fails_cleanly():
    with pytest.raises(ScenarioError, match="unknown scenario 'fig99'"):
        load("fig99")
