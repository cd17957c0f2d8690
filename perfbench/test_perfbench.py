"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
from layers import OPS, SETUP_OPS, Op, Tracer  # noqa: E402
from workloads import WORKLOADS, check, load_pins  # noqa: E402


# -- the correctness check ---------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_outputs_pass_and_a_perturbed_value_fails(name):
    workload = WORKLOADS[name]
    pins = load_pins()
    trials = copy.deepcopy(pins[name][str(workload.default_seed)])
    assert check(workload, workload.default_seed, trials, pins) == []

    metrics = trials[0]
    key = ("interruption_ms_mean" if name == "relocation_walk"
           else "median_rtt_ms" if name == "attach_storm" else None)
    if key is None:
        metrics["breakdown_ms"]["match"] *= 1 + 1e-6
    else:
        metrics[key] *= 1 + 1e-6
    problems = check(workload, workload.default_seed, trials, pins)
    assert len(problems) == 1 and "pinned" in problems[0]

    recount = copy.deepcopy(pins[name][str(workload.default_seed)])
    recount[0]["frames_completed" if key is None else "n_ues"] += 1
    assert check(workload, workload.default_seed, recount, pins)


def test_float_pins_allow_rounding_noise_only():
    workload = WORKLOADS["attach_storm"]
    pins = load_pins()
    trials = copy.deepcopy(pins["attach_storm"]["1"])
    trials[0]["p95_rtt_ms"] *= 1 + 1e-12
    assert check(workload, 1, trials, pins) == []


def test_unpinned_seed_is_held_to_the_invariants():
    workload = WORKLOADS["relocation_walk"]
    pins = load_pins()
    trials = copy.deepcopy(pins["relocation_walk"]["1"])
    assert check(workload, 99, trials, pins) == []
    trials[0]["pings_lost"] = 3
    assert check(workload, 99, trials, pins) == ["3 pings lost"]


# -- self time ---------------------------------------------------------------

class Clock:
    """A clock the synthetic calls advance by exact amounts."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


CLOCK = Clock()


class Tree:
    def outer(self):
        CLOCK.now += 2.0
        self.middle()
        self.middle()
        CLOCK.now += 1.0

    def middle(self):
        CLOCK.now += 3.0
        self.leaf()

    def leaf(self):
        CLOCK.now += 5.0


class Override(Tree):
    def leaf(self):
        CLOCK.now += 0.5
        super().leaf()


def test_self_time_on_a_synthetic_call_tree_adds_up():
    ops = [Op(f"{__name__}:Tree.outer", "a", "a.calls"),
           Op(f"{__name__}:Tree.middle", "b", "b.calls"),
           Op(f"{__name__}:Tree.leaf", "c", "c.calls"),
           Op(f"{__name__}:Override.leaf", "c", "c.calls")]
    tracer = Tracer(ops, clock=CLOCK)
    tracer.install()
    try:
        start = CLOCK.now
        Tree().outer()
        Override().outer()
        elapsed = CLOCK.now - start
    finally:
        tracer.uninstall()
    assert Tree.outer.__name__ == "outer" and not hasattr(Tree.outer,
                                                          "__wrapped__")

    selfs = tracer.layer_self()
    assert selfs["a"] == 2 * 3.0
    assert selfs["b"] == 4 * 3.0
    assert selfs["c"] == 4 * 5.0 + 2 * 0.5
    assert sum(selfs.values()) == elapsed
    # an override calling super() counts once
    assert tracer.counts == {"a.calls": 2, "b.calls": 4, "c.calls": 4}
    # every span but the two roots has a parent that encloses it
    spans = {i: (p, s, e) for i, p, s, e in zip(
        tracer.span_id, tracer.span_parent, tracer.span_start,
        tracer.span_end)}
    assert len(spans) == 12
    roots = [i for i, (p, _, _) in spans.items() if p == -1]
    assert len(roots) == 2
    for parent, s, e in spans.values():
        if parent != -1:
            assert spans[parent][1] <= s <= e <= spans[parent][2]


# -- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_argument_changes_the_generated_inputs(name, tmp_path):
    from repro.scenario import load_path

    workload = WORKLOADS[name]
    assert workload.document(3) == workload.document(3)
    assert workload.document(3) != workload.document(4)
    specs = [load_path(workload.write_document(seed, tmp_path)).compile()
             for seed in (3, 3, 4)]
    seeds = [[t.seed for t in spec.trials()] for spec in specs]
    assert seeds[0] == seeds[1]
    assert not set(seeds[0]) & set(seeds[2])


def test_documents_carry_no_scheduler_or_sharding_field():
    for workload in WORKLOADS.values():
        text = json.dumps(workload.document(1))
        assert "scheduler" not in text and "sharding" not in text


# -- traced run sanity -------------------------------------------------------

def test_wrapper_counts_match_the_program_counters(tmp_path):
    workload = WORKLOADS["relocation_walk"]
    doc = workload.document(1)
    doc["traffic"]["ci"]["n_ues"] = 2
    path = tmp_path / "relocation_walk.json"
    path.write_text(json.dumps(doc))
    tracer = Tracer(SETUP_OPS + OPS)
    result = run.run_pass(path, tracer, True, workload.kernel)
    assert result["errors"] == []
    assert run.cross_checks(tracer, workload) == []
    assert tracer.loop_events == result["trials"][0]["events_run"]


def test_a_bypassed_wrapper_fails_the_traced_run():
    problems = run.cross_checks(Tracer(SETUP_OPS + OPS), WORKLOADS["attach_storm"])
    assert any("fluid.resolves is zero" in p for p in problems)
