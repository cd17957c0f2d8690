"""The declarative scenario layer: schema, documents, loader, runtime.

Covers the published-schema validator's path-qualified errors, the
document cross-checks and digest, catalogue loading (including the
gated YAML path), compilation into experiment specs, the generic
workload's interpretation of every section, and determinism of a
full scenario run.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.scenario import (CATALOGUE_DIR, GENERIC_WORKLOAD, SCHEMA,
                            Scenario, ScenarioError,
                            ScenarioValidationError, canonical_json,
                            catalogue, load, load_path, parse_text,
                            validate)

ROOT = Path(__file__).parent.parent


def minimal(**extra):
    data = {
        "scenario": {"name": "t", "version": 1, "description": "d"},
        "experiment": {"workload": "scenario", "seeds": [1]},
    }
    data.update(extra)
    return data


# -- schema validation -------------------------------------------------------

def test_minimal_document_validates():
    validate(minimal())


def test_missing_required_section():
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate({"scenario": {"name": "t", "version": 1,
                               "description": "d"}})
    assert "experiment" in str(excinfo.value)


def test_unknown_top_level_key_lists_valid_ones():
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate(minimal(topologie={}))
    message = str(excinfo.value)
    assert "topologie" in message and "topology" in message


def test_bad_nested_value_is_path_qualified():
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate(minimal(topology={"sites": 0}))
    assert excinfo.value.path == "topology.sites"


def test_bad_array_entry_is_index_qualified():
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate(minimal(faults=[
            {"type": "link_down", "link": "a"},
            {"type": "gremlin"}]))
    assert excinfo.value.path == "faults[1].type"


def test_enum_violation_names_the_choices():
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate(minimal(traffic={"ci": {"path": "sideways"}}))
    assert excinfo.value.path == "traffic.ci.path"
    assert "edge" in str(excinfo.value)


def test_bad_scenario_name_pattern():
    bad = minimal()
    bad["scenario"]["name"] = "no spaces allowed"
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate(bad)
    assert excinfo.value.path == "scenario.name"


def test_type_mismatch_reports_both_types():
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate(minimal(run={"warmup": "soon"}))
    message = str(excinfo.value)
    assert "number" in message and "string" in message


def test_network_properties_are_generated_from_the_dataclasses():
    from dataclasses import fields
    from repro.core.config import NetworkConfig
    props = SCHEMA["properties"]["network"]["properties"]
    expected = {f.name for f in fields(NetworkConfig)} - {"seed"}
    assert set(props) == expected


# -- document cross-checks ---------------------------------------------------

def test_network_overlay_is_cross_validated():
    with pytest.raises(ScenarioValidationError) as excinfo:
        Scenario.from_dict(minimal(
            network={"continuity": {"policy": "teleport"}}))
    assert "network.continuity" in str(excinfo.value)


def test_faults_are_cross_validated_per_type():
    with pytest.raises(ScenarioValidationError) as excinfo:
        Scenario.from_dict(minimal(faults=[
            {"type": "channel_loss", "rait": 0.5}]))
    assert "faults[0]" in str(excinfo.value)
    assert "rait" in str(excinfo.value)


def test_interpreted_sections_require_the_generic_workload():
    doc = minimal(topology={"sites": 2})
    doc["experiment"]["workload"] = "ping"
    with pytest.raises(ScenarioValidationError) as excinfo:
        Scenario.from_dict(doc)
    assert "ping" in str(excinfo.value)


def test_empty_sweep_values_are_rejected():
    doc = minimal()
    doc["experiment"]["sweep"] = {"n_ues": []}
    with pytest.raises(ScenarioValidationError) as excinfo:
        Scenario.from_dict(doc)
    assert "experiment.sweep.n_ues" in str(excinfo.value)


def test_digest_is_stable_and_order_insensitive():
    a = Scenario.from_dict(minimal(topology={"sites": 2,
                                             "enbs_per_site": 1}))
    b = Scenario.from_dict(minimal(topology={"enbs_per_site": 1,
                                             "sites": 2}))
    assert a.digest() == b.digest()
    assert len(a.digest()) == 64
    c = Scenario.from_dict(minimal(topology={"sites": 3,
                                             "enbs_per_site": 1}))
    assert c.digest() != a.digest()


def test_document_is_deep_copied_in_and_out():
    raw = minimal(topology={"sites": 2})
    scenario = Scenario.from_dict(raw)
    raw["topology"]["sites"] = 99
    assert scenario.document["topology"]["sites"] == 2
    out = scenario.to_dict()
    out["topology"]["sites"] = 7
    assert scenario.document["topology"]["sites"] == 2


def test_compile_passes_sections_as_params():
    scenario = Scenario.from_dict(minimal(
        topology={"sites": 2}, run={"warmup": 1.0}))
    spec = scenario.compile()
    assert spec.workload == GENERIC_WORKLOAD
    params = dict(spec.params)
    assert params["topology"] == {"sites": 2}
    assert params["run"] == {"warmup": 1.0}


def test_compile_non_generic_keeps_only_experiment_params():
    doc = minimal()
    doc["experiment"] = {"workload": "ping", "seeds": [3],
                         "sweep": {"system": ["acacia"]},
                         "params": {"count": 2}}
    spec = Scenario.from_dict(doc).compile()
    assert spec.workload == "ping"
    assert dict(spec.params) == {"count": 2}
    assert spec.sweep == (("system", ("acacia",)),)


# -- loader ------------------------------------------------------------------

def test_load_path_enforces_stem_matches_name(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(minimal()))
    with pytest.raises(ScenarioError) as excinfo:
        load_path(path)
    assert "stem" in str(excinfo.value)


def test_load_resolves_catalogue_then_path(tmp_path):
    doc = minimal()
    doc["scenario"]["name"] = "mine"
    path = tmp_path / "mine.json"
    path.write_text(json.dumps(doc))
    assert load(str(path)).name == "mine"
    with pytest.raises(ScenarioError) as excinfo:
        load("no_such_scenario")
    assert "quick_test" in str(excinfo.value)


def test_parse_text_rejects_bad_json():
    with pytest.raises(ScenarioError):
        parse_text("{not json", "json")


def test_yaml_is_gated_not_required(monkeypatch):
    monkeypatch.setitem(sys.modules, "yaml", None)
    # with the import poisoned, the error must explain the gate
    monkeypatch.delitem(sys.modules, "yaml")
    monkeypatch.setattr("builtins.__import__", _no_yaml_import)
    with pytest.raises(ScenarioError) as excinfo:
        parse_text("a: 1", "yaml")
    assert "PyYAML" in str(excinfo.value)


_real_import = __import__


def _no_yaml_import(name, *args, **kwargs):
    if name == "yaml":
        raise ImportError("No module named 'yaml'")
    return _real_import(name, *args, **kwargs)


# -- the shipped catalogue ---------------------------------------------------

def test_catalogue_is_complete_and_valid():
    entries = catalogue()
    assert CATALOGUE_DIR.is_dir()
    scenarios = {name: load(name) for name in entries}
    non_preset = [s for s in scenarios.values()
                  if "preset" not in s.tags]
    assert len(non_preset) >= 12
    for scenario in scenarios.values():
        scenario.compile()      # compiles without error


def test_schema_export_is_not_stale():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import gen_scenario_schema
    finally:
        sys.path.pop(0)
    published = (ROOT / "docs" / "scenario.schema.json").read_text()
    assert published == gen_scenario_schema.render(), (
        "docs/scenario.schema.json is stale; regenerate with "
        "`PYTHONPATH=src python tools/gen_scenario_schema.py`")


# -- the generic workload ----------------------------------------------------

def run_document(doc):
    from repro.exp.runner import ExperimentRunner
    result = ExperimentRunner(Scenario.from_dict(doc).compile()).run()
    assert result.ok, [t.error for t in result.failures()]
    return result


def test_generic_workload_edge_sessions_and_mobility():
    doc = minimal(
        topology={"sites": 2, "enbs_per_site": 1},
        traffic={"ci": {"n_ues": 3, "path": "edge",
                        "ping_interval": 0.2}},
        mobility={"speed": 50.0, "stagger": 0.1},
        run={"warmup": 1.0, "tail": 3.0})
    metrics = run_document(doc).trials[0].metrics
    assert metrics["attached"] == 3
    assert metrics["sessions_alive"] == 3
    assert metrics["handovers"] >= 3
    assert metrics["relocations_completed"] >= 1
    assert metrics["pings_answered"] > 0
    assert metrics["pings_lost"] == 0


def test_generic_workload_central_path_has_no_sessions():
    doc = minimal(
        traffic={"ci": {"n_ues": 2, "path": "central",
                        "ping_interval": 0.5}},
        run={"duration": 3.0})
    metrics = run_document(doc).trials[0].metrics
    assert metrics["path"] == "central"
    assert metrics["sessions_alive"] == 0
    assert metrics["pings_answered"] > 0


def test_generic_workload_arms_faults():
    doc = minimal(
        topology={"sites": 1, "enbs_per_site": 1},
        traffic={"ci": {"n_ues": 2, "ping_interval": 0.2}},
        faults=[{"type": "channel_loss", "channel": "*",
                 "rate": 0.2, "at": 0.0, "until": 2.0}],
        run={"warmup": 5.0, "duration": 3.0})
    metrics = run_document(doc).trials[0].metrics
    assert metrics["faults_injected"] == 1
    assert metrics["faults_cleared"] == 1


def test_hundreds_of_edge_sessions_start_as_processes():
    """Each session request runs as its own process, so 250 edge UEs
    (past the depth where nested blocking requests overflowed the
    stack) all end with a live session."""
    doc = minimal(
        topology={"sites": 1, "enbs_per_site": 1},
        traffic={"ci": {"n_ues": 250, "path": "edge", "probes": 1}},
        run={"warmup": 2.0, "duration": 1.0, "tail": 1.0})
    metrics = run_document(doc).trials[0].metrics
    assert metrics["attached"] == 250
    assert metrics["sessions_alive"] == 250
    assert metrics["session_failures"] == 0


def test_no_healthy_instance_fails_every_session_request():
    doc = minimal(
        topology={"sites": 1, "enbs_per_site": 1},
        traffic={"ci": {"n_ues": 3, "path": "edge", "ping_interval": 0.5}},
        faults=[{"type": "mc_server_outage", "server": "ci-edge0",
                 "at": 0.0}],
        run={"duration": 2.0})
    metrics = run_document(doc).trials[0].metrics
    assert metrics["attached"] == 3
    assert metrics["session_failures"] == 3
    assert metrics["sessions_alive"] == 0


def test_sweep_axes_override_document_scalars():
    doc = minimal(
        traffic={"ci": {"n_ues": 2, "ping_interval": 0.2}},
        run={"duration": 2.0})
    doc["experiment"]["sweep"] = {"n_ues": [1, 3]}
    result = run_document(doc)
    assert [t.metrics["n_ues"] for t in result.trials] == [1, 3]
    assert [t.metrics["attached"] for t in result.trials] == [1, 3]


def test_unknown_param_fails_loudly():
    from repro.exp.spec import TrialSpec
    from repro.scenario.runtime import execute
    trial = TrialSpec(experiment="t", index=0, workload="scenario",
                      base_seed=0, seed=0,
                      params=(("n_uesx", 3),))
    with pytest.raises(ValueError) as excinfo:
        execute(trial)
    assert "n_uesx" in str(excinfo.value)


def test_scenario_run_is_deterministic():
    from repro.exp.runner import ExperimentRunner
    spec = load("quick_test").compile()
    first = ExperimentRunner(spec).run().canonical_json()
    second = ExperimentRunner(spec).run().canonical_json()
    assert first == second


def test_canonical_json_is_compact_and_sorted():
    text = canonical_json({"b": 1, "a": [1.5, None]})
    assert text == '{"a":[1.5,null],"b":1}'
