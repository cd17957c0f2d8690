"""Tests for the command-line interface."""

import sys

import pytest

from repro.cli import DEMOS, EXPERIMENTS, build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "ACACIA" in out
    assert "experiments" in out


def test_experiments_lists_all(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_overhead_prints_calibrated_totals(capsys):
    assert main(["overhead"]) == 0
    out = capsys.readouterr().out
    assert "15 messages" in out
    assert "2914 bytes" in out
    assert "2.58 MB" in out


def test_unknown_experiment_fails_cleanly(capsys):
    assert main(["run-experiment", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_known_experiment_runs_its_bench_under_pytest(capsys, monkeypatch):
    from pathlib import Path
    calls = []

    def fake_call(command, cwd):
        calls.append(command)
        return 3

    monkeypatch.setattr("repro.cli.subprocess.call", fake_call)
    assert main(["run-experiment", "fig3d"]) == 3
    bench = Path(__file__).resolve().parent.parent / "benchmarks" / \
        EXPERIMENTS["fig3d"][0]
    assert bench.exists()
    assert calls == [[sys.executable, "-m", "pytest", str(bench), "-q", "-s"]]
    assert "regenerating" in capsys.readouterr().out


def test_unknown_demo_fails_cleanly(capsys):
    assert main(["demo", "nope"]) == 2
    assert "unknown demo" in capsys.readouterr().err


def test_every_experiment_maps_to_an_existing_bench():
    from pathlib import Path
    bench_dir = Path(__file__).parent.parent / "benchmarks"
    for key, (filename, _) in EXPERIMENTS.items():
        assert (bench_dir / filename).exists(), f"{key} -> {filename}"


def test_every_demo_maps_to_an_existing_example():
    from pathlib import Path
    example_dir = Path(__file__).parent.parent / "examples"
    for name, script in DEMOS.items():
        assert (example_dir / script).exists(), f"{name} -> {script}"


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_exp_list_shows_every_preset(capsys):
    from repro.exp import PRESETS
    assert main(["exp", "list"]) == 0
    out = capsys.readouterr().out
    for name in PRESETS:
        assert name in out


def test_exp_show_prints_spec_json_digests_and_seed_table(capsys):
    import json

    from repro.exp import preset
    from repro.scenario import load
    assert main(["exp", "show", "smoke"]) == 0
    out = capsys.readouterr().out
    spec_json, _, rest = out.partition("\nspec digest: ")
    spec = json.loads(spec_json)
    assert spec["name"] == "smoke"
    assert spec["workload"] == "ping"
    assert preset("smoke").digest() in rest
    assert load("smoke").digest() in rest
    # the per-trial seed table pairs sweep cells on the base seed
    for trial in preset("smoke").trials():
        assert str(trial.seed) in rest
        assert f"  {trial.index:>3}  " in rest
    assert "paired" in rest


def test_exp_unknown_preset_fails_cleanly(capsys):
    assert main(["exp", "show", "fig99"]) == 2
    assert "unknown preset" in capsys.readouterr().err
    assert main(["exp", "run", "fig99"]) == 2


def test_exp_run_writes_canonical_results(capsys, monkeypatch, tmp_path):
    import json

    from repro.exp import ExperimentSpec, PRESETS, workload

    @workload("_cli_probe")
    def probe(trial):
        return {"x": trial.param_dict["x"]}

    monkeypatch.setitem(PRESETS, "_cli-probe", ExperimentSpec(
        name="_cli-probe", workload="_cli_probe", sweep={"x": (1, 2)}))
    out_file = tmp_path / "results.json"
    assert main(["exp", "run", "_cli-probe",
                 "--output", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    assert [t["metrics"]["x"] for t in data["trials"]] == [1, 2]
    assert all(t["status"] == "ok" for t in data["trials"])


def test_exp_run_reports_failures_with_nonzero_exit(capsys, monkeypatch):
    from repro.exp import ExperimentSpec, PRESETS, workload

    @workload("_cli_boom")
    def boom(trial):
        raise RuntimeError("kaput")

    monkeypatch.setitem(PRESETS, "_cli-boom", ExperimentSpec(
        name="_cli-boom", workload="_cli_boom"))
    assert main(["exp", "run", "_cli-boom"]) == 1
    assert "kaput" in capsys.readouterr().err


def test_scenario_list_shows_whole_catalogue(capsys):
    from repro.scenario import catalogue
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in catalogue():
        assert name in out


def test_scenario_show_prints_document_and_digest(capsys):
    import json

    from repro.scenario import load
    assert main(["scenario", "show", "quick_test"]) == 0
    out = capsys.readouterr().out
    document, _, rest = out.partition("\nscenario digest: ")
    assert json.loads(document)["scenario"]["name"] == "quick_test"
    assert load("quick_test").digest() in rest
    assert "compiles to" in rest


def test_scenario_validate_whole_catalogue(capsys):
    from repro.scenario import catalogue
    assert main(["scenario", "validate"]) == 0
    out = capsys.readouterr().out
    total = len(catalogue())
    assert f"{total}/{total} valid" in out


def test_scenario_validate_reports_bad_document(tmp_path, capsys):
    import json
    bad = {"scenario": {"name": "bad", "version": 1,
                        "description": "d"},
           "topology": {"sites": 0},
           "experiment": {"workload": "scenario", "seeds": [1]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["scenario", "validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "topology.sites" in out


def test_scenario_unknown_name_fails_cleanly(capsys):
    assert main(["scenario", "show", "no_such"]) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert main(["scenario", "run", "no_such"]) == 2


def test_scenario_run_jsonl_embeds_digest(capsys):
    import json

    from repro.scenario import load
    assert main(["scenario", "run", "quick_test", "--jsonl"]) == 0
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines()]
    digest = load("quick_test").digest()
    assert len(lines) == 1
    for record in lines:
        assert record["status"] == "ok"
        assert record["provenance"]["scenario"] == "quick_test"
        assert record["provenance"]["scenario_digest"] == digest


def test_scenario_run_json_wraps_result_with_provenance(tmp_path,
                                                        capsys):
    import json

    from repro.scenario import load
    out_file = tmp_path / "result.json"
    assert main(["scenario", "run", "quick_test",
                 "--output", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    scenario = load("quick_test")
    assert data["scenario"]["name"] == "quick_test"
    assert data["scenario"]["digest"] == scenario.digest()
    assert (data["scenario"]["spec_digest"]
            == scenario.compile().digest())
    for trial in data["trials"]:
        assert trial["provenance"]["scenario_digest"] \
            == scenario.digest()
