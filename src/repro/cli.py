"""Command-line interface: ``python -m repro <command>``.

Gives the repository a front door: inspect the system, run the
examples, and regenerate individual paper experiments without knowing
the pytest incantations.

Commands
--------

``info``
    Package layout, experiment inventory and headline claims.
``experiments``
    List every reproducible table/figure and its bench target.
``run-experiment <id>``
    Regenerate one experiment (runs its benchmark via pytest).
``demo <name>``
    Run one of the example scripts (quickstart, retail, localization,
    isolation).
``overhead``
    Print the Section 4 control-overhead analysis right here.
``scenario list | show <name> | validate [names...] | run <name>``
    The declarative scenario layer: browse the shipped ``scenarios/``
    catalogue, validate documents against the published schema, and
    compile-and-run them through the same experiment runner -- with
    ``--jsonl`` per-trial output whose provenance embeds the scenario
    digest.
``ops serve | run | status | attach | inject | tail | ...``
    The live operator service (:mod:`repro.ops`): ``serve`` runs a
    scenario as a paced asyncio service with a JSON-RPC control
    endpoint; ``run`` drives it unpaced and synchronous (the
    deterministic reference); the remaining subcommands are the
    control client, pointed at a running service with ``--connect``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

import repro

#: experiment id -> (benchmark file, one-line description)
EXPERIMENTS: dict[str, tuple[str, str]] = {
    "fig3a": ("test_fig3a_surf_runtime.py",
              "SURF runtime vs resolution and device"),
    "fig3b": ("test_fig3b_match_runtime.py",
              "brute-force match runtime vs resolution and device"),
    "fig3c": ("test_fig3c_lte_rtt.py", "LTE->EC2 RTT CDF per region"),
    "fig3d": ("test_fig3d_ul_bandwidth.py",
              "LTE uplink bandwidth per region and signal"),
    "fig3e": ("test_fig3e_camera_fps.py", "camera preview FPS"),
    "fig3f": ("test_fig3f_fps_vs_capacity.py",
              "upload FPS vs codec and uplink capacity"),
    "fig3g": ("test_fig3g_background_traffic.py",
              "latency vs background traffic and server RTT"),
    "fig3h": ("test_fig3h_db_size.py", "match runtime vs database size"),
    "overhead": ("test_overhead_control_messages.py",
                 "Sec 4 control overhead (15 msgs / 2914 B) + ablation"),
    "fig6": ("test_fig6_lte_direct_trace.py",
             "rxPower/SNR walk trace past three landmarks"),
    "fig8": ("test_fig8_dataplane.py",
             "GW-U data-plane throughput (OpenEPC/ACACIA/IDEAL)"),
    "fig9": ("test_fig9_localization.py",
             "localisation error vs number of landmarks"),
    "fig10a": ("test_fig10a_qci_rtt.py", "UE->MEC RTT by QCI"),
    "fig10b": ("test_fig10b_isolation.py",
               "latency vs background traffic for the three designs"),
    "compression": ("test_compression.py",
                    "JPEG-90 encode time and ratio (Sec 7.3)"),
    "fig11a": ("test_fig11a_search_space.py",
               "matching time by search scheme, machine, resolution"),
    "fig11b": ("test_fig11b_match_cdf.py", "matching-runtime CDF"),
    "fig12": ("test_fig12_multiclient.py",
              "matching time vs concurrent clients"),
    "fig13": ("test_fig13_end_to_end.py",
              "end-to-end breakdown: ACACIA vs MEC vs CLOUD"),
    "discovery-tech": ("test_ablation_discovery_tech.py",
                       "ablation: LTE-direct vs iBeacon vs Wi-Fi Aware"),
    "middlebox": ("test_ablation_middlebox.py",
                  "ablation: middlebox inspection vs UE classification"),
    "handover": ("test_ablation_handover.py",
                 "ablation: AR session continuity across handover"),
    "vr-budget": ("test_ext_vr_budget.py",
                  "extension: VR motion-to-photon, edge vs cloud"),
    "tcp-dataplane": ("test_ext_tcp_dataplane.py",
                      "extension: Fig 8 with a congestion-controlled "
                      "flow"),
}

DEMOS = {
    "quickstart": "quickstart.py",
    "retail": "retail_store_demo.py",
    "localization": "localization_walkthrough.py",
    "isolation": "traffic_isolation.py",
    "vr": "vr_split_rendering.py",
    "mobility": "store_walk_mobility.py",
}

_ROOT = Path(__file__).resolve().parent.parent.parent


def cmd_info(_: argparse.Namespace) -> int:
    print(f"ACACIA reproduction v{repro.__version__}")
    print(repro.__doc__)
    print(f"{len(EXPERIMENTS)} reproducible experiments "
          f"(`python -m repro experiments`)")
    print(f"{len(DEMOS)} runnable demos (`python -m repro demo <name>`): "
          + ", ".join(DEMOS))
    return 0


def cmd_experiments(_: argparse.Namespace) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key, (_, description) in EXPERIMENTS.items():
        print(f"  {key:<{width}}  {description}")
    print("\nrun one with: python -m repro run-experiment <id>")
    return 0


def cmd_run_experiment(args: argparse.Namespace) -> int:
    try:
        bench_file, description = EXPERIMENTS[args.experiment]
    except KeyError:
        print(f"unknown experiment {args.experiment!r}; "
              f"see `python -m repro experiments`", file=sys.stderr)
        return 2
    print(f"regenerating: {description}\n")
    command = [sys.executable, "-m", "pytest",
               str(_ROOT / "benchmarks" / bench_file), "-q", "-s"]
    return subprocess.call(command, cwd=_ROOT)


def cmd_demo(args: argparse.Namespace) -> int:
    try:
        script = DEMOS[args.name]
    except KeyError:
        print(f"unknown demo {args.name!r}; options: {', '.join(DEMOS)}",
              file=sys.stderr)
        return 2
    return subprocess.call([sys.executable,
                            str(_ROOT / "examples" / script)], cwd=_ROOT)


def cmd_overhead(_: argparse.Namespace) -> int:
    from repro.core import MobileNetwork
    from repro.epc.overhead import (APP_DRIVEN_EVENTS_PER_DAY,
                                    PROMOTION_EVENTS_PER_DAY,
                                    combined_by_protocol, daily_overhead_mb)
    network = MobileNetwork()
    ue = network.add_ue()
    release = network.control_plane.release_to_idle(ue)
    reestablish = network.control_plane.service_request(ue)
    by_protocol = combined_by_protocol(release, reestablish)
    total_messages = release.message_count + reestablish.message_count
    total = release.byte_count + reestablish.byte_count
    print("release + re-establish control overhead (Section 4):")
    for protocol, (count, size) in sorted(by_protocol.items()):
        print(f"  {protocol:<10} {count:>3} messages  {size:>5} bytes")
    print(f"  {'TOTAL':<10} {total_messages:>3} messages  {total:>5} bytes")
    print(f"\napp-driven daily overhead "
          f"({APP_DRIVEN_EVENTS_PER_DAY}/day): "
          f"{daily_overhead_mb(total, APP_DRIVEN_EVENTS_PER_DAY):.2f} MB")
    print(f"worst-case daily overhead ({PROMOTION_EVENTS_PER_DAY}/day): "
          f"{daily_overhead_mb(total, PROMOTION_EVENTS_PER_DAY):.1f} MB")
    return 0


def cmd_scenario_list(_: argparse.Namespace) -> int:
    from repro.scenario import CATALOGUE_DIR, catalogue, load
    entries = catalogue()
    if not entries:
        print(f"no scenarios found under {CATALOGUE_DIR}",
              file=sys.stderr)
        return 1
    width = max(len(name) for name in entries)
    for name in entries:
        scenario = load(name)
        description = scenario.description
        if len(description) > 56:
            description = description[:53] + "..."
        tags = ",".join(scenario.tags) or "-"
        print(f"  {name:<{width}}  {scenario.workload:<12} "
              f"[{tags}]  {description}")
    print("\nrun one with: python -m repro scenario run <name>")
    return 0


def cmd_scenario_show(args: argparse.Namespace) -> int:
    import json

    from repro.scenario import ScenarioError, load
    try:
        scenario = load(args.name)
    except ScenarioError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(json.dumps(scenario.to_dict(), indent=2))
    spec = scenario.compile()
    print(f"\nscenario digest: {scenario.digest()}")
    print(f"compiled spec digest: {spec.digest()}")
    trials = spec.trials()
    print(f"compiles to: workload={spec.workload} "
          f"seeds={len(spec.seeds)} trials={len(trials)}")
    print("\nseeds derived from experiment name x workload x base seed; "
          "sweep cells sharing a base seed are paired:")
    print(f"  {'idx':>3}  {'base_seed':>9}  {'derived seed':>20}  cell")
    for trial in trials:
        cell = {k: v for k, v in trial.param_dict.items()
                if k not in dict(spec.params)}
        print(f"  {trial.index:>3}  {trial.base_seed:>9}  "
              f"{trial.seed:>20}  {cell}")
    return 0


def cmd_scenario_validate(args: argparse.Namespace) -> int:
    from repro.scenario import ScenarioError, catalogue, load
    names = args.names or sorted(catalogue())
    if not names:
        print("no scenarios to validate", file=sys.stderr)
        return 1
    failures = 0
    width = max(len(name) for name in names)
    for name in names:
        try:
            scenario = load(name)
            scenario.compile()
        except ScenarioError as exc:
            failures += 1
            print(f"  {name:<{width}}  FAIL  {exc}")
        else:
            print(f"  {name:<{width}}  ok    {scenario.digest()[:12]}")
    print(f"\n{len(names) - failures}/{len(names)} valid")
    return 1 if failures else 0


def cmd_scenario_run(args: argparse.Namespace) -> int:
    import json

    from repro.exp import ExperimentRunner
    from repro.scenario import ScenarioError, load
    try:
        scenario = load(args.name)
    except ScenarioError as exc:
        print(exc, file=sys.stderr)
        return 2
    spec = scenario.compile()
    digest = scenario.digest()
    mode = "serial" if args.workers in (None, 1) else f"{args.workers} workers"
    print(f"running scenario {scenario.name!r} "
          f"(digest {digest[:12]}): {len(spec.trials())} trials "
          f"({mode})", file=sys.stderr)
    result = ExperimentRunner(spec, workers=args.workers).run()

    if args.jsonl:
        lines = []
        for trial_result in result.trials:
            record = trial_result.to_dict()
            record["provenance"]["scenario"] = scenario.name
            record["provenance"]["scenario_digest"] = digest
            lines.append(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
        text = "\n".join(lines)
    else:
        record = result.to_dict()
        record["scenario"] = {"name": scenario.name,
                              "digest": digest,
                              "spec_digest": spec.digest()}
        for trial_record in record["trials"]:
            trial_record["provenance"]["scenario"] = scenario.name
            trial_record["provenance"]["scenario_digest"] = digest
        text = json.dumps(record, sort_keys=True, indent=2)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    for failure in result.failures():
        print(f"trial {failure.trial.index} failed:\n{failure.error}",
              file=sys.stderr)
    return 0 if result.ok else 1


def cmd_ops_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.ops.service import load_service
    from repro.scenario import ScenarioError
    try:
        service = load_service(args.scenario, seed=args.seed,
                               duration=args.duration, rtf=args.rtf,
                               sink=(open(args.telemetry, "w")
                                     if args.telemetry else None))
    except ScenarioError as exc:
        print(exc, file=sys.stderr)
        return 2
    pacing = (f"rtf={service.config.pacer.rtf}x"
              if service.config.pacer.rtf > 0 else "unpaced")
    print(f"serving {service.scenario.name!r} "
          f"(seed {service.trial.seed}, {pacing}) "
          f"until t={service.run.end_time:.0f}s"
          + (f" on {args.connect}" if args.connect else ""),
          file=sys.stderr)
    summary = asyncio.run(service.serve(endpoint=args.connect))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_ops_run(args: argparse.Namespace) -> int:
    import json

    from repro.ops.service import load_service
    from repro.scenario import ScenarioError
    try:
        service = load_service(args.scenario, seed=args.seed,
                               duration=args.duration,
                               sink=(open(args.telemetry, "w")
                                     if args.telemetry else None))
    except ScenarioError as exc:
        print(exc, file=sys.stderr)
        return 2
    summary = service.run_batch()
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"metrics digest: {service.metrics_digest(summary)}",
          file=sys.stderr)
    return 0


def cmd_ops_client(args: argparse.Namespace) -> int:
    import json

    from repro.ops.control import ControlClient, ControlError
    command = args.ops_command
    try:
        with ControlClient(args.connect) as client:
            if command == "tail":
                for record in client.stream():
                    print(json.dumps(record, sort_keys=True))
                return 0
            # thunks: each subcommand defines only its own argparse
            # attributes, so the request must be built lazily
            method, params = {
                "status": lambda: ("status", {}),
                "snapshot": lambda: ("snapshot", {}),
                "drain": lambda: ("drain", {}),
                "stop": lambda: ("shutdown", {}),
                "site-load": lambda: (
                    "site_load",
                    {"site": args.site} if args.site else {}),
                "attach": lambda: ("attach_ue", {"enb": args.enb}),
                "detach": lambda: ("detach_ue", {"ue": args.ue}),
                "session-start": lambda: ("start_session",
                                          {"ue": args.ue}),
                "session-stop": lambda: ("stop_session",
                                         {"ue": args.ue}),
                "inject": lambda: ("inject_fault",
                                   {"spec": json.loads(args.spec)}),
                "clear": lambda: ("clear_fault", {"link": args.link}),
            }[command]()
            result = client.call(method, **params)
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0
    except (ControlError, OSError) as exc:
        print(f"control call failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # pragma: no cover - interactive tail
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ACACIA (CoNEXT 2016) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package overview").set_defaults(
        func=cmd_info)
    sub.add_parser("experiments",
                   help="list reproducible experiments").set_defaults(
        func=cmd_experiments)
    run = sub.add_parser("run-experiment",
                         help="regenerate one table/figure")
    run.add_argument("experiment", help="experiment id (e.g. fig13)")
    run.set_defaults(func=cmd_run_experiment)
    demo = sub.add_parser("demo", help="run an example script")
    demo.add_argument("name", help=f"one of: {', '.join(DEMOS)}")
    demo.set_defaults(func=cmd_demo)
    sub.add_parser("overhead",
                   help="print the Sec 4 overhead analysis").set_defaults(
        func=cmd_overhead)

    scenario = sub.add_parser(
        "scenario", help="declarative scenario documents and catalogue")
    scenario_sub = scenario.add_subparsers(dest="scenario_command",
                                           required=True)
    scenario_sub.add_parser(
        "list", help="list the shipped scenario catalogue").set_defaults(
        func=cmd_scenario_list)
    show_sc = scenario_sub.add_parser(
        "show", help="print a scenario document, digest and compiled "
                     "spec summary")
    show_sc.add_argument("name", help="catalogue name or document path")
    show_sc.set_defaults(func=cmd_scenario_show)
    validate_sc = scenario_sub.add_parser(
        "validate", help="validate documents against the schema "
                         "(default: whole catalogue)")
    validate_sc.add_argument("names", nargs="*",
                             help="catalogue names or document paths")
    validate_sc.set_defaults(func=cmd_scenario_validate)
    run_sc = scenario_sub.add_parser(
        "run", help="compile a scenario and run it through the "
                    "experiment runner")
    run_sc.add_argument("name", help="catalogue name or document path")
    run_sc.add_argument("--jsonl", action="store_true",
                        help="one JSON line per trial, scenario digest "
                             "embedded in each provenance")
    run_sc.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: serial)")
    run_sc.add_argument("--output", default=None,
                        help="write results to this file")
    run_sc.set_defaults(func=cmd_scenario_run)

    ops = sub.add_parser(
        "ops", help="live operator service: serve a scenario, or "
                    "control a running one")
    ops_sub = ops.add_subparsers(dest="ops_command", required=True)

    serve_op = ops_sub.add_parser(
        "serve", help="run a scenario as a paced, controllable service")
    serve_op.add_argument("scenario",
                          help="catalogue name or document path")
    serve_op.add_argument("--connect", default=None, metavar="ENDPOINT",
                          help="control endpoint to serve "
                               "(unix:<path> or tcp:<host>:<port>)")
    serve_op.add_argument("--rtf", type=float, default=None,
                          help="real-time factor override "
                               "(0 = as fast as possible)")
    serve_op.add_argument("--seed", type=int, default=None,
                          help="base seed override")
    serve_op.add_argument("--duration", type=float, default=None,
                          help="run.duration override (compresses the "
                               "diurnal day)")
    serve_op.add_argument("--telemetry", default=None, metavar="FILE",
                          help="write the telemetry JSONL stream here")
    serve_op.set_defaults(func=cmd_ops_serve)

    run_op = ops_sub.add_parser(
        "run", help="drive the same scenario unpaced and synchronous "
                    "(the deterministic reference)")
    run_op.add_argument("scenario", help="catalogue name or document path")
    run_op.add_argument("--seed", type=int, default=None,
                        help="base seed override")
    run_op.add_argument("--duration", type=float, default=None,
                        help="run.duration override")
    run_op.add_argument("--telemetry", default=None, metavar="FILE",
                        help="write the telemetry JSONL stream here")
    run_op.set_defaults(func=cmd_ops_run)

    def client(name: str, help_text: str):
        p = ops_sub.add_parser(name, help=help_text)
        p.add_argument("--connect", required=True, metavar="ENDPOINT",
                       help="control endpoint of the running service")
        p.set_defaults(func=cmd_ops_client)
        return p

    client("status", "query the running service")
    client("snapshot", "full metrics summary of the running service")
    client("drain", "stop offering new match load")
    client("stop", "request a graceful shutdown")
    site_load = client("site-load", "per-site matcher load")
    site_load.add_argument("--site", default=None,
                           help="one site (default: all)")
    attach = client("attach", "attach a new UE")
    attach.add_argument("--enb", default="enb0",
                        help="cell to attach in (default enb0)")
    for name, help_text in (("detach", "release a UE to idle"),
                            ("session-start", "start a CI session"),
                            ("session-stop", "stop a CI session")):
        p = client(name, help_text)
        p.add_argument("ue", help="UE name (e.g. opsue0)")
    inject = client("inject", "inject a fault")
    inject.add_argument("spec",
                        help='fault spec JSON, e.g. \'{"type": '
                             '"link_down", "link": "backhaul0", '
                             '"duration": 5}\'')
    clear = client("clear", "force a link back up")
    clear.add_argument("link", help="link name (or sig.<channel>)")
    client("tail", "stream telemetry records to stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
