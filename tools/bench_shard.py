#!/usr/bin/env python
"""Sharded-execution benchmark: byte-identity gates + wall-clock speedup.

Two claims are checked, in this order of importance:

1. **Identity** -- sharded execution changes wall-clock only, never
   results.  The ``shard_fabric`` fleet is run ``sharding=off``
   (inline single process) and ``sharding=site`` (one OS process per
   edge site) and the canonical result digests must match exactly;
   every shipped experiment preset is additionally run through the
   degenerate single-shard path (:func:`repro.sim.shard.run_isolated`)
   and each trial's metrics must digest identically to the in-process
   run.  Identity failures are always fatal, on every host.

2. **Speedup** -- per-site shard processes beat the single process on
   a multi-core host.  The fleet alternates timed off/site passes
   (gc disabled, median statistic, pyperf-style) and
   the full-mode gate requires ``SPEEDUP_GATE`` on the 4-site
   continuity-style fleet.  A conservative-window federation cannot
   run faster than its slowest shard, so the gate is only *enforced*
   when the host has at least as many CPUs as the fleet has shards;
   on smaller hosts the measured value is recorded with an explicit
   waiver (the ``host`` provenance block shows why) and CI -- which
   has the cores -- enforces the floor.

The full report (fleet timings, the fluid sharded profile standing in
for the million-UE configuration, preset identity digests) feeds the
``shard`` section of ``BENCH_scale.json``.

Usage::

    PYTHONPATH=src python tools/bench_shard.py [--repeats N] [--smoke]
                                               [--out PATH]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exp import workloads                                  # noqa: E402
from repro.exp.presets import PRESETS, preset                    # noqa: E402
from repro.exp.spec import TrialSpec                             # noqa: E402
from repro.sim.shard import canonical_digest, run_isolated       # noqa: E402

#: Full-mode acceptance gate: sharded speedup on the 4-site fleet,
#: enforced when the host has >= 4 CPUs.
SPEEDUP_GATE = 2.5

#: Smoke-mode floor: a 2-site fleet on a >= 2-CPU host must at least
#: clearly beat process overheads.
SMOKE_SPEEDUP_GATE = 1.15

#: The 4-site continuity-style fleet of the BENCH_scale gate: per-site
#: attach storm + CI ping trains + periodic cross-site context sync,
#: sized so one pass is seconds of single-core work.
FLEET_PARAMS = dict(n_sites=4, n_ues=12, wan_delay=0.05,
                    warmup=1.0, duration=10.0, tail=1.0,
                    ping_interval=0.02, sync_interval=0.25)

#: Smoke fleet: light, but with enough per-shard work (seconds, not
#: tenths) that on a 2-core host the parallel win clearly exceeds the
#: process spawn + window round-trip overheads the floor must absorb.
SMOKE_FLEET_PARAMS = dict(n_sites=2, n_ues=10, wan_delay=0.05,
                          warmup=1.0, duration=8.0, tail=1.0,
                          ping_interval=0.02, sync_interval=0.25)

#: The fluid sharded profile: 4 shards each carrying an aggregate
#: fluid background standing in for a 250k-UE population (the
#: ``million_ue_fluid`` scenario's scale split across the fabric),
#: plus a small per-packet foreground.  Recorded, not gated.
FLUID_FLEET_PARAMS = dict(n_sites=4, n_ues=4, wan_delay=0.05,
                          warmup=1.0, duration=10.0, tail=1.0,
                          ping_interval=0.1, sync_interval=0.5,
                          data_plane="fluid-bg", bg_mbps=400.0)


def host_provenance() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def fleet_trial(sharding: str, params: dict) -> TrialSpec:
    return TrialSpec(experiment="bench_shard", index=0,
                     workload="shard_fabric", base_seed=0, seed=1234,
                     params=(("sharding", sharding),)
                     + tuple(sorted(params.items())))


def bench_fleet(name: str, params: dict, repeats: int) -> dict:
    """Alternating off/site passes over one fleet; identity is fatal."""
    fn = workloads.get("shard_fabric")
    reference = fn(fleet_trial("off", params))
    ref_digest = canonical_digest(reference)

    times: dict[str, list[float]] = {"off": [], "site": []}
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for sharding in ("off", "site"):
                start = time.perf_counter()
                result = fn(fleet_trial(sharding, params))
                times[sharding].append(time.perf_counter() - start)
                if canonical_digest(result) != ref_digest:
                    raise SystemExit(
                        f"FATAL: {name} sharding={sharding} result "
                        f"differs from the single-process run")
            gc.collect()
    finally:
        gc.enable()
    median = {s: statistics.median(runs) for s, runs in times.items()}
    speedup = median["off"] / median["site"]
    events = reference["events_run"]
    print(f"{name:14s} {params['n_sites']} sites  {events:>9d} events  "
          f"off {median['off']:.2f}s  site {median['site']:.2f}s  "
          f"speedup {speedup:.2f}x  digest {ref_digest[:12]}")
    return {
        "params": params,
        "events_run": events,
        "envelopes_sent": reference["envelopes_sent"],
        "behaviour_digest": ref_digest,
        "times_s": times,
        "median_s": median,
        "speedup": speedup,
    }


def preset_identity(names: tuple[str, ...]) -> dict:
    """Per-trial metrics digests: in-process vs the isolated shard path.

    Digests the workload *output* dicts, not the whole experiment
    JSON, so the comparison is about simulated behaviour, not
    provenance wrapping.
    """
    identity = {}
    for name in names:
        spec = preset(name)
        digests = []
        for trial in spec.trials():
            fn = workloads.get(trial.workload)
            direct = canonical_digest(fn(trial))
            isolated = canonical_digest(run_isolated(fn, trial))
            if direct != isolated:
                raise SystemExit(
                    f"FATAL: preset {name} trial {trial.index} differs "
                    f"between in-process and isolated execution")
            digests.append(direct)
        combined = canonical_digest(digests)
        identity[name] = {"trials": len(digests), "sha256": combined,
                          "identical": True}
        print(f"preset {name:14s} {len(digests):>3d} trials  "
              f"isolated execution identical  {combined[:12]}")
    return identity


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed alternating passes per backend")
    parser.add_argument("--smoke", action="store_true",
                        help="2-site fleet, smoke preset, modest "
                             "speedup floor (CI)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_shard.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    host = host_provenance()
    cpus = host["cpu_count"] or 1
    report = {"mode": "smoke" if args.smoke else "full",
              "host": host,
              "protocol": {"repeats": args.repeats,
                           "statistic": "median of alternating passes",
                           "gc": "disabled during timed passes"},
              "fleets": {}}

    if args.smoke:
        fleets = [("smoke_fleet", SMOKE_FLEET_PARAMS, SMOKE_SPEEDUP_GATE)]
        presets = ("smoke",)
    else:
        fleets = [("continuity_4site", FLEET_PARAMS, SPEEDUP_GATE),
                  ("fluid_4site", FLUID_FLEET_PARAMS, None)]
        presets = tuple(sorted(PRESETS))

    failures = []
    for name, params, gate in fleets:
        entry = bench_fleet(name, params, args.repeats)
        shards = params["n_sites"]
        entry["gate"] = gate
        if gate is None:
            entry["gated"] = False
        elif cpus >= shards:
            entry["gated"] = True
            if entry["speedup"] < gate:
                failures.append(
                    f"{name}: speedup {entry['speedup']:.2f}x below "
                    f"the {gate}x floor on a {cpus}-CPU host")
        else:
            entry["gated"] = False
            entry["waiver"] = (
                f"host has {cpus} CPU(s) < {shards} shards; a "
                f"conservative federation cannot beat its slowest "
                f"shard without a core per shard -- floor enforced "
                f"on >= {shards}-CPU hosts (CI)")
            print(f"  (speedup floor waived: {entry['waiver']})")
        report["fleets"][name] = entry

    report["preset_identity"] = preset_identity(presets)

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    for failure in failures:
        print(f"FAILED gate: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
