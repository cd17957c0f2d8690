#!/usr/bin/env python
"""Fluid data-plane scale benchmark: packet vs fluid-bg background.

Two gated measurements, reported to ``BENCH_scale.json``:

* ``fig3g_sweep`` -- the Figure 3(g) ping workload at several
  background loads, run under both data planes.  The per-packet plane
  pays one event chain per background packet; the fluid plane replaces
  the whole aggregate with a handful of rate re-solves, so the event
  count must collapse.  Gate: every sweep point's event-count
  reduction is at least ``EVENTS_GATE`` (20x).  The foreground ping
  RTTs from both planes ride along in the report so equivalence stays
  inspectable (the tolerance itself is asserted by
  ``tests/test_fluid.py``).

* ``scale_100k`` -- the headline scenario: a 100,000-UE population on
  one simulated EPC.  1,000 UEs attach individually (a concurrent
  attach storm over 20 eNodeBs, every control-plane message simulated)
  and each runs a live CI ping session; the other 99,000 UEs are
  aggregated into 99 fluid background flows of 1,000 UEs x 20 kbit/s
  each (~2 Gbit/s offered) sharing the same central gateways, with the
  core provisioned at 10 Gbit/s and the ACACIA OVS fast-path profile
  so the shared CPUs run loaded-but-unsaturated.  Gate: the population
  is >= 100,000, every attach succeeds, >= 99% of pings are answered,
  and the whole scenario fits ``WALL_BUDGET_S`` of wall clock.

Protocol: the sweep alternates timed passes over the two planes with
the cyclic garbage collector disabled (pyperf-style); reported times
are medians.  ``--smoke``
shrinks the ping-train shape (not the 100k population -- the headline
gate is the point) for CI.

Usage::

    PYTHONPATH=src python tools/bench_scale.py [--repeats N] [--smoke]
                                               [--out PATH]
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np                                               # noqa: E402

from repro.core.config import NetworkConfig, SimConfig           # noqa: E402
from repro.core.network import MobileNetwork, Pinger             # noqa: E402
from repro.sdn.dataplane import ACACIA_OVS_PROFILE               # noqa: E402

#: Acceptance gate: minimum event-count reduction at every sweep point.
EVENTS_GATE = 20.0

#: Acceptance gate: the 100k-UE scenario must fit this much wall clock.
#: CI machines are slow and noisy; a local run finishes in seconds.
WALL_BUDGET_S = 120.0

#: The fig3g background sweep (Mbit/s offered through the shared GW-Us).
SWEEP_BG_MBPS = (40.0, 80.0, 100.0)

#: Ping-train shape per mode (the experiment preset's shape vs a
#: shrunken smoke shape; both regimes keep the warmup ahead of the
#: measured train).
SWEEP_SHAPES = {
    "full": dict(count=8, interval=0.4, warmup=6.0, tail=8.0),
    "smoke": dict(count=4, interval=0.4, warmup=2.0, tail=3.0),
}

#: 100k-UE scenario composition.
SCALE = dict(
    n_enbs=20,            # real attaches spread over these base stations
    n_real_ues=1_000,     # individually attached, one CI session each
    n_fluid_flows=99,     # aggregated background flows
    ues_per_flow=1_000,   # population folded into each fluid flow
    per_ue_bps=20e3,      # offered rate per aggregated UE
    core_bandwidth=10e9,  # provisioned core for the ~2 Gbit/s aggregate
    pings={"full": 5, "smoke": 3},
    ping_interval=0.5,
)


def run_fig3g(bg_mbps: float, data_plane: str, shape: dict) -> dict:
    """One fig3g ping trial (the ``ping`` workload's conventional
    rtt_ms=70 cell, replicated here so the simulator's event count can
    be reported without touching the workload's canonical output)."""
    config = NetworkConfig(seed=17, sim=SimConfig(data_plane=data_plane),
                           backhaul_delay=0.010, core_delay=0.010,
                           internet_delay=0.009)
    network = MobileNetwork(config)
    ue = network.add_ue()
    if bg_mbps > 0:
        network.add_background_load(rate=bg_mbps * 1e6).start()
    pinger = Pinger(network, ue, "internet", size=1000,
                    interval=shape["interval"])
    pinger.run(count=shape["count"], start=shape["warmup"])
    network.sim.run(until=shape["warmup"]
                    + shape["count"] * shape["interval"] + shape["tail"])
    pinger.close()
    median = (float(np.median(pinger.rtts)) if pinger.rtts
              else shape["warmup"] + shape["tail"])
    return {
        "median_rtt_ms": median * 1e3,
        "answered": len(pinger.rtts),
        "lost": pinger.lost,
        "events_run": network.sim.events_run,
    }


def run_sweep_point(bg_mbps: float, shape: dict, repeats: int) -> dict:
    """One fig3g load point, timed under both data planes."""
    results = {}
    times = {"packet": [], "fluid-bg": []}
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for plane in ("packet", "fluid-bg"):
                start = time.perf_counter()
                out = run_fig3g(bg_mbps, plane, shape)
                times[plane].append(time.perf_counter() - start)
                previous = results.setdefault(plane, out)
                assert out == previous, \
                    f"non-deterministic {plane} run at bg={bg_mbps}"
            gc.collect()
    finally:
        gc.enable()
    median = {plane: statistics.median(runs)
              for plane, runs in times.items()}
    packet, fluid = results["packet"], results["fluid-bg"]
    return {
        "bg_mbps": bg_mbps,
        "events_run": {"packet": packet["events_run"],
                       "fluid-bg": fluid["events_run"]},
        "events_reduction": packet["events_run"] / fluid["events_run"],
        "median_s": median,
        "wall_speedup": median["packet"] / median["fluid-bg"],
        "median_rtt_ms": {"packet": packet["median_rtt_ms"],
                          "fluid-bg": fluid["median_rtt_ms"]},
        "answered": {"packet": packet["answered"],
                     "fluid-bg": fluid["answered"]},
    }


def run_scale_100k(pings: int) -> dict:
    """The 100k-UE scenario: real signalling + CI sessions for 1k UEs,
    the other 99k UEs as fluid background aggregates."""
    s = SCALE
    wall_start = time.perf_counter()
    config = NetworkConfig(seed=7, sim=SimConfig(data_plane="fluid-bg"),
                           core_bandwidth=s["core_bandwidth"],
                           central_profile=ACACIA_OVS_PROFILE)
    network = MobileNetwork(config)
    for i in range(1, s["n_enbs"]):
        network.add_enb(f"enb{i}")
    enb_names = list(network.enbs)

    procs = [network.add_ue_async(enb_name=enb_names[i % len(enb_names)])
             for i in range(s["n_real_ues"])]
    network.sim.run()
    attached = [proc.value for proc in procs
                if proc.finished and proc.value.attached]
    attach_wall = time.perf_counter() - wall_start

    for _ in range(s["n_fluid_flows"]):
        network.add_background_load(
            rate=s["ues_per_flow"] * s["per_ue_bps"]).start()

    pingers = []
    for i, ue in enumerate(attached):
        pinger = Pinger(network, ue, "internet", size=256,
                        interval=s["ping_interval"])
        # stagger the session starts so the trains interleave
        pinger.run(count=pings,
                   start=network.sim.now + 0.5 + (i % 100) * 0.005)
        pingers.append(pinger)
    network.sim.run()
    for pinger in pingers:
        pinger.close()

    rtts = [rtt for pinger in pingers for rtt in pinger.rtts]
    lost = sum(pinger.lost for pinger in pingers)
    wall = time.perf_counter() - wall_start
    population = (s["n_real_ues"]
                  + s["n_fluid_flows"] * s["ues_per_flow"])
    return {
        "population_ues": population,
        "real_ues": s["n_real_ues"],
        "aggregated_ues": s["n_fluid_flows"] * s["ues_per_flow"],
        "background_bps": (s["n_fluid_flows"] * s["ues_per_flow"]
                           * s["per_ue_bps"]),
        "attached": len(attached),
        "ci_sessions": len(pingers),
        "pings_answered": len(rtts),
        "pings_lost": lost,
        "median_rtt_ms": float(np.median(rtts)) * 1e3 if rtts else None,
        "p95_rtt_ms": (float(np.percentile(rtts, 95)) * 1e3
                       if rtts else None),
        "fluid_resolves": network.fluid.resolves,
        "events_run": network.sim.events_run,
        "sim_seconds": network.sim.now,
        "attach_wall_s": attach_wall,
        "wall_s": wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed alternating passes per sweep point")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken ping trains (CI); gates still apply")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_scale.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    mode = "smoke" if args.smoke else "full"
    shape = SWEEP_SHAPES[mode]
    report = {"mode": mode,
              "protocol": {"repeats": args.repeats,
                           "statistic": "median of alternating passes",
                           "gc": "disabled during timed passes"},
              "gates": {"events_reduction_min": EVENTS_GATE,
                        "wall_budget_s": WALL_BUDGET_S},
              "fig3g_sweep": {"shape": shape, "points": []},
              }

    failures = []
    for bg in SWEEP_BG_MBPS:
        point = run_sweep_point(bg, shape, args.repeats)
        report["fig3g_sweep"]["points"].append(point)
        print(f"fig3g bg={bg:5.0f} Mbit/s  events "
              f"{point['events_run']['packet']:>9d} -> "
              f"{point['events_run']['fluid-bg']:>6d}  "
              f"reduction {point['events_reduction']:8.0f}x  "
              f"wall speedup {point['wall_speedup']:6.1f}x")
        if point["events_reduction"] < EVENTS_GATE:
            failures.append(
                f"fig3g bg={bg}: events reduction "
                f"{point['events_reduction']:.1f}x < {EVENTS_GATE}x")

    scale = run_scale_100k(pings=SCALE["pings"][mode])
    report["scale_100k"] = scale
    print(f"scale_100k {scale['population_ues']:,} UEs  "
          f"({scale['real_ues']} attached + {scale['aggregated_ues']:,} "
          f"aggregated)  {scale['ci_sessions']} CI sessions  "
          f"median RTT {scale['median_rtt_ms']:.1f} ms  "
          f"wall {scale['wall_s']:.1f}s")
    if scale["population_ues"] < 100_000:
        failures.append(f"population {scale['population_ues']} < 100000")
    if scale["attached"] != scale["real_ues"]:
        failures.append(f"only {scale['attached']}/{scale['real_ues']} "
                        "UEs attached")
    offered = scale["ci_sessions"] * SCALE["pings"][mode]
    if scale["pings_answered"] < 0.99 * offered:
        failures.append(f"pings answered {scale['pings_answered']} "
                        f"< 99% of {offered}")
    if scale["wall_s"] > WALL_BUDGET_S:
        failures.append(f"wall {scale['wall_s']:.1f}s > "
                        f"{WALL_BUDGET_S:.0f}s budget")

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
