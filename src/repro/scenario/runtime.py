"""Interpreter for the generic ``"scenario"`` workload.

:func:`execute` receives one :class:`~repro.exp.spec.TrialSpec` whose
params carry the scenario document's interpreted sections (placed
there by :meth:`repro.scenario.document.Scenario.compile`) and builds
the whole world from them:

* ``topology`` -> :func:`repro.baselines.deployments.build_topology`
  (cells on a line, one CI echo server per edge site, WAN mesh);
* ``network`` -> :meth:`~repro.core.config.NetworkConfig.from_dict`
  overlay (the trial seed always wins over the document);
* ``traffic.ci`` -> an attach storm in the first cell plus per-UE
  probe trains, either through MRS-granted edge sessions (``path:
  "edge"``, retargeted across relocations) or the conventional
  central path (``path: "central"``);
* ``traffic.background`` -> aggregate load through a site's gateways;
* ``mobility`` -> staggered walks down the whole line of cells;
* ``faults`` -> a :class:`~repro.faults.plan.FaultPlan` armed before
  the attach storm, so document times are absolute sim times;
* ``run`` -> the warmup / duration / tail phase lengths.

Sweep axes (and ``experiment.params``) may override the documented
scalar shortcuts in :data:`OVERRIDES` -- e.g. a ``n_ues`` axis scales
the CI population without rewriting the ``traffic`` section.  Anything
else at the top level of the params is rejected, so a typoed axis
fails loudly instead of silently not sweeping.

The timeline is fixed: attaches run during ``[0, warmup)``; sessions,
probes, walks and background all start at ``warmup + 1.0`` (the lead
second lets dedicated bearers establish); the sim then runs for
``duration`` plus ``tail`` and the metrics are collected.
"""

from __future__ import annotations

import copy
from typing import Any, Optional, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.exp.spec import TrialSpec

#: Scalar shortcuts sweep axes / params may override, mapped to the
#: document path they rewrite.
OVERRIDES = {
    "n_ues": "traffic.ci.n_ues",
    "bg_mbps": "traffic.background.mbps",
    "policy": "network.continuity.policy",
    "data_plane": "network.sim.data_plane",
    "retries": "network.resilience.enabled",
    "sites": "topology.sites",
    "enbs_per_site": "topology.enbs_per_site",
    "speed": "mobility.speed",
    "loss_rate": "faults[*].rate (channel_loss entries)",
    "duration": "run.duration",
}

_SECTIONS = ("topology", "network", "traffic", "mobility", "faults",
             "run", "ops")


def _apply_overrides(p: dict[str, Any]) -> dict[str, Any]:
    """Split params into sections, folding scalar overrides in."""
    sections = {name: copy.deepcopy(p.pop(name, None))
                for name in _SECTIONS}
    overrides = {k: p.pop(k) for k in list(p) if k in OVERRIDES}
    if p:
        raise ValueError(
            f"unknown scenario param(s) {sorted(p)}; sections: "
            f"{sorted(_SECTIONS)}, overridable scalars: "
            f"{sorted(OVERRIDES)}")

    def section(name: str) -> dict:
        if sections[name] is None:
            sections[name] = {}
        return sections[name]

    if "n_ues" in overrides:
        section("traffic").setdefault("ci", {})["n_ues"] = \
            int(overrides["n_ues"])
    if "bg_mbps" in overrides:
        section("traffic").setdefault("background", {})["mbps"] = \
            float(overrides["bg_mbps"])
    if "policy" in overrides:
        section("network").setdefault("continuity", {})["policy"] = \
            overrides["policy"]
    if "data_plane" in overrides:
        section("network").setdefault("sim", {})["data_plane"] = \
            overrides["data_plane"]
    if "retries" in overrides:
        section("network").setdefault("resilience", {})["enabled"] = \
            bool(overrides["retries"])
    if "sites" in overrides:
        section("topology")["sites"] = int(overrides["sites"])
    if "enbs_per_site" in overrides:
        section("topology")["enbs_per_site"] = \
            int(overrides["enbs_per_site"])
    if "speed" in overrides:
        section("mobility")["speed"] = float(overrides["speed"])
    if "duration" in overrides:
        section("run")["duration"] = float(overrides["duration"])
    if "loss_rate" in overrides:
        rate = float(overrides["loss_rate"])
        faults = sections["faults"] or []
        targets = [f for f in faults
                   if f.get("type") == "channel_loss"]
        if not targets:
            raise ValueError(
                "loss_rate override needs at least one channel_loss "
                "entry in the faults section to rewrite")
        for f in targets:
            f["rate"] = rate
        sections["faults"] = faults
    return sections


class ScenarioRun:
    """One scenario trial as a *steerable* object.

    :func:`execute` used to be a single straight-line function; the
    operator service (:mod:`repro.ops`) needs the same world but
    advanced incrementally under a wall-clock pacer, with control-API
    mutations interleaved.  Construction performs the entire
    time-zero setup -- overrides, topology build, fault arming and the
    attach storm spawn -- and :meth:`milestones` returns the timeline
    boundaries with their callbacks:

    ``[(warmup, phase2), (end_time, finish)]``

    A driver must run the simulator to each boundary (in any number of
    ``sim.run(until=...)`` slices -- chunked runs park the clock
    exactly like one call) and then invoke the callback before
    advancing further.  :meth:`collect` afterwards returns the metrics
    dict.  The batch path (:func:`execute`) drives the milestones
    back-to-back, which reproduces the original straight-line function
    byte-for-byte; the ops pacer interleaves slices with asyncio
    turns.

    The ``ops`` document section is *not* interpreted here: batch runs
    ignore it (it configures the operator runtime only), which keeps
    ``scenario`` importable without :mod:`repro.ops`.
    """

    def __init__(self, trial: "TrialSpec") -> None:
        from repro.baselines.deployments import build_topology
        from repro.core.config import NetworkConfig
        from repro.faults import FaultInjector, FaultPlan

        self.trial = trial
        sections = _apply_overrides(dict(trial.param_dict))
        self.sections = sections
        self.topology = sections["topology"] or {}
        traffic = sections["traffic"] or {}
        self.mobility = sections["mobility"]
        run = sections["run"] or {}
        self.ops_section = sections["ops"]

        ci = dict(traffic.get("ci", {}))
        self.n_ues = int(ci.get("n_ues", 8))
        self.path = ci.get("path", "edge")
        self.ping_interval = float(ci.get("ping_interval", 0.2))
        self.ping_size = int(ci.get("ping_size", 64))
        background = dict(traffic.get("background", {}))
        self.bg_mbps = float(background.get("mbps", 0.0))
        self.bg_site = background.get("site", "central")

        config = NetworkConfig.from_dict(sections["network"] or {},
                                         path="network")
        config.seed = trial.seed
        self.config = config
        self.fabric = build_topology(self.topology, config=config)
        self.network = self.fabric.network
        self.mrs = self.fabric.mrs
        self.n_cells = len(self.fabric.enb_positions)
        self.cell_spacing = float(self.topology.get("cell_spacing", 100.0))

        self.warmup = float(run.get("warmup", 1.0))
        self.tail = float(run.get("tail", 2.0))
        self.speed = self.stagger = walk_duration = 0.0
        if self.mobility is not None:
            self.speed = float(self.mobility.get("speed", 25.0))
            self.stagger = float(self.mobility.get("stagger", 0.05))
            walk_duration = (self.cell_spacing * (self.n_cells - 1)
                             / self.speed)
        self.duration = float(run.get(
            "duration",
            walk_duration + self.n_ues * self.stagger
            if self.mobility is not None else 10.0))
        self.probes = int(ci.get(
            "probes", self.duration / self.ping_interval
            if self.ping_interval > 0 else 0))
        self.start_at = self.warmup + 1.0
        self.end_time = (self.start_at + self.n_ues * self.stagger
                         + self.duration + self.tail)

        plan = FaultPlan.from_dict(sections["faults"] or [],
                                   path="faults")
        self.injector = None
        if plan.faults:
            self.injector = FaultInjector(self.network, plan)
            self.injector.arm()

        # phase 1: attach storm in the first cell
        self._attach_procs = [self.network.add_ue_async(enb_name="enb0")
                              for _ in range(self.n_ues)]

        self.ues: list[Any] = []
        self.attach_outcomes: dict[str, int] = {}
        self.relocated: list[Any] = []
        self.pingers: dict[str, Any] = {}
        self.users: list[Any] = []
        self.session_failures = 0
        self.target: Optional[str] = None
        self.manager: Optional[Any] = None

    @property
    def sim(self):
        return self.network.sim

    def milestones(self) -> list[tuple[float, Any]]:
        """Timeline boundaries as ``(sim_time, callback)`` pairs.

        Run the simulator to each time (any slicing), then call the
        callback, in order.
        """
        return [(self.warmup, self.phase2), (self.end_time, self.finish)]

    # -- milestone callbacks ----------------------------------------------

    def phase2(self) -> None:
        """Collect attach outcomes; start sessions, probes, walks and
        background load.  Call once the clock has reached ``warmup``."""
        from repro.apps.mobility import MobilityManager
        from repro.apps.scenario import WalkPath
        from repro.core.events import SessionRelocated
        from repro.core.network import Pinger

        network = self.network
        for proc in self._attach_procs:
            if not proc.finished:
                self.attach_outcomes["unfinished"] = \
                    self.attach_outcomes.get("unfinished", 0) + 1
                continue
            assert proc.error is None, proc.error
            result = proc.value.attach_result
            outcome = result.outcome if result is not None else "none"
            self.attach_outcomes[outcome] = \
                self.attach_outcomes.get(outcome, 0) + 1
            if proc.value.attached:
                self.ues.append(proc.value)

        # phase 2: sessions, probes, walks, background load
        def on_relocated(event: SessionRelocated) -> None:
            self.relocated.append(event)
            pinger = self.pingers.get(event.imsi)
            if pinger is not None:
                server_name = self.fabric.server_of_site[event.to_site]
                pinger.server = network.servers[server_name]

        network.hooks.on(SessionRelocated, on_relocated)

        if self.path == "edge":
            for ue in self.ues:
                network.sim.post(0.0, self.request_session, ue)
            self.target = self.fabric.server_of_site["edge0"]
        else:
            self.target = "internet"

        if self.bg_mbps > 0:
            network.add_background_load(rate=self.bg_mbps * 1e6,
                                        site_name=self.bg_site).start()

        start_at = self.start_at
        if self.mobility is not None:
            mobility = self.mobility
            self.manager = manager = MobilityManager(
                network, self.fabric.enb_positions,
                update_interval=float(mobility.get("update_interval", 0.5)),
                hysteresis=float(mobility.get("hysteresis", 3.0)),
                hysteresis_db=float(mobility.get("hysteresis_db", 0.0)))
            end_x = self.cell_spacing * (self.n_cells - 1)
            for i, ue in enumerate(self.ues):
                walk = WalkPath(waypoints=[(0.0, 0.0), (end_x, 0.0)],
                                speed=self.speed)
                network.sim.post(
                    start_at + i * self.stagger - network.sim.now,
                    lambda u=ue, w=walk: self.users.append(
                        manager.add_mobile(u, w)))

        if self.ping_interval > 0 and self.probes > 0:
            for i, ue in enumerate(self.ues):
                pinger = Pinger(network, ue, self.target,
                                size=self.ping_size,
                                interval=self.ping_interval)
                pinger.run(count=self.probes,
                           start=start_at + i * self.stagger)
                self.pingers[ue.imsi] = pinger

    def request_session(self, ue) -> None:
        """Start one UE's CI session as a simulator process.

        Counts a failure if the service has no healthy instance.  Runs
        as a scheduled event (phase 2 and the ops ``start_session``
        call); each request is its own process, so any number of
        sessions start without nesting event loops.
        """
        try:
            self.mrs.request_connectivity_async(ue, self.fabric.service_id)
        except LookupError:
            self.session_failures += 1

    def finish(self) -> None:
        """Stop probes.  Call once the clock has reached ``end_time``."""
        for pinger in self.pingers.values():
            pinger.close()

    # -- results -----------------------------------------------------------

    def sessions_alive(self) -> int:
        count = 0
        if self.path == "edge":
            for ue in self.ues:
                session = self.mrs.session_for(ue, self.fabric.service_id)
                if session is None:
                    continue
                bearer = ue.bearers.bearers.get(session.ebi)
                if bearer is not None and bearer.active:
                    count += 1
        return count

    def collect(self) -> dict[str, Any]:
        """The scenario metrics dict (same keys as the historical
        straight-line ``execute``)."""
        network = self.network
        injector = self.injector
        rtts = [r for pg in self.pingers.values() for r in pg.rtts]
        interruptions = [e.interruption for e in self.relocated]
        return {
            "n_ues": self.n_ues,
            "path": self.path,
            "attached": len(self.ues),
            "attach_outcomes": dict(sorted(self.attach_outcomes.items())),
            "sessions_alive": self.sessions_alive(),
            "session_failures": self.session_failures,
            "handovers": sum(len(u.handovers) for u in self.users),
            "relocations_started": self.mrs.relocations_started,
            "relocations_completed": self.mrs.relocations_completed,
            "interruption_ms_mean": (float(np.mean(interruptions)) * 1e3
                                     if interruptions else 0.0),
            "pings_answered": len(rtts),
            "pings_lost": sum(pg.lost for pg in self.pingers.values()),
            "median_rtt_ms": (float(np.median(rtts)) * 1e3
                              if rtts else 0.0),
            "p95_rtt_ms": (float(np.percentile(rtts, 95)) * 1e3
                           if rtts else 0.0),
            "faults_injected": (injector.injected if injector else 0),
            "faults_cleared": (injector.cleared if injector else 0),
            "retransmissions": network.fabric.retransmissions,
            "signalling_drops": dict(sorted(network.fabric.drops.items())),
            "events_run": network.sim.events_run,
        }


def execute(trial: "TrialSpec") -> dict[str, Any]:
    """Run one scenario trial; see the module docstring."""
    run = ScenarioRun(trial)
    for time, callback in run.milestones():
        run.sim.run(until=time)
        callback()
    return run.collect()
