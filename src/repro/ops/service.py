"""The operator service: one scenario run as a live, steerable system.

:class:`OpsService` compiles a scenario document into a
:class:`~repro.scenario.runtime.ScenarioRun` and layers the operator
machinery on top: per-site simulated matcher fleets fed by the diurnal
load generator, the telemetry streamer and the autoscaler.

Two drive modes share identical sim-time behaviour:

* :meth:`run_batch` -- synchronous, no asyncio, no pacing: the
  deterministic reference used by the smoke test and the CLI's
  ``ops run``.  With a fixed seed its telemetry digest is
  byte-identical across reruns;
* :meth:`serve` -- asyncio: the pacer advances the simulator against
  wall time while the control server handles JSON-RPC mutations
  between slices.

All operator machinery (gauge ticks, load arrivals, autoscaler
evaluations, matcher completions) runs as **sim-time events** drawing
only from dedicated ``ops.*`` RNG streams, so it never perturbs the
underlying network simulation: a scenario's batch metrics are
unchanged (bar the event count) by running it under the operator
runtime.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
from typing import IO, Any, Optional

from repro.faults import FaultInjector, FaultPlan
from repro.ops.config import OpsConfig
from repro.ops.autoscaler import Autoscaler
from repro.ops.control import ControlServer
from repro.ops.load import DiurnalLoadModel, MatchLoadGenerator
from repro.ops.matchsvc import build_services
from repro.ops.pacer import Pacer
from repro.ops.telemetry import TelemetryStreamer, canonical
from repro.scenario.document import Scenario
from repro.scenario.runtime import ScenarioRun
from repro.sim.context import derive_seed

#: Control methods the server will dispatch (closed set -- the RPC
#: layer must not reach arbitrary attributes).
CONTROL_METHODS = ("ping", "status", "site_load", "attach_ue",
                   "detach_ue", "start_session", "stop_session",
                   "inject_fault", "clear_fault", "snapshot", "drain",
                   "shutdown")


class OpsService:
    """A live operator runtime around one scenario run."""

    def __init__(self, scenario: Scenario,
                 seed: Optional[int] = None,
                 duration: Optional[float] = None,
                 rtf: Optional[float] = None,
                 sink: Optional[IO[str]] = None) -> None:
        self.scenario = scenario
        spec = scenario.compile()
        trial = spec.trials()[0]
        if seed is not None:
            trial = dataclasses.replace(
                trial, base_seed=int(seed),
                seed=derive_seed(spec.name, spec.workload, int(seed)))
        if duration is not None:
            trial = dataclasses.replace(
                trial, params=trial.params + (("duration",
                                               float(duration)),))
        self.trial = trial
        self.run = ScenarioRun(trial)
        self.config = OpsConfig.from_dict(self.run.ops_section)
        if rtf is not None:
            self.config.pacer.rtf = float(rtf)

        network = self.run.network
        ctx = network.ctx
        self.services = build_services(
            ctx, network.edge_sites, self.config.matcher,
            self.config.telemetry,
            workers=self.config.autoscaler.min_workers)
        self.telemetry = TelemetryStreamer(network, self.services,
                                           sink=sink)
        self.pacer = Pacer(network.sim, self.config.pacer)
        # the "day" spans session start to run end; shortening
        # run.duration compresses the diurnal curve into the new span
        period = max(self.run.end_time - self.run.start_at, 1e-9)
        self.load_model = DiurnalLoadModel(self.config.load, period)
        self.load = MatchLoadGenerator(ctx, self.services,
                                       self.load_model,
                                       start=self.run.start_at,
                                       end=self.run.end_time)
        self.autoscaler = Autoscaler(ctx, self.services,
                                     self.config.autoscaler)

        # everything ops schedules is a sim event: identical under
        # batch and paced drive modes
        self.telemetry.start_gauges(self.config.telemetry.gauge_interval,
                                    until=self.run.end_time)
        self.load.start_generation()
        self.autoscaler.start(until=self.run.end_time)

        self._live_injectors: list[FaultInjector] = []
        self._ops_ue_seq = 0
        self._milestone = 0
        self._finished = False
        self.server: Optional[ControlServer] = None

    # -- drive modes -------------------------------------------------------

    def run_batch(self) -> dict[str, Any]:
        """Drive the whole timeline synchronously (no pacing)."""
        for time, callback in self.run.milestones()[self._milestone:]:
            self.run.sim.run(until=time)
            callback()
            self._milestone += 1
        self._finished = True
        self.telemetry.close()
        return self.summary()

    async def serve(self, endpoint: Optional[str] = None
                    ) -> dict[str, Any]:
        """Drive the timeline under the pacer, serving the control
        API at ``endpoint`` (if given) between slices."""
        if endpoint is not None:
            self.server = ControlServer(self, endpoint)
            await self.server.start()
        try:
            for time, callback in self.run.milestones()[self._milestone:]:
                await self.pacer.advance(time)
                if self.pacer.stop_requested and self.run.sim.now < time:
                    break
                callback()
                self._milestone += 1
            self._finished = self._milestone >= len(self.run.milestones())
        finally:
            if self.server is not None:
                await self.server.stop()
                self.server = None
        self.telemetry.close()
        return self.summary()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Scenario metrics plus the operator-layer aggregates."""
        metrics = self.run.collect()
        dropped = (metrics["attached"] - metrics["sessions_alive"]
                   if self.run.path == "edge" else 0)
        ops = {
            "ci_sessions_dropped": dropped,
            "scale_ups": self.autoscaler.scale_ups,
            "scale_downs": self.autoscaler.scale_downs,
            "load_offered": self.load.offered,
            "match_submitted": sum(s.submitted
                                   for s in self.services.values()),
            "match_completed": sum(s.completed
                                   for s in self.services.values()),
            "match_dropped": sum(s.dropped
                                 for s in self.services.values()),
            "sites": {site: svc.gauges()
                      for site, svc in sorted(self.services.items())},
            "attach_success_rate": self.telemetry.attach_success_rate(),
            "live_faults_injected": sum(i.injected
                                        for i in self._live_injectors),
            "telemetry_records": self.telemetry.records,
            "telemetry_digest": self.telemetry.digest(),
        }
        return {**metrics, "ops": ops}

    def metrics_digest(self, summary: Optional[dict] = None) -> str:
        """sha256 over the canonical summary, wall-clock-free (the
        byte-identical-rerun contract)."""
        data = dict(summary if summary is not None else self.summary())
        return hashlib.sha256(
            canonical(data).encode("utf-8")).hexdigest()

    # -- control API -------------------------------------------------------

    def dispatch(self, method: Optional[str], params: dict) -> Any:
        if method not in CONTROL_METHODS:
            raise ValueError(f"no such method {method!r}; valid: "
                             f"{list(CONTROL_METHODS)}")
        return getattr(self, f"_rpc_{method}")(**params)

    def _rpc_ping(self) -> str:
        return "pong"

    def _rpc_status(self) -> dict:
        network = self.run.network
        return {
            "scenario": self.scenario.name,
            "seed": self.trial.seed,
            "sim_now": network.sim.now,
            "end_time": self.run.end_time,
            "milestone": self._milestone,
            "finished": self._finished,
            "ues": len(network.ues),
            "sessions": len(self.run.mrs.sessions),
            "pacer": self.pacer.stats(),
            "telemetry_records": self.telemetry.records,
            "scale_ups": self.autoscaler.scale_ups,
            "scale_downs": self.autoscaler.scale_downs,
            "workers": {site: svc.workers
                        for site, svc in sorted(self.services.items())},
        }

    def _rpc_site_load(self, site: Optional[str] = None) -> dict:
        sites = ([site] if site is not None
                 else sorted(self.services))
        out = {}
        for name in sites:
            svc = self.services.get(name)
            if svc is None:
                raise ValueError(f"no such edge site {name!r}; sites: "
                                 f"{sorted(self.services)}")
            out[name] = {"matcher": svc.gauges(), "pressure": svc.load()}
        return out

    def _rpc_attach_ue(self, enb: str = "enb0") -> dict:
        name = f"opsue{self._ops_ue_seq}"
        self._ops_ue_seq += 1
        self.run.network.add_ue_async(name=name, enb_name=enb)
        return {"ue": name, "enb": enb}

    def _ue(self, ue: str):
        device = self.run.network.ues.get(ue)
        if device is None:
            raise ValueError(f"no such UE {ue!r}")
        return device

    def _rpc_detach_ue(self, ue: str) -> dict:
        device = self._ue(ue)
        self.run.network.control_plane.release_to_idle_async(device)
        return {"ue": ue, "released": True}

    def _rpc_start_session(self, ue: str) -> dict:
        device = self._ue(ue)
        self.run.sim.post(0.0, self.run.request_session, device)
        return {"ue": ue, "service": self.run.fabric.service_id}

    def _rpc_stop_session(self, ue: str) -> dict:
        device = self._ue(ue)
        self.run.sim.post(
            0.0, self.run.mrs.release_connectivity, device,
            self.run.fabric.service_id)
        return {"ue": ue, "released": True}

    def _rpc_inject_fault(self, spec: dict) -> dict:
        now = self.run.sim.now
        data = dict(spec)
        at = float(data.get("at", 0.0))
        data["at"] = max(at, now)
        # keep documented end times relative to the (shifted) start
        delta = data["at"] - at
        if delta > 0 and isinstance(data.get("until"), (int, float)):
            data["until"] = float(data["until"]) + delta
        plan = FaultPlan.from_dict([data], path="inject_fault")
        injector = FaultInjector(self.run.network, plan)
        injector.arm()
        self._live_injectors.append(injector)
        return {"armed": data}

    def _rpc_clear_fault(self, link: str) -> dict:
        network = self.run.network
        target = network.links.get(link)
        if target is None and link.startswith("sig."):
            channel = network.fabric.channels.get(link[len("sig."):])
            if channel is not None:
                target = channel.link
        if target is None:
            channels = sorted(f"sig.{name}"
                              for name in network.fabric.channels)
            raise ValueError(f"no link named {link!r}; signalling "
                             f"channels: {channels}")
        self.run.sim.post(0.0, target.set_up, True)
        return {"link": link, "up": True}

    def _rpc_snapshot(self) -> dict:
        return self.summary()

    def _rpc_drain(self) -> dict:
        """Stop offering new load; queues drain naturally."""
        self.load.end = self.run.sim.now
        return {"draining": True,
                "queues": {site: svc.queue_depth
                           for site, svc in sorted(
                               self.services.items())}}

    def _rpc_shutdown(self) -> dict:
        self.pacer.stop_requested = True
        return {"stopping": True}


def load_service(path_or_name: str, **kwargs: Any) -> OpsService:
    """Build an :class:`OpsService` from a scenario file path or
    catalogue name (the CLI entry point)."""
    from repro.scenario.loader import load
    return OpsService(load(path_or_name), **kwargs)


def summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True)
