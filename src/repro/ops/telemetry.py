"""Streaming telemetry: hook-bus events out, JSONL + gauges + digest.

The streamer subscribes the existing bus events (packet drops,
signalling procedures, relocations, faults, autoscaler actions) and
renders each as one flat JSON record -- ``{"t": <sim time>, "type":
<name>, ...}`` -- fanned out to an optional JSONL file sink and to any
number of connected subscriber queues (drop-oldest under
backpressure, so a slow tail client never stalls the simulator).
Periodic *gauge* records aggregate what individual events cannot:
per-site matcher queue depth and latency percentiles, attach success
rate, and fluid background throughput.

Every record carries **simulated** time only; the running sha256
digest over the canonical JSON stream is therefore byte-identical
across reruns with the pacer off and a fixed seed (the determinism
contract the soak smoke asserts).  Per-match completion events are
deliberately *not* recorded individually -- at peak diurnal load they
would dominate the stream; their aggregates ride in the gauges.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, TYPE_CHECKING, Any, Callable, Mapping, Optional

from repro.core.events import (SessionDegraded, SessionRelocated,
                               SessionRestored)
from repro.epc.events import ProcedureCompleted, UeAttached
from repro.faults.events import FaultCleared, FaultInjected
from repro.ops.events import MatchDropped, ScaleDown, ScaleUp
from repro.sim.hooks import PacketDropped

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.network import MobileNetwork
    from repro.ops.matchsvc import SiteMatcherService

#: Queue slots per connected subscriber before drop-oldest kicks in.
SUBSCRIBER_BUFFER = 512


def canonical(record: Mapping[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _name_of(obj: Any) -> Optional[str]:
    for attr in ("imsi", "name"):
        value = getattr(obj, attr, None)
        if isinstance(value, str):
            return value
    return None


class TelemetryStreamer:
    """Fans bus events out as JSONL records; aggregates gauges."""

    def __init__(self, network: "MobileNetwork",
                 services: Mapping[str, "SiteMatcherService"],
                 sink: Optional[IO[str]] = None) -> None:
        self.network = network
        self.services = services
        self.sink = sink
        self.records = 0
        self.attach_attempts = 0
        self.attach_successes = 0
        self.packet_drops: dict[str, int] = {}
        self._digest = hashlib.sha256()
        self._subscribers: list[Any] = []   # asyncio.Queue, duck-typed
        self._subscriptions = []
        self._gauge_running = False
        hooks = network.hooks
        for event_type, render in self._renderers().items():
            self._subscriptions.append(
                hooks.on(event_type, self._make_handler(render)))

    # -- event rendering ---------------------------------------------------

    def _renderers(self) -> dict[type, Callable[[Any], dict]]:
        return {
            UeAttached: self._render_attach,
            ProcedureCompleted: self._render_procedure,
            PacketDropped: self._render_drop,
            SessionRelocated: self._render_relocated,
            SessionDegraded: self._render_degraded,
            SessionRestored: self._render_restored,
            FaultInjected: self._render_fault_injected,
            FaultCleared: self._render_fault_cleared,
            MatchDropped: self._render_match_dropped,
            ScaleUp: self._render_scale_up,
            ScaleDown: self._render_scale_down,
        }

    def _make_handler(self, render: Callable[[Any], dict]):
        def handler(event: Any) -> None:
            self.record(render(event))
        return handler

    def _render_attach(self, e: UeAttached) -> dict:
        outcome = e.result.outcome if e.result is not None else "none"
        self.attach_attempts += 1
        if outcome in ("ok", "retried-ok"):
            self.attach_successes += 1
        return {"type": "ue_attached", "ue": _name_of(e.ue),
                "enb": _name_of(e.enb), "outcome": outcome}

    def _render_procedure(self, e: ProcedureCompleted) -> dict:
        return {"type": "procedure", "name": e.name,
                "subject": _name_of(e.subject),
                "outcome": e.result.outcome,
                "elapsed_ms": e.result.elapsed * 1e3,
                "retries": e.result.retries}

    def _render_drop(self, e: PacketDropped) -> dict:
        self.packet_drops[e.reason] = \
            self.packet_drops.get(e.reason, 0) + 1
        return {"type": "packet_dropped", "reason": e.reason,
                "link": _name_of(e.link),
                "sender": _name_of(e.sender),
                "size": getattr(e.packet, "size", None)}

    def _render_relocated(self, e: SessionRelocated) -> dict:
        return {"type": "session_relocated", "ue": e.imsi,
                "service": e.service_id, "from": e.from_site,
                "to": e.to_site, "policy": e.policy,
                "interruption_ms": e.interruption * 1e3,
                "duration_ms": e.duration * 1e3,
                "transferred_bytes": e.transferred_bytes}

    def _render_degraded(self, e: SessionDegraded) -> dict:
        return {"type": "session_degraded", "ue": e.imsi,
                "service": e.service_id, "mode": e.mode}

    def _render_restored(self, e: SessionRestored) -> dict:
        return {"type": "session_restored", "ue": e.imsi,
                "service": e.service_id}

    def _render_fault_injected(self, e: FaultInjected) -> dict:
        return {"type": "fault_injected", "spec": e.spec.to_dict()}

    def _render_fault_cleared(self, e: FaultCleared) -> dict:
        return {"type": "fault_cleared", "spec": e.spec.to_dict()}

    def _render_match_dropped(self, e: MatchDropped) -> dict:
        return {"type": "match_dropped", "site": e.site,
                "queue_depth": e.queue_depth}

    def _render_scale_up(self, e: ScaleUp) -> dict:
        return {"type": "scale_up", "site": e.site,
                "from_workers": e.from_workers,
                "to_workers": e.to_workers,
                "queue_depth": e.queue_depth, "p99_ms": e.p99_ms}

    def _render_scale_down(self, e: ScaleDown) -> dict:
        return {"type": "scale_down", "site": e.site,
                "from_workers": e.from_workers,
                "to_workers": e.to_workers,
                "queue_depth": e.queue_depth, "p99_ms": e.p99_ms}

    # -- record fan-out ----------------------------------------------------

    def record(self, payload: dict) -> None:
        """Stamp, digest and fan one record out."""
        record = {"t": round(self.network.sim.now, 9), **payload}
        line = canonical(record)
        self.records += 1
        self._digest.update(line.encode("utf-8"))
        self._digest.update(b"\n")
        if self.sink is not None:
            self.sink.write(line + "\n")
        for queue in self._subscribers:
            try:
                queue.put_nowait(line)
            except Exception:       # asyncio.QueueFull: drop oldest
                try:
                    queue.get_nowait()
                    queue.put_nowait(line)
                except Exception:   # pragma: no cover - raced empty
                    pass

    def digest(self) -> str:
        """sha256 over every record streamed so far."""
        return self._digest.hexdigest()

    def subscribe(self, queue: Any) -> None:
        """Attach a subscriber queue (anything with ``put_nowait`` /
        ``get_nowait``)."""
        self._subscribers.append(queue)

    def unsubscribe(self, queue: Any) -> None:
        if queue in self._subscribers:
            self._subscribers.remove(queue)

    # -- gauges ------------------------------------------------------------

    def attach_success_rate(self) -> float:
        if self.attach_attempts == 0:
            return 1.0
        return self.attach_successes / self.attach_attempts

    def fluid_mbps(self) -> float:
        fluid = self.network.fluid
        if fluid is None:
            return 0.0
        return sum(f.delivered_rate for f in fluid.flows) / 1e6

    def gauge_record(self) -> dict:
        return {
            "type": "gauge",
            "sites": {site: svc.gauges()
                      for site, svc in sorted(self.services.items())},
            "attach_attempts": self.attach_attempts,
            "attach_success_rate": self.attach_success_rate(),
            "packet_drops": dict(sorted(self.packet_drops.items())),
            "fluid_mbps": self.fluid_mbps(),
        }

    def start_gauges(self, interval: float, until: float) -> None:
        """Schedule periodic gauge records as **sim** events (so the
        gauge stream is part of the deterministic record)."""
        if self._gauge_running:
            raise RuntimeError("gauge ticks already started")
        self._gauge_running = True
        self.network.sim.post(interval, self._gauge_tick, interval, until)

    def _gauge_tick(self, interval: float, until: float) -> None:
        self.record(self.gauge_record())
        if self.network.sim.now + interval <= until:
            self.network.sim.post(interval, self._gauge_tick, interval, until)
        else:
            self._gauge_running = False

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        for sub in self._subscriptions:
            sub.close()
        self._subscriptions.clear()
        if self.sink is not None:
            self.sink.flush()
