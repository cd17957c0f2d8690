"""A second CI application archetype: VR split rendering.

The paper motivates ACACIA with continuous interactive applications
beyond retail AR -- VR and autonomous driving in the introduction.
This module adds a VR-shaped workload to exercise the framework from
the opposite direction to AR: *tiny uplink* (head-pose updates at the
display tick rate) and *large downlink* (rendered view tiles), with
motion-to-photon latency as the quality metric.

The client runs open-loop at the tick rate (a head keeps moving whether
or not frames return), so late frames are measured, not avoided --
exactly how VR latency degrades in practice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.epc.events import DownlinkDelivered
from repro.sim.node import Node
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.epc.ue import UEDevice
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

_session_ids = itertools.count(1)

#: Head-pose update payload (quaternion + position + timestamp).
POSE_BYTES = 100

#: Rendered view tile shipped per pose (foveated/compressed).
DEFAULT_TILE_BYTES = 20_000

#: Display/pose tick rate.
DEFAULT_TICK_HZ = 60.0

VR_SERVER_PORT = 9100


@dataclass
class PoseRecord:
    """One completed pose -> photon round trip."""

    seq: int
    motion_to_photon: float


class VRRenderServer(Node):
    """Edge render farm: turns a pose into a view tile after a modeled
    GPU render time."""

    def __init__(self, sim: "Simulator", name: str,
                 render_time: float = 0.008,
                 tile_bytes: int = DEFAULT_TILE_BYTES,
                 ip: Optional[str] = None) -> None:
        super().__init__(sim, name, ip)
        self.render_time = render_time
        self.tile_bytes = tile_bytes
        self.poses_rendered = 0
        self._busy_until = 0.0

    def on_receive(self, packet: Packet, link: "Link") -> None:
        if packet.meta.get("pose_seq") is None:
            return
        # one GPU pipeline: renders serialize
        start = max(self.sim.now, self._busy_until)
        done = start + self.render_time
        self._busy_until = done
        self.sim.schedule(done - self.sim.now, self._reply, packet, link)

    def _reply(self, request: Packet, link: "Link") -> None:
        self.poses_rendered += 1
        tile = Packet(
            src=self.ip, dst=request.src, size=self.tile_bytes,
            protocol=request.protocol, src_port=request.dst_port,
            dst_port=request.src_port, flow_id=request.flow_id,
            qci=request.qci, created_at=self.sim.now,
            meta={"pose_seq": request.meta["pose_seq"],
                  "is_tile": True})
        port = self.port_for_link(link)
        if port is not None:
            self.send(port, tile)


class VRClient:
    """Open-loop pose streamer + motion-to-photon meter on a UE."""

    def __init__(self, sim: "Simulator", ue: "UEDevice", server_ip: str,
                 tick_hz: float = DEFAULT_TICK_HZ,
                 max_poses: Optional[int] = None) -> None:
        if tick_hz <= 0:
            raise ValueError("tick rate must be positive")
        self.sim = sim
        self.ue = ue
        self.server_ip = server_ip
        self.tick_interval = 1.0 / tick_hz
        self.max_poses = max_poses
        self.session_id = next(_session_ids)
        self.flow_id = f"vr-{self.session_id}"
        self.records: list[PoseRecord] = []
        self.poses_sent = 0
        self._sent_at: dict[int, float] = {}
        self._running = False
        self._subscription = sim.hooks.on(DownlinkDelivered,
                                          self._on_downlink, key=ue)

    def start(self, at: float = 0.0) -> None:
        self._running = True
        self.sim.schedule(max(0.0, at - self.sim.now), self._tick)

    def stop(self) -> None:
        self._running = False

    def close(self) -> None:
        """Stop streaming and detach from the hook bus.  Idempotent."""
        self._running = False
        if self._subscription is not None:
            self._subscription.close()
            self._subscription = None

    def _tick(self) -> None:
        if not self._running:
            return
        if self.max_poses is not None and self.poses_sent >= self.max_poses:
            self._running = False
            return
        seq = self.poses_sent
        self.poses_sent += 1
        packet = Packet(
            src=self.ue.ip, dst=self.server_ip, size=POSE_BYTES,
            protocol="UDP", src_port=47000 + self.session_id,
            dst_port=VR_SERVER_PORT,
            flow_id=self.flow_id, created_at=self.sim.now,
            meta={"pose_seq": seq})
        self._sent_at[seq] = self.sim.now
        self.ue.send_app(packet)
        self.sim.schedule(self.tick_interval, self._tick)

    def _on_downlink(self, event: DownlinkDelivered) -> None:
        # keyed on our UE; tiles echo the pose's flow id, so filter to
        # our session
        packet = event.packet
        if packet.flow_id != self.flow_id:
            return
        seq = packet.meta.get("pose_seq")
        if not packet.meta.get("is_tile") or seq not in self._sent_at:
            return
        sent_at = self._sent_at.pop(seq)
        self.records.append(PoseRecord(
            seq=seq, motion_to_photon=self.sim.now - sent_at))

    # -- quality metrics -----------------------------------------------------

    def motion_to_photon(self) -> np.ndarray:
        return np.array([r.motion_to_photon for r in self.records])

    def percentile(self, q: float) -> float:
        samples = self.motion_to_photon()
        return float(np.percentile(samples, q)) if len(samples) else 0.0

    def fraction_within(self, budget: float) -> float:
        """Fraction of rendered poses inside a latency budget, counting
        never-answered poses as misses."""
        if self.poses_sent == 0:
            return 0.0
        good = sum(1 for r in self.records
                   if r.motion_to_photon <= budget)
        return good / self.poses_sent
