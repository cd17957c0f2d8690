"""The AR front-end: the on-device half of the AR application.

Reads frames from the camera, resizes/encodes them (grayscale JPEG, as
Section 6.3 describes) and uploads them to the AR back-end over the
mobile network; collects per-frame latency breakdowns when responses
come back.  The session is closed-loop: the next frame is captured when
the previous response arrives (never faster than the camera).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.epc.events import DownlinkDelivered
from repro.vision.camera import CameraModel, Resolution
from repro.vision.codec import CompressionModel, JPEG90
from repro.vision.features import Frame
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.epc.ue import UEDevice
    from repro.sim.engine import Simulator

_session_ids = itertools.count(1)

#: Port the AR back-end listens on.
AR_SERVER_PORT = 9000


@dataclass
class FrameRecord:
    """Latency breakdown of one completed frame round-trip."""

    frame_seq: int
    matched: Optional[str]
    encode_time: float
    decode_time: float
    surf_time: float
    match_time: float
    total_time: float           # capture -> response arrival

    @property
    def compute_time(self) -> float:
        """Encode + decode + SURF: the Figure 13 'Compute' bar."""
        return self.encode_time + self.decode_time + self.surf_time

    @property
    def network_time(self) -> float:
        """Everything that is not compute or matching: transport."""
        return max(0.0, self.total_time - self.compute_time
                   - self.match_time)


class ARFrontend:
    """Frame capture + encode pipeline."""

    def __init__(self, resolution: Resolution,
                 codec: CompressionModel = JPEG90,
                 camera: Optional[CameraModel] = None,
                 scene_complexity: float = 1.0) -> None:
        self.resolution = resolution
        self.codec = codec
        self.camera = camera if camera is not None else CameraModel()
        self.scene_complexity = scene_complexity

    @property
    def frame_bytes(self) -> int:
        return self.codec.frame_bytes(self.resolution,
                                      self.scene_complexity)

    @property
    def encode_time(self) -> float:
        return self.codec.encode_time(self.resolution)

    @property
    def min_frame_interval(self) -> float:
        return self.camera.frame_interval(self.resolution)


class ARSession:
    """Closed-loop AR exchange between a UE and a CI server."""

    def __init__(self, sim: "Simulator", ue: "UEDevice", server_ip: str,
                 frontend: ARFrontend, frames: Iterable[Frame],
                 max_frames: Optional[int] = None,
                 on_complete: Optional[Callable[["ARSession"], None]] = None
                 ) -> None:
        self.sim = sim
        self.ue = ue
        self.server_ip = server_ip
        self.frontend = frontend
        self._frames = iter(frames)
        self.max_frames = max_frames
        self.on_complete = on_complete
        self.session_id = next(_session_ids)
        self.flow_id = f"ar-session-{self.session_id}"
        self.records: list[FrameRecord] = []
        self._seq = 0
        self._inflight: dict[int, tuple[float, Frame]] = {}
        self._finished = False
        self._subscription = sim.hooks.on(DownlinkDelivered,
                                          self._on_downlink, key=ue)

    # -- control ---------------------------------------------------------

    def start(self, at: float = 0.0) -> None:
        """Begin capturing at absolute sim time ``at`` (or now if past)."""
        self.sim.schedule(max(0.0, at - self.sim.now), self._capture_next)

    def _capture_next(self) -> None:
        if self._finished:
            return
        if self.max_frames is not None and self._seq >= self.max_frames:
            self._finish()
            return
        try:
            frame = next(self._frames)
        except StopIteration:
            self._finish()
            return
        self._seq += 1
        capture_time = self.sim.now
        encode_time = self.frontend.encode_time
        self.sim.schedule(encode_time, self._upload, frame, capture_time)

    def _upload(self, frame: Frame, capture_time: float) -> None:
        packet = Packet(
            src=self.ue.ip, dst=self.server_ip,
            size=self.frontend.frame_bytes, protocol="UDP",
            src_port=40000 + self.session_id, dst_port=AR_SERVER_PORT,
            flow_id=self.flow_id,
            created_at=self.sim.now,
            meta={"frame": frame, "frame_seq": self._seq,
                  "user_id": self.ue.name})
        self._inflight[self._seq] = (capture_time, frame)
        self.ue.send_app(packet)

    def _on_downlink(self, event: DownlinkDelivered) -> None:
        # keyed on our UE; server replies echo the request's flow id,
        # so this filter leaves our session only
        packet = event.packet
        if packet.flow_id != self.flow_id:
            return
        seq = packet.meta.get("frame_seq")
        entry = self._inflight.pop(seq, None) if seq is not None else None
        if entry is None:
            return
        capture_time, _ = entry
        self.records.append(FrameRecord(
            frame_seq=seq,
            matched=packet.meta.get("matched"),
            encode_time=self.frontend.encode_time,
            decode_time=packet.meta.get("decode_time", 0.0),
            surf_time=packet.meta.get("surf_time", 0.0),
            match_time=packet.meta.get("match_time", 0.0),
            total_time=self.sim.now - capture_time))
        # closed loop, but never faster than the camera can produce
        next_in = max(0.0, self.frontend.min_frame_interval
                      - (self.sim.now - capture_time))
        self.sim.schedule(next_in, self._capture_next)

    def close(self) -> None:
        """Detach the session from the hook bus.  Idempotent."""
        if self._subscription is not None:
            self._subscription.close()
            self._subscription = None

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.close()
        if self.on_complete is not None:
            self.on_complete(self)

    # -- results ------------------------------------------------------------

    def mean_breakdown(self) -> dict[str, float]:
        """Per-frame means of the Figure 13 bars."""
        if not self.records:
            return {"match": 0.0, "compute": 0.0, "network": 0.0,
                    "total": 0.0}
        n = len(self.records)
        return {
            "match": sum(r.match_time for r in self.records) / n,
            "compute": sum(r.compute_time for r in self.records) / n,
            "network": sum(r.network_time for r in self.records) / n,
            "total": sum(r.total_time for r in self.records) / n,
        }
