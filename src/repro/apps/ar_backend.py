"""The AR back-end: the CI server application.

Processes uploaded frames (Section 6.3): decode, SURF extraction, then
object matching against the geo-tagged database pruned by the user's
context.  Matching *correctness* runs for real on the synthetic
descriptors; *runtimes* come from the calibrated device cost model so
the latency figures scale the way the paper's servers do.

Two views are provided: :class:`ARBackend` for direct (in-process)
experiments like Figures 11/12, and :class:`ARServerNode` which embeds
the back-end in the network simulator for the end-to-end runs of
Figure 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.localization_manager import LocalizationManager
from repro.core.optimizer import SearchSpace, SearchSpaceOptimizer
from repro.vision.batch import BatchObjectMatcher
from repro.vision.codec import CompressionModel, JPEG90
from repro.vision.costmodel import DEVICES, DeviceProfile
from repro.vision.database import ObjectDatabase
from repro.vision.features import Frame
from repro.sim.node import Node
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.scenario import StoreScenario
    from repro.sim.engine import Simulator
    from repro.sim.link import Link


@dataclass
class ARResponse:
    """Result of processing one frame."""

    matched_object: Optional[str]
    tag: Optional[str]
    search_space: SearchSpace
    decode_time: float
    surf_time: float
    match_time: float
    correct: Optional[bool] = None      # filled when ground truth is known

    @property
    def compute_time(self) -> float:
        """Decode + SURF (the paper's 'Compute' bar in Figure 13)."""
        return self.decode_time + self.surf_time

    @property
    def server_time(self) -> float:
        return self.compute_time + self.match_time


class ARBackend:
    """Frame processing against a geo-tagged database."""

    def __init__(self, db: ObjectDatabase, scenario: "StoreScenario",
                 localization: LocalizationManager,
                 device: DeviceProfile = DEVICES["i7-8core"],
                 codec: CompressionModel = JPEG90,
                 acacia_radius: float = 3.5) -> None:
        self.db = db
        self.scenario = scenario
        self.localization = localization
        self.device = device
        self.codec = codec
        self.matcher = BatchObjectMatcher()
        self.optimizer = SearchSpaceOptimizer(db, scenario,
                                              acacia_radius=acacia_radius)
        self.frames_processed = 0

    def select_search_space(self, user_id: str, now: float,
                            scheme: str) -> SearchSpace:
        if scheme == "naive":
            return self.optimizer.naive()
        if scheme == "rxpower":
            strongest = self.localization.strongest_landmarks(user_id, now)
            return self.optimizer.rxpower(strongest)
        if scheme == "acacia":
            location = self.localization.location(user_id, now)
            fallback = self.localization.strongest_landmarks(user_id, now)
            return self.optimizer.acacia(location,
                                         fallback_landmarks=fallback)
        raise ValueError(f"unknown search scheme {scheme!r}")

    def process_frame(self, user_id: str, frame: Frame, now: float,
                      scheme: str = "acacia",
                      clients: int = 1) -> ARResponse:
        """Full back-end pass for one uploaded frame."""
        self.frames_processed += 1
        space = self.select_search_space(user_id, now, scheme)
        decode_time = self.codec.decode_time(frame.resolution)
        surf_time = self.device.surf_time(frame.resolution)
        match_time = self.device.db_match_time(
            frame.resolution, db_objects=space.size,
            object_features=self.db.mean_nominal_features(space.records)
            or 1.0,
            clients=clients)
        best = self.matcher.match_frame(
            frame, (record.model for record in space.records))
        matched = best.object_name if best is not None else None
        tag = self.db.get(matched).tag if matched is not None else None
        correct = matched == frame.true_object
        return ARResponse(matched_object=matched, tag=tag,
                          search_space=space, decode_time=decode_time,
                          surf_time=surf_time, match_time=match_time,
                          correct=correct)


class ARServerNode(Node):
    """Network-embedded CI server running an :class:`ARBackend`.

    Frame packets carry their :class:`~repro.vision.features.Frame` in
    ``meta["frame"]``; the node models the server compute time as a
    simulated delay and replies with a small annotation packet stamped
    with the compute breakdown.
    """

    RESPONSE_BYTES = 2000      # AR annotations: text/price/review snippet

    def __init__(self, sim: "Simulator", name: str, backend: ARBackend,
                 scheme: str = "acacia", ip: Optional[str] = None) -> None:
        super().__init__(sim, name, ip)
        self.backend = backend
        self.scheme = scheme
        self.active_clients = 0

    def on_receive(self, packet: Packet, link: "Link") -> None:
        frame = packet.meta.get("frame")
        if frame is None:
            return      # not a frame upload; ignore
        self.active_clients += 1
        response = self.backend.process_frame(
            user_id=packet.meta.get("user_id", packet.src),
            frame=frame, now=self.sim.now, scheme=self.scheme,
            clients=max(1, self.active_clients))
        self.sim.post(response.server_time, self._reply, packet, response,
                      link)

    def _reply(self, request: Packet, response: ARResponse,
               link: "Link") -> None:
        self.active_clients = max(0, self.active_clients - 1)
        reply = Packet(
            src=self.ip, dst=request.src, size=self.RESPONSE_BYTES,
            protocol=request.protocol, src_port=request.dst_port,
            dst_port=request.src_port, flow_id=request.flow_id,
            created_at=self.sim.now,
            meta={
                "response_to": request.packet_id,
                "frame_seq": request.meta.get("frame_seq"),
                "matched": response.matched_object,
                "tag": response.tag,
                "decode_time": response.decode_time,
                "surf_time": response.surf_time,
                "match_time": response.match_time,
            })
        port = self.port_for_link(link)
        if port is not None:
            self.send(port, reply)
