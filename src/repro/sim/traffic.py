"""Traffic generators.

Three source models cover everything the evaluation needs:

* :class:`CBRSource` -- constant bit rate, used for the paper's iperf
  background-traffic loads (Figures 3(g) and 10(b));
* :class:`PoissonSource` -- Poisson packet arrivals for stochastic load;
* :class:`GreedySource` -- a closed-loop, window-based sender that ramps
  until it saturates the path, standing in for the iperf TCP test that
  Figure 8 drives through the gateway data planes.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sim.node import Node
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.context import SimContext
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

_flow_ids = itertools.count(1)

#: Default simulated MTU-sized payload (bytes).
DEFAULT_PACKET_SIZE = 1400


def _resolve_rng(name: str, rng: Optional[np.random.Generator],
                 ctx: Optional["SimContext"],
                 stream: Optional[str]) -> Optional[np.random.Generator]:
    """Resolve a source's generator from a named context stream.

    The preferred spelling is ``ctx=...`` (plus an optional ``stream``
    name, defaulting to ``traffic.<source name>``), which draws from
    the :class:`~repro.sim.context.SimContext`'s seed-derived stream
    tree like the rest of the stack -- two sources can then never
    perturb each other's randomness.  A bare ``rng=...`` generator is
    still accepted for self-contained unit use.
    """
    if rng is not None:
        if ctx is not None:
            raise ValueError("pass either rng or ctx, not both")
        if stream is not None:
            raise ValueError("stream requires a ctx")
        return rng
    if ctx is not None:
        return ctx.rng(stream if stream is not None else f"traffic.{name}")
    if stream is not None:
        raise ValueError("stream requires a ctx")
    return None


class CBRSource(Node):
    """Constant-bit-rate UDP source out of a single port."""

    def __init__(self, sim: "Simulator", name: str, dst: str,
                 rate: float, packet_size: int = DEFAULT_PACKET_SIZE,
                 port: str = "out", ip: Optional[str] = None,
                 qci: Optional[int] = None,
                 dst_port: int = 5001) -> None:
        super().__init__(sim, name, ip)
        if rate <= 0:
            raise ValueError("rate must be positive bits/sec")
        self.dst = dst
        self.rate = rate
        self.packet_size = packet_size
        self.out_port = port
        self.qci = qci
        self.dst_port = dst_port
        self.flow_id = f"cbr-{next(_flow_ids)}"
        self.packets_sent = 0
        self._timer = None
        self._interval = packet_size * 8 / rate

    def start(self, at: float = 0.0) -> None:
        self._timer = self.sim.schedule(at, self._tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        packet = Packet(src=self.ip, dst=self.dst, size=self.packet_size,
                        protocol="UDP", src_port=40000,
                        dst_port=self.dst_port, flow_id=self.flow_id,
                        qci=self.qci, created_at=self.sim.now)
        self.send(self.out_port, packet)
        self.packets_sent += 1
        # re-arm the just-fired timer event in place: a CBR flood then
        # allocates zero Event objects in steady state
        self._timer = self._timer.reschedule(self._interval)


class PoissonSource(Node):
    """Poisson arrivals at a mean rate (bits/sec).

    Randomness comes from a named :class:`~repro.sim.context.SimContext`
    stream (``ctx=..., stream="traffic.<id>"`` by default) or, for
    self-contained use, an explicit ``rng`` generator.
    """

    def __init__(self, sim: "Simulator", name: str, dst: str,
                 rate: float, rng: Optional[np.random.Generator] = None,
                 packet_size: int = DEFAULT_PACKET_SIZE,
                 port: str = "out", ip: Optional[str] = None,
                 qci: Optional[int] = None,
                 ctx: Optional["SimContext"] = None,
                 stream: Optional[str] = None) -> None:
        super().__init__(sim, name, ip)
        if rate <= 0:
            raise ValueError("rate must be positive bits/sec")
        rng = _resolve_rng(name, rng, ctx, stream)
        if rng is None:
            raise ValueError("PoissonSource needs a ctx (preferred) or rng")
        self.dst = dst
        self.rate = rate
        self.rng = rng
        self.packet_size = packet_size
        self.out_port = port
        self.qci = qci
        self.flow_id = f"poisson-{next(_flow_ids)}"
        self.packets_sent = 0
        self._timer = None
        self._mean_interval = packet_size * 8 / rate

    def start(self, at: float = 0.0) -> None:
        self._timer = self.sim.schedule(at, self._tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        packet = Packet(src=self.ip, dst=self.dst, size=self.packet_size,
                        protocol="UDP", src_port=40001, dst_port=5001,
                        flow_id=self.flow_id, qci=self.qci,
                        created_at=self.sim.now)
        self.send(self.out_port, packet)
        self.packets_sent += 1
        gap = self.rng.exponential(self._mean_interval)
        self._timer = self._timer.reschedule(gap)


class GreedySource(Node):
    """Closed-loop window-based sender (an iperf-TCP stand-in).

    Keeps ``window`` packets in flight; every acknowledgement (echoed
    packet arriving back) releases the next transmission, so the achieved
    rate converges to the bottleneck capacity of the path including any
    per-packet processing delays at intermediate data planes.  The far
    end must be a :class:`~repro.sim.node.PacketSink` with ``echo=True``.
    """

    def __init__(self, sim: "Simulator", name: str, dst: str,
                 packet_size: int = DEFAULT_PACKET_SIZE, window: int = 64,
                 port: str = "out", ip: Optional[str] = None,
                 qci: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None,
                 ctx: Optional["SimContext"] = None,
                 stream: Optional[str] = None,
                 ack_jitter: float = 0.0) -> None:
        super().__init__(sim, name, ip)
        if ack_jitter < 0:
            raise ValueError("ack_jitter must be non-negative")
        self.dst = dst
        self.packet_size = packet_size
        self.window = window
        self.out_port = port
        self.qci = qci
        # optional sender-side pacing jitter (models host scheduling
        # noise); with ack_jitter == 0 the source is fully deterministic
        # and never touches the stream
        self.rng = _resolve_rng(name, rng, ctx, stream)
        self.ack_jitter = ack_jitter
        if ack_jitter > 0 and self.rng is None:
            raise ValueError("ack_jitter requires a ctx or rng")
        self.flow_id = f"greedy-{next(_flow_ids)}"
        self.packets_sent = 0
        self.acks_received = 0
        self.bytes_acked = 0
        self.started_at: Optional[float] = None

    def start(self, at: float = 0.0) -> None:
        self.sim.post(at, self._launch)

    def _launch(self) -> None:
        self.started_at = self.sim.now
        for _ in range(self.window):
            self._send_one()

    def _send_one(self) -> None:
        packet = Packet(src=self.ip, dst=self.dst, size=self.packet_size,
                        protocol="TCP", src_port=40002, dst_port=5201,
                        flow_id=self.flow_id, qci=self.qci,
                        created_at=self.sim.now)
        self.send(self.out_port, packet)
        self.packets_sent += 1

    def on_receive(self, packet: Packet, link: "Link") -> None:
        self.acks_received += 1
        self.bytes_acked += packet.size
        if self.ack_jitter > 0:
            self.sim.post(float(self.rng.uniform(0.0, self.ack_jitter)),
                          self._send_one)
        else:
            self._send_one()

    def goodput(self, now: Optional[float] = None) -> float:
        """Acknowledged payload rate in bits/sec since start."""
        if self.started_at is None:
            return 0.0
        elapsed = (now if now is not None else self.sim.now) - self.started_at
        if elapsed <= 0:
            return 0.0
        return self.bytes_acked * 8 / elapsed
