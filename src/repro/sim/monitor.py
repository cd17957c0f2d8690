"""Measurement probes: latency samples, throughput windows, flow stats."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sim.hooks import PacketDropped, Subscription

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.packet import Packet


@dataclass
class FlowStats:
    """Per-flow counters accumulated by probes."""

    packets: int = 0
    bytes: int = 0
    drops: int = 0
    latencies: list[float] = field(default_factory=list)

    def record(self, packet: "Packet", now: float) -> None:
        self.packets += 1
        self.bytes += packet.wire_size
        self.latencies.append(now - packet.created_at)

    @property
    def loss_rate(self) -> float:
        total = self.packets + self.drops
        return self.drops / total if total else 0.0

    @property
    def mean_latency(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.latencies, q)) if self.latencies else 0.0


class LatencyProbe:
    """Collects one-way (or round-trip) delay samples keyed by flow id.

    Attach via a sink's ``on_packet`` callback:

    >>> probe = LatencyProbe(sim)
    >>> sink = PacketSink(sim, "sink", on_packet=probe)   # doctest: +SKIP

    Packets dropped mid-flight never reach the sink, so latency
    samples alone under-report: call :meth:`watch_drops` to also count
    per-flow ``drops`` (and per-reason totals in ``lost_reasons``) off
    the bus's :class:`~repro.sim.hooks.PacketDropped` events.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.flows: dict[str, FlowStats] = {}
        self.samples = 0
        self.lost = 0
        self.lost_reasons: dict[str, int] = {}
        self._drop_subscription: Optional[Subscription] = None

    def __call__(self, packet: "Packet") -> None:
        stats = self.flows.setdefault(packet.flow_id, FlowStats())
        stats.record(packet, self.sim.now)
        self.samples += 1

    def watch_drops(self):
        """Also count :class:`PacketDropped` events, keyed by flow.

        Returns ``self`` so it chains with the constructor.
        """
        if self._drop_subscription is not None:
            raise RuntimeError(f"{type(self).__name__} already watches drops")
        self._drop_subscription = self.sim.hooks.on(PacketDropped,
                                                    self._on_dropped)
        return self

    def _on_dropped(self, event: PacketDropped) -> None:
        # a synthesized aggregate drop (fluid data plane) stands in for
        # many packets; its weight rides in the packet metadata
        count = event.packet.meta.get("fluid_packets", 1)
        stats = self.flows.setdefault(event.packet.flow_id, FlowStats())
        stats.drops += count
        self.lost += count
        self.lost_reasons[event.reason] = \
            self.lost_reasons.get(event.reason, 0) + count

    def close(self) -> None:
        """Stop counting drops.  Idempotent; direct callers are unaffected."""
        if self._drop_subscription is not None:
            self._drop_subscription.close()
            self._drop_subscription = None

    def all_latencies(self) -> list[float]:
        samples: list[float] = []
        for stats in self.flows.values():
            samples.extend(stats.latencies)
        return samples

    def flow(self, flow_id: str) -> FlowStats:
        return self.flows.setdefault(flow_id, FlowStats())


class ThroughputMeter:
    """Windowed throughput series measured at a sink.

    Call :meth:`observe` for every delivered packet (or pass the meter
    as a sink's ``on_packet`` callback); :meth:`series` returns
    `(window_start_times, bits_per_second)` arrays, the exact shape
    plotted in Figure 8.

    All statistics are maintained incrementally -- one dict update and
    two counter adds per packet, never a scan over the recorded series
    -- so the meter stays O(1) per packet at flood rates, and
    :meth:`mean_throughput` only touches the skipped warm-up windows.
    """

    def __init__(self, sim, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.sim = sim
        self.window = window
        self.total_bytes = 0
        self.total_packets = 0
        self._buckets: dict[int, float] = {}
        self._last_bucket = -1

    def observe(self, packet: "Packet") -> None:
        bucket = int(self.sim.now / self.window)
        buckets = self._buckets
        buckets[bucket] = buckets.get(bucket, 0) + packet.size
        if bucket > self._last_bucket:
            self._last_bucket = bucket
        self.total_bytes += packet.size
        self.total_packets += 1

    def __call__(self, packet: "Packet") -> None:
        self.observe(packet)

    def series(self) -> tuple[np.ndarray, np.ndarray]:
        if self._last_bucket < 0:
            return np.array([]), np.array([])
        last = self._last_bucket
        times = np.arange(0, last + 1) * self.window
        bps = np.array([self._buckets.get(i, 0) * 8 / self.window
                        for i in range(last + 1)], dtype=float)
        return times, bps

    def mean_throughput(self, skip_first: int = 1) -> float:
        """Mean bits/sec over the series, skipping warm-up windows.

        Computed from the running totals minus the skipped windows:
        O(``skip_first``), not O(series length).
        """
        last = self._last_bucket
        if last < 0:
            return 0.0
        windows = last + 1
        if windows <= skip_first:
            return self.total_bytes * 8 / self.window / windows
        buckets = self._buckets
        skipped = sum(buckets.get(i, 0) for i in range(skip_first))
        return ((self.total_bytes - skipped) * 8 / self.window
                / (windows - skip_first))
