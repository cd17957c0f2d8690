"""Measurement probes: latency samples, throughput windows, flow stats."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sim.hooks import PacketDelivered, PacketDropped, Subscription

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Event
    from repro.sim.node import Node
    from repro.sim.packet import Packet


class _BusProbe:
    """Shared subscription plumbing for the measurement probes.

    A probe can be driven two ways: directly (pass it as a sink's
    ``on_packet`` callback) or by subscribing it to the simulation's
    hook bus with :meth:`subscribe`, optionally filtered to one node.
    ``close()`` detaches the subscription either way.

    Probes can also self-sample on a period: :meth:`start_polling` arms
    a repeating timer (the timer event is re-armed in place each poll,
    so it re-arms without allocating) and
    appends one :meth:`snapshot` dict to :attr:`polls` per interval.
    """

    def __init__(self) -> None:
        self._subscription: Optional[Subscription] = None
        self._node_filter: Optional["Node"] = None
        self.poll_interval: Optional[float] = None
        self.polls: list[dict] = []
        self._poll_event: Optional["Event"] = None

    def subscribe(self, node: Optional["Node"] = None):
        """Observe :class:`PacketDelivered` events on the sim's bus.

        ``node`` restricts the probe to packets delivered at that node.
        Returns ``self`` so construction and wiring chain naturally.
        """
        if self._subscription is not None:
            raise RuntimeError(f"{type(self).__name__} is already subscribed")
        self._node_filter = node
        self._subscription = self.sim.hooks.on(PacketDelivered,
                                               self._on_delivered)
        return self

    def _on_delivered(self, event: PacketDelivered) -> None:
        if self._node_filter is not None and event.node is not self._node_filter:
            return
        self(event.packet)

    # -- periodic self-sampling -------------------------------------------

    def start_polling(self, interval: float):
        """Record a :meth:`snapshot` every ``interval`` simulated seconds.

        Returns ``self`` so it chains with :meth:`subscribe`.
        """
        if interval <= 0:
            raise ValueError("poll interval must be positive")
        if self._poll_event is not None:
            raise RuntimeError(f"{type(self).__name__} is already polling")
        self.poll_interval = interval
        self._poll_event = self.sim.schedule(interval, self._poll)
        return self

    def _poll(self) -> None:
        self.polls.append(self.snapshot())
        self._poll_event = self._poll_event.reschedule(self.poll_interval)

    def snapshot(self) -> dict:
        """One poll sample; subclasses override with their counters."""
        return {"t": self.sim.now}

    def close(self) -> None:
        """Stop observing.  Idempotent; direct callers are unaffected."""
        if self._subscription is not None:
            self._subscription.close()
            self._subscription = None
        if self._poll_event is not None:
            self._poll_event.cancel()
            self._poll_event = None


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


class LatencyProbe(_BusProbe):
    """Collects one-way (or round-trip) delay samples keyed by flow id.

    Attach via a sink's ``on_packet`` callback:

    >>> probe = LatencyProbe(sim)
    >>> sink = PacketSink(sim, "sink", on_packet=probe)   # doctest: +SKIP

    or observe the whole simulation through the hook bus:

    >>> probe = LatencyProbe(sim).subscribe(node=sink)    # doctest: +SKIP

    Packets dropped mid-flight never reach the sink, so latency
    samples alone under-report: call :meth:`watch_drops` to also count
    per-flow ``drops`` (and per-reason totals in ``lost_reasons``) off
    the bus's :class:`~repro.sim.hooks.PacketDropped` events.
    """

    def __init__(self, sim) -> None:
        super().__init__()
        self.sim = sim
        self.flows: dict[str, FlowStats] = {}
        self.samples = 0
        self.lost = 0
        self.lost_reasons: dict[str, int] = {}
        self._drop_subscription: Optional[Subscription] = None
        # flow_id -> (packets folded, bytes folded) for fluid flows
        self._fluid_marks: dict[str, tuple[int, int]] = {}

    def __call__(self, packet: "Packet") -> None:
        stats = self.flows.setdefault(packet.flow_id, FlowStats())
        stats.record(packet, self.sim.now)
        self.samples += 1

    def watch_drops(self):
        """Also count :class:`PacketDropped` events, keyed by flow.

        Returns ``self`` so it chains with :meth:`subscribe`.
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

    def fold_fluid(self, flow) -> None:
        """Fold a :class:`~repro.sim.fluid.FluidFlow`'s byte counters
        into its :class:`FlowStats`.

        Incremental and idempotent: each call adds only the packets and
        bytes delivered since the previous fold.  Fluid flows carry no
        per-packet timestamps, so they contribute no latency samples;
        their drops arrive as aggregate
        :class:`~repro.sim.hooks.PacketDropped` events and are counted
        by :meth:`watch_drops` like any other drop.
        """
        flow.sync()
        stats = self.flows.setdefault(flow.flow_id, FlowStats())
        prev_packets, prev_bytes = self._fluid_marks.get(flow.flow_id,
                                                         (0, 0))
        packets = flow.packets_delivered
        delivered = int(flow.bytes_delivered)
        stats.packets += packets - prev_packets
        stats.bytes += delivered - prev_bytes
        self.samples += packets - prev_packets
        self._fluid_marks[flow.flow_id] = (packets, delivered)

    def snapshot(self) -> dict:
        """Per-poll counters (cheap: no per-flow scan)."""
        return {"t": self.sim.now, "samples": self.samples,
                "lost": self.lost}

    def close(self) -> None:
        super().close()
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


class ThroughputMeter(_BusProbe):
    """Windowed throughput series measured at a sink.

    Call :meth:`observe` for every delivered packet (directly or via
    :meth:`subscribe`); :meth:`series` returns
    `(window_start_times, bits_per_second)` arrays, the exact shape
    plotted in Figure 8.

    All statistics are maintained incrementally -- one dict update and
    two counter adds per packet, never a scan over the recorded series
    -- so the meter stays O(1) per packet at flood rates, and
    :meth:`mean_throughput` only touches the skipped warm-up windows.
    """

    def __init__(self, sim, window: float = 1.0) -> None:
        super().__init__()
        if window <= 0:
            raise ValueError("window must be positive")
        self.sim = sim
        self.window = window
        self.total_bytes = 0
        self.total_packets = 0
        self._buckets: dict[int, float] = {}
        self._last_bucket = -1
        # flow_id -> (checkpoints consumed, packets folded) per flow
        self._fluid_marks: dict[str, tuple[int, int]] = {}

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

    def fold_fluid(self, flow) -> None:
        """Fold a :class:`~repro.sim.fluid.FluidFlow`'s deliveries into
        the windowed series.

        A fluid flow's delivery is piecewise linear between its solve
        checkpoints; each segment's bytes are spread across the windows
        it overlaps, so :meth:`series` and :meth:`mean_throughput` show
        the same curve a per-packet sink would have produced (bucket
        totals become floats).  Incremental and idempotent: each call
        consumes only checkpoints recorded since the previous fold.
        """
        flow.sync()
        points = flow.delivery_checkpoints()
        idx, folded_packets = self._fluid_marks.get(flow.flow_id, (1, 0))
        window = self.window
        buckets = self._buckets
        for i in range(max(idx, 1), len(points)):
            t0, b0 = points[i - 1]
            t1, b1 = points[i]
            seg_bytes = b1 - b0
            if seg_bytes <= 0.0 or t1 <= t0:
                continue
            for w in range(int(t0 / window), int(t1 / window) + 1):
                lo = max(t0, w * window)
                hi = min(t1, (w + 1) * window)
                if hi <= lo:
                    continue
                buckets[w] = (buckets.get(w, 0)
                              + seg_bytes * (hi - lo) / (t1 - t0))
                if w > self._last_bucket:
                    self._last_bucket = w
            self.total_bytes += seg_bytes
        packets = flow.packets_delivered
        self.total_packets += packets - folded_packets
        self._fluid_marks[flow.flow_id] = (max(len(points), 1), packets)

    def snapshot(self) -> dict:
        """Per-poll totals (incremental counters, no series rebuild)."""
        return {"t": self.sim.now, "bytes": self.total_bytes,
                "packets": self.total_packets}

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
