"""A Reno-lite congestion-controlled transport.

The paper's background loads and data-plane tests are iperf *TCP*
flows; :class:`~repro.sim.traffic.GreedySource` models only the steady
state (a fixed window).  This module adds the dynamics: slow start,
congestion avoidance (AIMD), retransmission timeouts with exponential
backoff, and an RTT estimator -- enough for flows to probe for
bandwidth, back off on queue drops and share a bottleneck.

The receiver side is :class:`TcpSink`, which acknowledges every data
packet individually (SACK-like semantics: the sender tracks per-segment
delivery, so reordering does not confuse it).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from repro.sim.node import Node
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

_flow_ids = itertools.count(1)

#: Initial retransmission timeout (seconds) before an RTT sample exists.
INITIAL_RTO = 1.0
#: Linux-style RTO floor: prevents spurious timeouts while slow start
#: inflates the queueing delay faster than the estimator adapts.
MIN_RTO = 0.2
MAX_RTO = 8.0
#: SACK-style loss inference: a segment is presumed lost once this many
#: later segments have been acknowledged.
DUP_THRESHOLD = 3


class TcpSource(Node):
    """Reno-lite sender."""

    def __init__(self, sim: "Simulator", name: str, dst: str,
                 packet_size: int = 1400, port: str = "out",
                 ip: Optional[str] = None, qci: Optional[int] = None,
                 initial_cwnd: float = 2.0,
                 max_cwnd: float = 512.0,
                 total_packets: Optional[int] = None) -> None:
        super().__init__(sim, name, ip)
        self.dst = dst
        self.packet_size = packet_size
        self.out_port = port
        self.qci = qci
        self.flow_id = f"tcp-{next(_flow_ids)}"
        self.total_packets = total_packets
        # congestion state
        self.cwnd = initial_cwnd            # in packets (fractional ok)
        self.ssthresh = max_cwnd
        self.max_cwnd = max_cwnd
        # sequence bookkeeping
        self._next_seq = 0
        self._inflight: dict[int, float] = {}       # seq -> send time
        self._timers: dict[int, object] = {}        # seq -> Event
        self._delivered: set[int] = set()
        self._retransmitted: set[int] = set()       # Karn's algorithm
        self._dup_counts: dict[int, int] = {}
        self._last_decrease = -1.0
        # RTT estimation (Jacobson/Karels)
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        # stats
        self.packets_sent = 0
        self.retransmits = 0
        self.timeouts = 0
        self.bytes_acked = 0
        self.started_at: Optional[float] = None
        self.cwnd_trace: list[tuple[float, float]] = []

    # -- control -----------------------------------------------------------

    def start(self, at: float = 0.0) -> None:
        self.sim.post(at, self._launch)

    def _launch(self) -> None:
        self.started_at = self.sim.now
        self._fill_window()

    def stop(self) -> None:
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        self.total_packets = self.packets_sent    # no new segments

    # -- sending --------------------------------------------------------------

    def _window_room(self) -> bool:
        return len(self._inflight) < int(self.cwnd)

    def _done_sending(self) -> bool:
        return (self.total_packets is not None
                and self._next_seq >= self.total_packets)

    def _fill_window(self) -> None:
        while self._window_room() and not self._done_sending():
            self._send_segment(self._next_seq)
            self._next_seq += 1

    def _send_segment(self, seq: int, retransmit: bool = False) -> None:
        packet = Packet(src=self.ip, dst=self.dst, size=self.packet_size,
                        protocol="TCP", src_port=46000, dst_port=5201,
                        flow_id=self.flow_id, qci=self.qci,
                        created_at=self.sim.now,
                        meta={"seq": seq})
        self._inflight[seq] = self.sim.now
        old = self._timers.pop(seq, None)
        if old is not None:
            old.cancel()
        self._timers[seq] = self.sim.schedule(self.rto, self._on_timeout,
                                              seq)
        self.packets_sent += 1
        if retransmit:
            self.retransmits += 1
            self._retransmitted.add(seq)
        self.send(self.out_port, packet)

    # -- receiving acks ----------------------------------------------------------

    def on_receive(self, packet: Packet, link: "Link") -> None:
        seq = packet.meta.get("ack")
        if seq is None or seq in self._delivered:
            return
        sent_at = self._inflight.pop(seq, None)
        timer = self._timers.pop(seq, None)
        if timer is not None:
            timer.cancel()
        self._delivered.add(seq)
        self._dup_counts.pop(seq, None)
        self.bytes_acked += self.packet_size
        if sent_at is not None and seq not in self._retransmitted:
            # Karn: never sample RTT from a retransmitted segment
            self._update_rtt(self.sim.now - sent_at)
        self._grow_window()
        self._detect_losses(seq)
        self._fill_window()

    def _detect_losses(self, acked_seq: int) -> None:
        """SACK-style inference: segments overtaken by DUP_THRESHOLD
        later acks are retransmitted without waiting for the RTO."""
        for seq in list(self._inflight):
            if seq >= acked_seq:
                continue
            count = self._dup_counts.get(seq, 0) + 1
            self._dup_counts[seq] = count
            if count >= DUP_THRESHOLD:
                self._fast_retransmit(seq)

    def _fast_retransmit(self, seq: int) -> None:
        self._dup_counts.pop(seq, None)
        if seq not in self._inflight:
            return
        # multiplicative decrease, at most once per RTT (Reno-style)
        now = self.sim.now
        rtt = self.srtt if self.srtt is not None else self.rto
        if now - self._last_decrease > rtt:
            self.ssthresh = max(2.0, self.cwnd / 2)
            self.cwnd = self.ssthresh
            self._last_decrease = now
            self.cwnd_trace.append((now, self.cwnd))
        del self._inflight[seq]
        self._send_segment(seq, retransmit=True)

    def _update_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = float(min(MAX_RTO, max(MIN_RTO,
                                          self.srtt + 4 * self.rttvar)))

    def _grow_window(self) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.max_cwnd, self.cwnd + 1.0)   # slow start
        else:
            self.cwnd = min(self.max_cwnd,
                            self.cwnd + 1.0 / max(self.cwnd, 1.0))
        self.cwnd_trace.append((self.sim.now, self.cwnd))

    # -- loss ---------------------------------------------------------------------

    def _on_timeout(self, seq: int) -> None:
        if seq in self._delivered or seq not in self._inflight:
            return
        self.timeouts += 1
        # multiplicative decrease + slow-start restart (Tahoe-style)
        self.ssthresh = max(2.0, self.cwnd / 2)
        self.cwnd = 1.0
        self.cwnd_trace.append((self.sim.now, self.cwnd))
        self.rto = float(min(MAX_RTO, self.rto * 2))    # backoff
        del self._inflight[seq]
        self._send_segment(seq, retransmit=True)

    # -- stats -----------------------------------------------------------------------

    @property
    def delivered_packets(self) -> int:
        return len(self._delivered)

    def goodput(self, now: Optional[float] = None) -> float:
        if self.started_at is None:
            return 0.0
        elapsed = (now if now is not None else self.sim.now) - self.started_at
        if elapsed <= 0:
            return 0.0
        return self.bytes_acked * 8 / elapsed

    @property
    def complete(self) -> bool:
        return (self.total_packets is not None
                and self.delivered_packets >= self.total_packets)


class TcpSink(Node):
    """Acknowledges every received data segment."""

    def __init__(self, sim: "Simulator", name: str,
                 ip: Optional[str] = None, ack_size: int = 40) -> None:
        super().__init__(sim, name, ip)
        self.ack_size = ack_size
        self.received_seqs: set[int] = set()
        self.bytes_received = 0

    def on_receive(self, packet: Packet, link: "Link") -> None:
        seq = packet.meta.get("seq")
        if seq is None:
            return
        self.received_seqs.add(seq)
        self.bytes_received += packet.size
        ack = Packet(src=self.ip, dst=packet.src, size=self.ack_size,
                     protocol="TCP", src_port=packet.dst_port,
                     dst_port=packet.src_port, flow_id=packet.flow_id,
                     qci=packet.qci, created_at=self.sim.now,
                     meta={"ack": seq})
        port = self.port_for_link(link)
        if port is not None:
            self.send(port, ack)
