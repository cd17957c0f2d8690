"""A packet sink that keeps what it received, for tests.

:class:`~repro.sim.node.PacketSink` keeps counters only.  Tests that
assert on the packets themselves, or on their arrival times, build a
:class:`RecordingSink` in its place.
"""

from __future__ import annotations

from repro.sim.node import PacketSink


class RecordingSink(PacketSink):
    """A :class:`PacketSink` that also records every packet it receives
    (``received``) and the simulated time it arrived (``arrival_times``)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.received = []
        self.arrival_times = []

    def on_receive(self, packet, link) -> None:
        self.received.append(packet)
        self.arrival_times.append(self.sim.now)
        super().on_receive(packet, link)

