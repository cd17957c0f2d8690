"""Recorders that keep what the simulator only counts, for tests.

:class:`~repro.sim.node.PacketSink` keeps counters only.  Tests that
assert on the packets themselves, or on their arrival times, build a
:class:`RecordingSink` in its place.

The signalling fabric keeps no archive of delivered control messages
either.  Tests that assert on message sequences, names or delivery
timestamps attach a :class:`MessageRecorder` to the hook bus.
"""

from __future__ import annotations

from repro.epc.events import ControlMessageDelivered
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


class MessageRecorder:
    """Records every control message delivered from now on
    (``messages``, in delivery order, each stamped with its delivery
    time) by subscribing to :class:`ControlMessageDelivered` on
    ``hooks``."""

    def __init__(self, hooks) -> None:
        self.messages = []
        hooks.on(ControlMessageDelivered,
                 lambda event: self.messages.append(event.message))

    def __len__(self) -> int:
        return len(self.messages)
