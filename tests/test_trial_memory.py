"""A running trial keeps only what it reports.

Delivered packets, control messages and completed signalling transfers
must be freed by reference counting as soon as they are done: a sink
keeps counters, not packets; a procedure keeps per-protocol counters,
not its control messages; and a reliable signalling transfer leaves no
reference cycle for the cyclic collector once it is delivered or has
expired.
"""

import gc
import sys

from repro.epc.messages import ControlMessage
from repro.scenario import Scenario
from repro.scenario.runtime import ScenarioRun
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node, PacketSink
from repro.sim.packet import Packet


def lossy_attach_trial():
    """An attach storm under signalling loss with short timers and one
    retry: some transfers are delivered after a retransmission, others
    expire for good."""
    doc = {
        "scenario": {"name": "cycles", "version": 1, "description": "d"},
        "topology": {"sites": 1, "enbs_per_site": 1},
        "network": {"resilience": {"enabled": True, "max_retries": 1,
                                   "t3410": 0.5, "t3450": 0.5,
                                   "t3485": 0.5}},
        "traffic": {"ci": {"n_ues": 6, "path": "edge",
                           "ping_interval": 0.2}},
        "faults": [{"type": "channel_loss", "channel": "*", "rate": 0.2,
                    "at": 0.0, "until": 6.0}],
        "run": {"warmup": 5.0, "duration": 2.0, "tail": 1.0},
        "experiment": {"workload": "scenario", "seeds": [19]},
    }
    (trial,) = Scenario.from_dict(doc).compile().trials()
    return trial


def test_signalling_retries_leave_no_cyclic_garbage():
    trial = lossy_attach_trial()
    gc.collect()
    gc.disable()
    try:
        run = ScenarioRun(trial)
        for time, callback in run.milestones():
            run.sim.run(until=time)
            callback()
        # both ends of a transfer ran: delivery after a retransmission,
        # and expiry of the last attempt
        assert run.network.fabric.retransmissions > 0
        assert run.attach_outcomes.get("retried-ok", 0) > 0
        assert run.attach_outcomes.get("timeout", 0) > 0
        # the world is still held by ``run``: anything unreachable now
        # is a cycle the trial left behind while running
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_delivered_control_messages_are_not_kept():
    trial = lossy_attach_trial()
    gc.collect()
    gc.disable()
    try:
        run = ScenarioRun(trial)
        for time, callback in run.milestones():
            run.sim.run(until=time)
            callback()
        assert run.network.fabric.retransmissions > 0
        assert run.attach_outcomes.get("retried-ok", 0) > 0
        # ``run`` still holds the world, the attach results included.
        # With the collector off, a message still alive is either held
        # by that world or caught in a cycle; neither may happen.
        kept = [obj for obj in gc.get_objects()
                if isinstance(obj, ControlMessage)]
        assert len(kept) == 0, f"{len(kept)} delivered messages kept"
    finally:
        gc.enable()


def test_sink_keeps_no_reference_to_a_delivered_packet():
    sim = Simulator()
    src = Node(sim, "src", ip="10.0.0.1")
    sink = PacketSink(sim, "dst", ip="10.0.0.2")
    link = Link(sim, "l", bandwidth=1e6, delay=0.001)
    src.attach("out", link)
    sink.attach("in", link)
    sent = Packet(src="10.0.0.1", dst="10.0.0.2", size=100)
    unsent = Packet(src="10.0.0.1", dst="10.0.0.2", size=100)
    src.send("out", sent)
    sim.run()
    assert sink.rx_count == 1
    assert sink.bytes_received == sent.wire_size
    assert sys.getrefcount(sent) == sys.getrefcount(unsent)
