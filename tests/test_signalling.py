"""Signalling-fabric tests: delivery-time stamping, monotonic delivery
order, channel contention and concurrent procedures."""

import pytest

from repro.core.config import NetworkConfig, SignallingConfig
from repro.core.network import MobileNetwork
from repro.epc.entities import ServicePolicy
from repro.epc.events import (ProcedureCompleted, ProcedureStarted,
                              UeIpAssigned)
from repro.epc.signalling import SignallingFabric
from repro.epc.messages import MessageType
from repro.sim.engine import SimulationError, Simulator
from tests.recording import MessageRecorder


def build(seed=0, **cfg):
    return MobileNetwork(NetworkConfig(seed=seed, **cfg))


# -- the fabric itself ----------------------------------------------------

def test_send_resolves_with_delivered_message():
    sim = Simulator()
    fabric = SignallingFabric(sim, SignallingConfig().transports())
    recorder = MessageRecorder(sim.hooks)
    fabric.open_channel("s1mme.enb0", "SCTP", ["enb0"], ["mme"])
    mtype = MessageType("SCTP", "Probe", 164)

    def proc():
        message = yield fabric.send(mtype, "enb0", "mme", imsi="001")
        return message

    message = sim.run_until_complete(sim.spawn(proc()))
    assert message.timestamp == sim.now > 0.0
    assert message.fields["imsi"] == "001"
    assert len(recorder) == 1
    assert recorder.messages[0] is message


def test_unknown_pair_gets_adhoc_channel():
    sim = Simulator()
    fabric = SignallingFabric(sim, SignallingConfig().transports())
    mtype = MessageType("X2AP", "HandoverRequest", 96)

    def proc():
        yield fabric.send(mtype, "enb0", "enb1")

    sim.run_until_complete(sim.spawn(proc()))
    assert "adhoc.X2AP.enb0.enb1" in fabric.channels


def test_future_settles_exactly_once():
    sim = Simulator()
    future = sim.future()
    future.resolve(1)
    with pytest.raises(SimulationError):
        future.resolve(2)


def test_deadlocked_wait_is_detected():
    sim = Simulator()

    def proc():
        yield sim.future()      # nobody will ever resolve this

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(sim.spawn(proc()))


# -- delivery-time stamping (the old code stamped every message of a
#    procedure with the same invocation-time sim.now) --------------------

def test_messages_stamped_at_distinct_delivery_times():
    network = build()
    recorder = MessageRecorder(network.hooks)
    ue = network.add_ue()
    result = ue.attach_result
    assert len(recorder) == result.message_count
    stamps = [m.timestamp for m in recorder.messages]
    assert len(set(stamps)) == len(stamps), \
        "each message must carry its own delivery time"
    assert stamps == sorted(stamps)
    assert result.started_at < stamps[0] < stamps[-1] == result.completed_at
    assert result.elapsed == pytest.approx(
        result.completed_at - result.started_at)


def test_ledger_timestamps_are_monotonic():
    """Delivery events come in delivery order, even with procedures in
    flight concurrently -- timestamps never step backwards."""
    network = build()
    recorder = MessageRecorder(network.hooks)
    network.add_mec_site("mec")
    network.add_server("ci", site_name="mec")
    network.pcrf.configure(ServicePolicy(service_id="svc", qci=3))
    server_ip = network.servers["ci"].ip

    attaches = [network.add_ue_async() for _ in range(10)]
    network.sim.run()
    ues = [p.value for p in attaches]
    procs = [network.control_plane.activate_dedicated_bearer_async(
        ue, "svc", server_ip, "mec") for ue in ues]
    network.sim.run()
    assert all(p.finished and p.error is None for p in procs)

    stamps = [m.timestamp for m in recorder.messages]
    assert stamps, "the storm must have recorded messages"
    assert all(a <= b for a, b in zip(stamps, stamps[1:]))


# -- measured latency and contention -------------------------------------

def test_lone_attach_latency_in_calibrated_band():
    network = build()
    ue = network.add_ue()
    assert 0.03 < ue.attach_result.elapsed < 0.1


def test_concurrent_attaches_contend_on_shared_channels():
    """Two UEs attaching at once on one cell serialise on the shared
    RRC channel: each takes longer than a lone attach."""
    lone = build(seed=1)
    lone_elapsed = lone.add_ue().attach_result.elapsed

    busy = build(seed=1)
    procs = [busy.add_ue_async() for _ in range(8)]
    busy.sim.run()
    elapsed = [p.value.attach_result.elapsed for p in procs]
    assert max(elapsed) > lone_elapsed
    # and everyone still completes in bounded time
    assert all(e < 1.0 for e in elapsed)


def test_ip_assignment_reaches_only_its_own_attach():
    """Each pending attach subscribes to UeIpAssigned keyed by its UE:
    in a 50-UE concurrent storm every assignment calls exactly one
    attach handler, not one per attach still in flight."""
    network = build(seed=2)
    hooks = network.sim.hooks
    emit = hooks.emit
    served = []

    def counting_emit(event):
        count = emit(event)
        if isinstance(event, UeIpAssigned):
            served.append(count)
        return count

    hooks.emit = counting_emit
    procs = [network.add_ue_async() for _ in range(50)]
    network.sim.run()
    assert all(p.finished and p.value.attached for p in procs)
    assert served == [1] * 50


def test_service_request_dedup_shares_one_procedure():
    network = build()
    ue = network.add_ue()
    cp = network.control_plane
    cp.release_to_idle(ue)
    first = cp.service_request_async(ue)
    second = cp.service_request_async(ue)
    assert first is second
    result = network.sim.run_until_complete(first)
    assert result.name == "service-request"
    # once finished, a new request starts a fresh (noop) procedure
    assert cp.service_request(ue).name == "service-request(noop)"


def test_procedure_phase_events_emitted():
    network = build()
    started, completed = [], []
    network.hooks.on(ProcedureStarted, started.append)
    network.hooks.on(ProcedureCompleted, completed.append)
    ue = network.add_ue()
    assert [e.name for e in started] == ["attach"]
    assert [e.name for e in completed] == ["attach"]
    assert completed[0].result.elapsed > 0.0
    assert started[0].time == completed[0].result.started_at


def test_entities_count_delivered_messages():
    network = build()
    recorder = MessageRecorder(network.hooks)
    network.add_ue()
    assert network.mme.messages_received > 0
    assert network.sgwc.messages_received > 0
    assert network.pgwc.messages_received > 0
    assert network.enb.messages_received > 0
    assert network.mme.messages_received == sum(
        m.receiver == network.mme.name for m in recorder.messages)


def test_signalling_config_is_threaded():
    """A slower RRC air interface stretches attach latency."""
    fast = build(seed=2)
    slow = MobileNetwork(NetworkConfig(
        seed=2, signalling=SignallingConfig(rrc_delay=0.05)))
    fast_elapsed = fast.add_ue().attach_result.elapsed
    slow_elapsed = slow.add_ue().attach_result.elapsed
    assert slow_elapsed > fast_elapsed + 0.2     # 5 RRC legs * ~42 ms extra
