"""Unit tests for the SDN controller."""

import pytest

from repro.core.config import SignallingConfig
from repro.epc.signalling import RetryPolicy, SignallingFabric
from repro.sdn.controller import SdnController
from repro.sdn.openflow import FlowMatch, FlowRule, Output
from repro.sdn.switch import FlowSwitch
from repro.sim.engine import Simulator
from tests.recording import MessageRecorder


def build():
    sim = Simulator()
    recorder = MessageRecorder(sim.hooks)
    controller = SdnController()
    switch = FlowSwitch(sim, "sgw-u.central", ip="172.16.0.1")
    controller.register(switch)
    fabric = SignallingFabric(sim, SignallingConfig().transports())
    controller.bind_fabric(fabric, RetryPolicy())
    return sim, controller, switch, recorder


def rule(cookie=""):
    return FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")],
                    cookie=cookie)


def test_install_adds_rule_and_records_message():
    sim, controller, switch, recorder = build()
    future = controller.install_rule("sgw-u.central", rule())
    assert switch.table == []             # applied at delivery, not before
    sim.run()
    assert future.done
    assert len(switch.table) == 1
    assert len(recorder) == 1
    assert recorder.messages[0] is future.value
    assert recorder.messages[0].protocol == "OpenFlow"
    assert recorder.messages[0].size == 368


def test_remove_records_delete_message():
    sim, controller, switch, recorder = build()
    controller.install_rule("sgw-u.central", rule(cookie="c"))
    sim.run()
    assert len(switch.table) == 1
    controller.remove_rules("sgw-u.central", "c")
    sim.run()
    assert switch.table == []
    assert recorder.messages[-1].size == 344
    assert "delete" in recorder.messages[-1].name


def test_unknown_switch_raises():
    _, controller, _, _ = build()
    with pytest.raises(KeyError):
        controller.install_rule("nope", rule())


def test_flow_mod_counter():
    sim, controller, _, _ = build()
    futures = controller.apply_batch([
        ("add", "sgw-u.central", rule(cookie="a")),
        ("add", "sgw-u.central", rule(cookie="b")),
    ])
    controller.remove_rules("sgw-u.central", "a")
    sim.run()
    assert all(future.done for future in futures)
    assert controller.flow_mods_sent == 3
