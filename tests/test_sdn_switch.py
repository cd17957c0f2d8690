"""Unit tests for the flow switch: forwarding, fast path, CPU costs,
and the hash-indexed table against a linear-scan oracle."""

import random

import pytest

from repro.epc.gtp import gtp_encapsulate, gtp_teid, is_gtp
from repro.sdn.dataplane import (ACACIA_OVS_PROFILE, IDEAL_PROFILE,
                                 OPENEPC_USERSPACE_PROFILE, DataPlaneProfile)
from repro.sdn.openflow import FlowMatch, FlowRule, GtpDecap, GtpEncap, Output
from repro.sdn.switch import FlowSwitch
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import PacketSink
from repro.sim.packet import Packet


def build(profile=IDEAL_PROFILE):
    sim = Simulator()
    src = PacketSink(sim, "src", ip="10.0.0.1")
    switch = FlowSwitch(sim, "sw", profile=profile, ip="172.16.0.1")
    dst = PacketSink(sim, "dst", ip="10.0.0.2")
    l_in = Link(sim, "in", bandwidth=1e9, delay=0.0)
    l_out = Link(sim, "out", bandwidth=1e9, delay=0.0)
    src.attach("p", l_in)
    switch.attach("in", l_in)
    switch.attach("out", l_out)
    dst.attach("p", l_out)
    return sim, src, switch, dst


def pkt(dst="10.0.0.2", **kw):
    defaults = dict(src="10.0.0.1", dst=dst, size=1000, protocol="UDP",
                    src_port=1, dst_port=2)
    defaults.update(kw)
    return Packet(**defaults)


def test_forwarding_with_matching_rule():
    sim, src, switch, dst = build()
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")]))
    src.send("p", pkt())
    sim.run()
    assert len(dst.received) == 1


def test_table_miss_drops():
    sim, src, switch, dst = build()
    switch.install(FlowRule(FlowMatch(dst_ip="1.1.1.1"), [Output("out")]))
    src.send("p", pkt())
    sim.run()
    assert dst.received == []
    assert switch.table_misses == 1


def test_priority_selects_rule():
    sim, src, switch, dst = build()
    switch.install(FlowRule(FlowMatch(), [Output("in")], priority=10,
                            cookie="low"))
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")],
                            priority=200, cookie="high"))
    src.send("p", pkt())
    sim.run()
    assert len(dst.received) == 1


def test_gtp_decap_encap_chain():
    sim, src, switch, dst = build()
    switch.install(FlowRule(
        FlowMatch(teid=0x10),
        [GtpDecap(), GtpEncap(0x20, "172.16.0.1", "172.16.0.2"),
         Output("out")]))
    packet = gtp_encapsulate(pkt(), 0x10, "192.168.1.1", "172.16.0.1")
    src.send("p", packet)
    sim.run()
    assert len(dst.received) == 1
    out = dst.received[0]
    assert is_gtp(out)
    assert gtp_teid(out) == 0x20


def test_remove_by_cookie():
    sim, src, switch, dst = build()
    switch.install(FlowRule(FlowMatch(), [Output("out")], cookie="x"))
    removed = switch.remove("x")
    assert len(removed) == 1
    src.send("p", pkt())
    sim.run()
    assert switch.table_misses == 1


def test_fast_path_cache_hit_counting():
    sim, src, switch, dst = build(profile=ACACIA_OVS_PROFILE)
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")]))
    for _ in range(5):
        src.send("p", pkt())
    sim.run()
    assert switch.slow_path_hits == 1
    assert switch.fast_path_hits == 4
    assert len(dst.received) == 5


def test_no_fast_path_profile_always_slow():
    sim, src, switch, dst = build(profile=OPENEPC_USERSPACE_PROFILE)
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")]))
    for _ in range(5):
        src.send("p", pkt())
    sim.run()
    assert switch.slow_path_hits == 5
    assert switch.fast_path_hits == 0


def test_cpu_serialisation_caps_throughput():
    """With a 100us per-packet cost, 10 packets take ~1ms to process."""
    profile = DataPlaneProfile("slow", slow_path_cost=100e-6,
                               fast_path_cost=100e-6, has_fast_path=False)
    sim, src, switch, dst = build(profile=profile)
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")]))
    for _ in range(10):
        src.send("p", pkt())
    sim.run()
    assert len(dst.received) == 10
    # 10 packets * 100us CPU each, serialized
    assert sim.now == pytest.approx(10 * 100e-6, rel=0.1)


def test_install_invalidates_cache():
    sim, src, switch, dst = build(profile=ACACIA_OVS_PROFILE)
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")],
                            priority=10))
    src.send("p", pkt())
    sim.run()
    # higher-priority rule shadows the old one; cache must not bypass it
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("in")],
                            priority=500))
    src.send("p", pkt())
    sim.run()
    assert len(dst.received) == 1   # second packet went elsewhere


def test_ideal_profile_forwards_inline():
    sim, src, switch, dst = build(profile=IDEAL_PROFILE)
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")]))
    src.send("p", pkt())
    sim.run()
    # only link serialization (2 hops at 1 Gbps, 1000B) contributes
    assert sim.now == pytest.approx(2 * 8000 / 1e9, rel=0.01)


# -- hash index against a linear scan ----------------------------------------

class LinearTable:
    """Oracle: a linear-scan classifier over a priority-sorted list, with
    the switch's fast-path cache model and hit, slow-path and miss
    counters."""

    def __init__(self, has_fast_path):
        self.has_fast_path = has_fast_path
        self.table = []
        self.cache = {}
        self.fast_path_hits = self.slow_path_hits = self.table_misses = 0

    def install(self, rule):
        key = (rule.cookie, rule.priority, rule.match.describe())
        self.table = [r for r in self.table
                      if (r.cookie, r.priority, r.match.describe()) != key]
        self.table.append(rule)
        self.table.sort(key=lambda r: -r.priority)
        self.cache.clear()

    def remove(self, cookie):
        removed = [r for r in self.table if r.cookie == cookie]
        self.table = [r for r in self.table if r.cookie != cookie]
        self.cache.clear()
        return removed

    def lookup(self, packet):
        for rule in self.table:
            if rule.match.matches(packet):
                return rule
        return None

    def receive(self, packet):
        key = (gtp_teid(packet),) + packet.five_tuple
        if key in self.cache:
            self.fast_path_hits += 1
            return
        rule = self.lookup(packet)
        if rule is None:
            self.table_misses += 1
            return
        self.slow_path_hits += 1
        if self.has_fast_path:
            self.cache[key] = rule


IPS = ["10.0.0.1", "10.0.0.2", "10.0.0.3", "8.8.8.8"]
TEIDS = [0x10, 0x11, 0x12]
PRIORITIES = [10, 100, 100, 200]
COOKIES = ["a", "b", "c", "d", "e", "f"]


def random_match(rng):
    kind = rng.choices(["teid", "teid+dst", "dst", "src", "src+dst",
                        "five-tuple", "wildcard", "wildcard+port"],
                       weights=[3, 2, 3, 2, 2, 3, 1, 1])[0]
    if kind == "teid":
        return FlowMatch(teid=rng.choice(TEIDS))
    if kind == "teid+dst":
        return FlowMatch(teid=rng.choice(TEIDS), dst_ip=rng.choice(IPS))
    if kind == "dst":
        return FlowMatch(dst_ip=rng.choice(IPS))
    if kind == "src":
        return FlowMatch(src_ip=rng.choice(IPS))
    if kind == "src+dst":
        return FlowMatch(src_ip=rng.choice(IPS), dst_ip=rng.choice(IPS))
    if kind == "five-tuple":
        return FlowMatch(src_ip=rng.choice(IPS), dst_ip=rng.choice(IPS),
                         protocol=rng.choice(["UDP", "TCP"]),
                         src_port=rng.choice([1, 2]),
                         dst_port=rng.choice([2, 80]))
    if kind == "wildcard+port":
        return FlowMatch(protocol="TCP", dst_port=rng.choice([2, 80]))
    return FlowMatch()


def random_rule(rng):
    return FlowRule(random_match(rng), [Output(rng.choice(["p0", "p1"]))],
                    priority=rng.choice(PRIORITIES),
                    cookie=rng.choice(COOKIES))


def random_packet(rng):
    packet = Packet(src=rng.choice(IPS), dst=rng.choice(IPS), size=100,
                    protocol=rng.choice(["UDP", "TCP"]),
                    src_port=rng.choice([1, 2]),
                    dst_port=rng.choice([2, 80]))
    if rng.random() < 0.5:
        gtp_encapsulate(packet, rng.choice(TEIDS + [0x99]),
                        "192.168.0.1", "172.16.0.1")
    return packet


def build_pair(sim, name, profile):
    """A switch whose two output ports lead to sinks, and its oracle."""
    switch = FlowSwitch(sim, name, profile=profile)
    for port in ("p0", "p1"):
        link = Link(sim, f"{name}-{port}", bandwidth=1e9, delay=0.0)
        switch.attach(port, link)
        PacketSink(sim, f"{name}-{port}-sink").attach("in", link)
    return switch, LinearTable(profile.has_fast_path)


def same_rules(got, expected):
    return [id(r) for r in got] == [id(r) for r in expected]


@pytest.mark.parametrize("seed", range(6))
def test_index_agrees_with_linear_scan(seed):
    """Seeded mixes of installs, duplicate re-installs, removes and
    bare/GTP packets: the indexed switch chooses the oracle's rule,
    keeps its table order and counts the same hits and misses.  The
    two switches share FlowRule objects, installed in different
    orders."""
    rng = random.Random(seed)
    sim = Simulator()
    pairs = [build_pair(sim, "fast", ACACIA_OVS_PROFILE),
             build_pair(sim, "slow", OPENEPC_USERSPACE_PROFILE)]
    pool = []
    for _ in range(400):
        targets = rng.sample(pairs, rng.choice([1, 2]))
        op = rng.random()
        if op < 0.35 or not pool:
            rule = random_rule(rng)
            pool.append(rule)
            for switch, oracle in targets:
                switch.install(rule)
                oracle.install(rule)
        elif op < 0.5:
            # a retried FlowMod: the same object or an equal-keyed copy
            old = rng.choice(pool)
            rule = old if rng.random() < 0.5 else FlowRule(
                FlowMatch(**vars(old.match)), [Output("p0")],
                priority=old.priority, cookie=old.cookie)
            for switch, oracle in targets:
                switch.install(rule)
                oracle.install(rule)
        elif op < 0.65:
            cookie = rng.choice(COOKIES)
            for switch, oracle in targets:
                assert same_rules(switch.remove(cookie),
                                  oracle.remove(cookie))
        else:
            packet = random_packet(rng)
            for switch, oracle in targets:
                assert switch.lookup(packet) is oracle.lookup(packet)
                for _ in range(rng.randint(1, 3)):   # a flow's burst
                    switch.on_receive(packet.copy(), None)
                    oracle.receive(packet)
        sim.run()
        for switch, oracle in pairs:
            assert same_rules(switch.table, oracle.table)
            for cookie in COOKIES:
                assert same_rules(
                    switch.rules_for_cookie(cookie),
                    [r for r in oracle.table if r.cookie == cookie])
            assert (switch.fast_path_hits, switch.slow_path_hits,
                    switch.table_misses) == (
                oracle.fast_path_hits, oracle.slow_path_hits,
                oracle.table_misses)
    for switch, oracle in pairs:
        assert switch.slow_path_hits and switch.table_misses
    assert pairs[0][0].fast_path_hits


def test_shared_rule_keeps_per_switch_order():
    """The install sequence lives in the switch: one FlowRule object on
    two switches ties differently on each."""
    sim = Simulator()
    (one, _), (two, _) = (build_pair(sim, "one", IDEAL_PROFILE),
                          build_pair(sim, "two", IDEAL_PROFILE))
    first = FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("p0")],
                     cookie="first")
    second = FlowRule(FlowMatch(), [Output("p1")], cookie="second")
    one.install(first)
    one.install(second)
    two.install(second)
    two.install(first)
    assert one.lookup(pkt()) is first
    assert two.lookup(pkt()) is second
    one.install(first)      # re-install moves it behind its equals
    assert one.lookup(pkt()) is second
    assert same_rules(one.table, [second, first])


def test_table_path_formats_no_strings(monkeypatch):
    """Install, replace, lookup and remove never format a match."""
    def refuse(self):
        raise AssertionError("describe() called on the flow-table path")

    monkeypatch.setattr(FlowMatch, "describe", refuse)
    sim, src, switch, dst = build(profile=ACACIA_OVS_PROFILE)
    switch.install(FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")],
                            cookie="c"))
    replacement = FlowRule(FlowMatch(dst_ip="10.0.0.2"), [Output("out")],
                           cookie="c")
    switch.install(replacement)
    switch.install(FlowRule(FlowMatch(teid=0x10), [Output("out")],
                            cookie="t"))
    assert same_rules(switch.rules_for_cookie("c"), [replacement])
    assert switch.lookup(pkt()) is replacement
    src.send("p", pkt())
    src.send("p", gtp_encapsulate(pkt(dst="9.9.9.9"), 0x10,
                                  "192.168.1.1", "172.16.0.1"))
    sim.run()
    assert len(dst.received) == 2
    assert same_rules(switch.remove("c"), [replacement])
    assert len(switch.remove("t")) == 1
    assert switch.table == []
