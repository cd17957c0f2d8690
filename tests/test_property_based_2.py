"""Second property-test batch: links, bearers, vision, codecs."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.epc.bearer import Bearer, BearerRegistry, PacketFilter
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.vision.camera import Resolution
from repro.vision.codec import JPEG50, JPEG80, JPEG90, JPEG100, PNG
from repro.vision.costmodel import DEVICES
from repro.vision.features import expected_feature_count
from tests.recording import RecordingSink


# -- link conservation -------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(min_value=64, max_value=5000),
                      min_size=1, max_size=40),
       queue_kb=st.integers(min_value=2, max_value=64))
def test_link_conserves_packets(sizes, queue_kb):
    """Every transmitted packet is either delivered or counted as a
    drop; nothing vanishes."""
    sim = Simulator()
    src = Node(sim, "src", ip="a")
    sink = RecordingSink(sim, "dst", ip="b")
    link = Link(sim, "l", bandwidth=1e6, delay=0.001,
                queue_bytes=queue_kb * 1000)
    src.attach("out", link)
    sink.attach("in", link)
    for size in sizes:
        src.send("out", Packet(src="a", dst="b", size=size))
    sim.run()
    stats = link.stats(src)
    assert len(sink.received) + stats["drops"] == len(sizes)
    assert stats["queued_bytes"] == 0


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(min_value=100, max_value=2000),
                      min_size=2, max_size=25))
def test_fifo_link_preserves_order(sizes):
    sim = Simulator()
    src = Node(sim, "src", ip="a")
    sink = RecordingSink(sim, "dst", ip="b")
    link = Link(sim, "l", bandwidth=1e6, delay=0.002,
                queue_bytes=10**7)
    src.attach("out", link)
    sink.attach("in", link)
    for i, size in enumerate(sizes):
        src.send("out", Packet(src="a", dst="b", size=size,
                               meta={"i": i}))
    sim.run()
    order = [p.meta["i"] for p in sink.received]
    assert order == sorted(order)


# -- bearer classification ----------------------------------------------------

_ips = st.sampled_from(["10.45.0.1", "203.0.114.7", "8.8.8.8",
                        "203.0.113.9"])


@settings(max_examples=60)
@given(dst=_ips, server=_ips)
def test_dedicated_classification_iff_tft_match(dst, server):
    """classify_uplink picks the dedicated bearer exactly when the
    packet's remote matches the bearer's TFT; otherwise the default."""
    registry = BearerRegistry()
    default = Bearer(ebi=5, qci=9, imsi="i", ue_ip="10.45.0.1",
                     default=True)
    dedicated = Bearer(ebi=6, qci=7, imsi="i", ue_ip="10.45.0.1")
    dedicated.tft.add(PacketFilter(remote_address=server))
    registry.add(default)
    registry.add(dedicated)
    packet = Packet(src="10.45.0.1", dst=dst, size=10)
    chosen = registry.classify_uplink(packet)
    if dst == server:
        assert chosen is dedicated
    else:
        assert chosen is default


# -- vision scaling ------------------------------------------------------------

@settings(max_examples=40)
@given(w=st.integers(min_value=160, max_value=2000),
       h=st.integers(min_value=120, max_value=1500),
       scale=st.floats(min_value=1.1, max_value=3.0))
def test_feature_count_monotone_in_pixels(w, h, scale):
    small = Resolution(w, h)
    big = Resolution(int(w * scale), int(h * scale))
    assert expected_feature_count(big) > expected_feature_count(small)


@settings(max_examples=40)
@given(w=st.integers(min_value=160, max_value=1920),
       h=st.integers(min_value=120, max_value=1080),
       objects=st.integers(min_value=0, max_value=200),
       clients=st.integers(min_value=1, max_value=16))
def test_match_cost_scales_linearly_and_contends(w, h, objects, clients):
    device = DEVICES["i7-8core"]
    resolution = Resolution(w, h)
    single = device.db_match_time(resolution, objects)
    contended = device.db_match_time(resolution, objects,
                                     clients=clients)
    assert math.isclose(contended,
                        single * device.contention_factor(clients),
                        rel_tol=1e-9)
    doubled = device.db_match_time(resolution, 2 * objects)
    assert math.isclose(doubled, 2 * single, rel_tol=1e-9, abs_tol=1e-15)


@settings(max_examples=40)
@given(w=st.integers(min_value=160, max_value=1920),
       h=st.integers(min_value=120, max_value=1080),
       complexity=st.floats(min_value=0.2, max_value=2.0))
def test_codec_strength_ordering_holds_everywhere(w, h, complexity):
    resolution = Resolution(w, h)
    sizes = [codec.frame_bytes(resolution, complexity)
             for codec in (JPEG50, JPEG80, JPEG90, JPEG100, PNG)]
    assert sizes == sorted(sizes)
    assert all(size < resolution.pixels for size in sizes) or \
        complexity > 1.3    # extreme scenes may exceed raw for PNG


@settings(max_examples=40)
@given(surf_devices=st.permutations(["oneplus-one", "i7-1core",
                                     "i7-8core", "gpu-titan"]))
def test_device_speed_ordering_is_total(surf_devices):
    """Whatever order we ask in, the calibrated speed ranking holds."""
    resolution = Resolution(960, 720)
    ranked = sorted(surf_devices,
                    key=lambda name: DEVICES[name].surf_time(resolution))
    assert ranked == ["gpu-titan", "i7-8core", "i7-1core", "oneplus-one"]
