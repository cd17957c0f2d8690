"""Ablation (paper Section 8): proximity-discovery technology choice.

Compares LTE-direct, iBeacon and Wi-Fi Aware along the axes the paper
argues make LTE-direct the right carrier offering: coverage range,
time-to-discover, and application-processor wakeups under many
non-matching broadcasters (the modem-filtering advantage).
"""

import numpy as np

from repro.d2d.beacons import (IBEACON, LTE_DIRECT, WIFI_AWARE,
                               BeaconScanner)
from repro.d2d.channel import D2DChannel, Publisher, Subscriber
from repro.d2d.expressions import ExpressionNamespace
from repro.d2d.messages import DiscoveryMessage
from repro.d2d.modem import LteDirectModem
from repro.sim.engine import Simulator

NS = ExpressionNamespace()
TECHNOLOGIES = [LTE_DIRECT, IBEACON, WIFI_AWARE]

#: A busy venue: many stores broadcasting, the user cares about one.
N_PUBLISHERS = 20
USER_DISTANCE = 12.0
OBSERVE_FOR = 60.0


def run_technology(tech, seed=5):
    sim = Simulator()
    channel = D2DChannel(sim, tech.radio, rng=np.random.default_rng(seed))
    receiver = (LteDirectModem("user") if tech.modem_filtering
                else BeaconScanner("user"))
    matches = []
    receiver.subscribe("interest",
                       NS.offering_filter("store-0", "laptops"),
                       matches.append)
    subscriber = Subscriber("user", (USER_DISTANCE, 0.0), modem=receiver)
    channel.add_subscriber(subscriber)
    rng = np.random.default_rng(seed + 1)
    for i in range(N_PUBLISHERS):
        offering = "laptops" if i == 0 else "other"
        message = DiscoveryMessage(
            publisher_id=f"store-{i}", service_name=f"store-{i}",
            code=NS.code(f"store-{i}", offering),
            payload=f"store={i}")
        position = (float(rng.uniform(0, 40)), float(rng.uniform(0, 15)))
        if i == 0:
            position = (0.0, 0.0)    # the matching store is nearby
        channel.add_publisher(Publisher(f"store-{i}", position, message,
                                        period=tech.advertise_period))
    sim.run(until=OBSERVE_FOR)
    time_to_discover = matches[0].timestamp if matches else float("inf")
    return {
        "range_m": tech.radio.max_range(),
        "time_to_discover": time_to_discover,
        "host_wakeups": receiver.host_wakeups,
        "heard": receiver.broadcasts_heard,
        "matches": len(matches),
    }


def test_ablation_discovery_tech(report):
    results = {tech.name: run_technology(tech) for tech in TECHNOLOGIES}

    r = report("ablation_discovery_tech",
               "Ablation: proximity technologies (Sec 8), 20 broadcasters")
    r.table(
        ["technology", "range (m)", "discover (s)", "host wakeups/min",
         "broadcasts heard"],
        [[name,
          f"{res['range_m']:.0f}",
          ("inf" if res["time_to_discover"] == float("inf")
           else f"{res['time_to_discover']:.1f}"),
          f"{res['host_wakeups'] / (OBSERVE_FOR / 60):.0f}",
          res["heard"]]
         for name, res in results.items()])

    lte, ibeacon, wifi = (results[t.name] for t in TECHNOLOGIES)
    # LTE-direct covers the venue; BLE beacons only a nearby slice
    assert lte["range_m"] > 2 * ibeacon["range_m"]
    # every technology eventually discovers the nearby matching store
    assert lte["matches"] >= 1
    assert ibeacon["matches"] >= 1
    # beacons advertise faster, so raw discovery latency is lower...
    assert ibeacon["time_to_discover"] <= lte["time_to_discover"]
    # ...but host-side filtering wakes the app processor for every
    # decodable broadcast, while the LTE modem forwards only matches
    assert lte["host_wakeups"] == lte["matches"]
    assert ibeacon["host_wakeups"] > 5 * ibeacon["matches"]
