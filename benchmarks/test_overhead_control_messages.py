"""Section 4 control-overhead analysis + the bearer-policy ablation.

Reproduces the measured release/re-establish sequence -- 15 messages,
2914 bytes, split SCTP 7 (1138 B) / GTPv2 4 (352 B) / OpenFlow 4
(1424 B) -- and the daily projections: 2.58 MB/device/day at 929
app-driven bearer events, ~20 MB at 7200 promotion events.

Ablation: ACACIA's on-demand dedicated bearers vs the strawman that
maintains (and therefore re-creates) a second always-on MEC bearer.
"""

import pytest

from repro.core.network import MobileNetwork
from repro.epc.entities import ServicePolicy
from repro.epc.overhead import (APP_DRIVEN_EVENTS_PER_DAY,
                                PROMOTION_EVENTS_PER_DAY,
                                combined_by_protocol, daily_overhead_mb)


def build():
    network = MobileNetwork()
    network.pcrf.configure(ServicePolicy("ar-retail", qci=7))
    network.add_mec_site("mec")
    network.add_server("ar-server", site_name="mec", echo=True)
    ue = network.add_ue()
    return network, ue


def release_reestablish_cycle(network, ue):
    release = network.control_plane.release_to_idle(ue)
    reestablish = network.control_plane.service_request(ue)
    return release, reestablish


def test_overhead_control_messages(report):
    network, ue = build()
    cycle_results = release_reestablish_cycle(network, ue)

    by_protocol = combined_by_protocol(*cycle_results)
    total_messages = sum(r.message_count for r in cycle_results)
    total_bytes = sum(r.byte_count for r in cycle_results)

    r = report("overhead_control_messages",
               "Sec 4: release + re-establish control overhead")
    r.table(["protocol", "messages", "bytes"],
            [[proto, c, b] for proto, (c, b) in sorted(by_protocol.items())]
            + [["TOTAL", total_messages, total_bytes]])
    r.line()
    r.line(f"app-driven ({APP_DRIVEN_EVENTS_PER_DAY}/day): "
           f"{daily_overhead_mb(total_bytes, APP_DRIVEN_EVENTS_PER_DAY):.2f}"
           f" MB/device/day")
    r.line(f"promotion-driven ({PROMOTION_EVENTS_PER_DAY}/day): "
           f"{daily_overhead_mb(total_bytes, PROMOTION_EVENTS_PER_DAY):.1f}"
           f" MB/device/day")

    assert total_messages == 15
    assert total_bytes == 2914
    assert by_protocol["SCTP"] == [7, 1138]
    assert by_protocol["GTPv2"] == [4, 352]
    assert by_protocol["OpenFlow"] == [4, 1424]
    assert daily_overhead_mb(total_bytes, APP_DRIVEN_EVENTS_PER_DAY) == \
        pytest.approx(2.58, abs=0.01)
    assert daily_overhead_mb(total_bytes, PROMOTION_EVENTS_PER_DAY) == \
        pytest.approx(20.0, abs=0.1)


def test_ablation_bearer_policies(report):
    """On-demand MEC bearers vs an always-on second bearer."""
    network, ue = build()

    # one ACACIA dedicated-bearer lifecycle (setup + teardown)
    setup = network.create_mec_bearer(ue, "ar-server")
    teardown = network.control_plane.deactivate_dedicated_bearer(
        ue, setup.bearer.ebi)
    acacia_session_bytes = setup.byte_count + teardown.byte_count

    # the default bearer's own release/re-establish cycle
    cycle_bytes = sum(r.byte_count
                      for r in release_reestablish_cycle(network, ue))

    # an always-on dedicated bearer doubles the per-event release +
    # re-establish machinery (two bearers to tear down and rebuild)
    always_on_daily = daily_overhead_mb(
        2 * cycle_bytes, APP_DRIVEN_EVENTS_PER_DAY)
    baseline_daily = daily_overhead_mb(
        cycle_bytes, APP_DRIVEN_EVENTS_PER_DAY)
    # ACACIA: default-bearer cycles plus a handful of app sessions/day
    app_sessions_per_day = 10
    acacia_daily = baseline_daily + (
        acacia_session_bytes * app_sessions_per_day) / (1024 ** 2)

    r = report("ablation_bearer_policies",
               "Ablation: daily control overhead by bearer policy "
               "(MB/device/day)")
    r.table(["policy", "MB/day"], [
        ["default bearer only (today's LTE)", f"{baseline_daily:.2f}"],
        ["always-on MEC bearer (strawman)", f"{always_on_daily:.2f}"],
        [f"ACACIA on-demand ({app_sessions_per_day} CI sessions/day)",
         f"{acacia_daily:.2f}"],
    ])
    r.line()
    r.line(f"one ACACIA session costs {acacia_session_bytes} bytes of "
           f"signalling (setup {setup.byte_count}, teardown "
           f"{teardown.byte_count})")

    assert acacia_daily < always_on_daily
    assert acacia_daily - baseline_daily < 0.1   # <0.1 MB of extra signalling
