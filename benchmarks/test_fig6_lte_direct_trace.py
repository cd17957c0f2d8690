"""Figure 6: SNR and rxPower along a walk past three landmarks.

Paper shape: rxPower peaks as the subscriber passes each landmark and
spans ~50 dB, correlating strongly with (negative log) distance; SNR is
clamped to a ~25 dB decoding span and correlates poorly -- the reason
ACACIA localises on rxPower.
"""

import math

import numpy as np

from repro.apps.scenario import figure6_scenario
from repro.d2d.channel import D2DChannel, Publisher, Subscriber
from repro.d2d.expressions import ExpressionNamespace
from repro.d2d.messages import DiscoveryMessage
from repro.d2d.radio import RadioModel
from repro.sim.engine import Simulator

PERIOD = 10.0


def run_walk():
    scenario, walk = figure6_scenario()
    sim = Simulator()
    rng = np.random.default_rng(6)
    channel = D2DChannel(sim, RadioModel(), rng=rng)
    ns = ExpressionNamespace()

    subscriber = Subscriber("walker", lambda: walk.position_at(sim.now))
    trace: list[tuple[float, str, float, float, float]] = []

    def on_observation(observation):
        position = walk.position_at(sim.now)
        lm_pos = scenario.landmarks[observation.landmark]
        trace.append((sim.now, observation.landmark, observation.rx_power,
                      observation.snr, math.dist(position, lm_pos)))

    subscriber.modem.subscribe("all", ns.service_filter("walk-demo"),
                               on_observation)
    channel.add_subscriber(subscriber)
    for name, position in scenario.landmarks.items():
        message = DiscoveryMessage(
            publisher_id=name, service_name="walk-demo",
            code=ns.code("walk-demo", name), payload=f"landmark={name}")
        channel.add_publisher(Publisher(name, position, message,
                                        period=PERIOD), start=0.0)
    sim.run(until=walk.duration)
    return scenario, walk, trace


def test_fig6_lte_direct_trace(report):
    scenario, walk, trace = run_walk()

    r = report("fig6_lte_direct_trace",
               "Figure 6: rxPower/SNR trace along the 3-landmark walk")
    r.line(f"walk duration {walk.duration:.0f}s, discovery period "
           f"{PERIOD:.0f}s, {len(trace)} observations")
    r.line()
    sample_rows = [[f"{t:.0f}", lm, f"{rx:.1f}", f"{snr:.1f}", f"{d:.1f}"]
                   for t, lm, rx, snr, d in trace[::9]]
    r.table(["t (s)", "landmark", "rxPower (dBm)", "SNR (dB)",
             "distance (m)"], sample_rows)

    rx = np.array([row[2] for row in trace])
    snr = np.array([row[3] for row in trace])
    log_d = np.log10([max(row[4], 0.5) for row in trace])

    rx_span = rx.max() - rx.min()
    snr_span = snr.max() - snr.min()
    corr_rx = float(np.corrcoef(rx, log_d)[0, 1])
    corr_snr = float(np.corrcoef(snr, log_d)[0, 1])
    r.line()
    r.line(f"rxPower span {rx_span:.1f} dB, corr(rx, log d) = {corr_rx:.2f}")
    r.line(f"SNR     span {snr_span:.1f} dB, corr(snr, log d) = {corr_snr:.2f}")

    # the paper's argument, quantified:
    assert rx_span > 35.0                       # wide dynamic range
    assert snr_span <= 25.0                     # clamped decoder span
    assert corr_rx < -0.85                      # strong distance correlation
    assert abs(corr_snr) < abs(corr_rx)         # SNR is the worse ranger

    # rxPower peaks in time must align with the landmark pass-bys
    for landmark, lm_pos in scenario.landmarks.items():
        rows = [row for row in trace if row[1] == landmark]
        peak_time = max(rows, key=lambda row: row[2])[0]
        dist_at_peak = math.dist(walk.position_at(peak_time), lm_pos)
        closest = min(math.dist(walk.position_at(t), lm_pos)
                      for t in np.arange(0, walk.duration, PERIOD))
        assert dist_at_peak <= closest + 8.0
