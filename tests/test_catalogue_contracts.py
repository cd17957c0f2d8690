"""Catalogue contracts: each scenario document named here is run at its
full horizon and must meet the claim its description makes.

Every bound is derived from the document itself (its delays, its UE
count, its fault list), never from a previously observed output.  Each
document is run twice; the two runs must give identical metrics.  A
contract receives one ``(run, metrics, relocations)`` triple per trial,
in trial order.
"""

import pytest

from repro.core.events import SessionRelocated
from repro.scenario import load
from repro.scenario.runtime import ScenarioRun


def _run(name):
    """Drive every trial of the document to its end; return, per trial,
    the run, its metrics and every ``SessionRelocated`` it announced."""
    results = []
    for trial in load(name).compile().trials():
        run = ScenarioRun(trial)
        relocations = []
        run.network.hooks.on(SessionRelocated, relocations.append)
        for time, callback in run.milestones():
            run.sim.run(until=time)
            callback()
        results.append((run, run.collect(), relocations))
    return results


def satellite_backhaul(results):
    """~270 ms of one-way backhaul that nothing behind the core hides:
    every probe pays the backhaul, core and internet legs both ways."""
    ((run, metrics, _),) = results
    network = run.sections["network"]
    one_way = (network["backhaul_delay"] + network["core_delay"]
               + network["internet_delay"])
    assert metrics["pings_answered"] > 0
    assert metrics["median_rtt_ms"] >= 2 * one_way * 1e3


def edge_outage_cascade(results):
    """Relocations skip the site whose CI server is dark, and every
    session survives both faults."""
    ((run, metrics, relocations),) = results
    outage_sites = {f["server"].removeprefix("ci-")
                    for f in run.sections["faults"]
                    if f["type"] == "mc_server_outage"}
    assert outage_sites == {"edge1"}
    assert not [e for e in relocations if e.to_site in outage_sites]
    assert metrics["relocations_completed"] > 0
    assert metrics["sessions_alive"] == metrics["n_ues"]
    assert metrics["session_failures"] == 0
    n_faults = len(run.sections["faults"])
    assert metrics["faults_injected"] == metrics["faults_cleared"] == n_faults


def intermittent_connectivity(results):
    """The S1 link flaps: pings sent while it is down are lost, pings
    sent while it is up are answered, and every outage is cleared.

    Each ping runs at ``ping_interval`` from ``run.start_at`` for the
    run's ``duration``; each flap cycle takes the link down for
    ``period * duty`` (the last one cut at ``until``).  A ping in
    flight at an up or down edge can land on either side of it, so the
    loss may differ from the down time's share by one ping per UE and
    edge (every round trip is shorter than the ping interval).
    """
    ((run, metrics, _),) = results
    (flap,) = run.sections["faults"]
    assert flap["type"] == "link_flap"
    assert run.stagger == 0         # every UE pings over one window
    starts = []
    t = flap["at"]
    while t < flap["until"]:
        starts.append(t)
        t += flap["period"]
    window_end = run.start_at + run.duration
    down = sum(max(0.0, min(t + flap["period"] * flap["duty"],
                            flap["until"], window_end)
                   - max(t, run.start_at))
               for t in starts)
    expected_lost = run.n_ues * down / run.ping_interval
    edges = 2 * len(starts) * run.n_ues

    assert metrics["median_rtt_ms"] < run.ping_interval * 1e3
    assert metrics["pings_answered"] + metrics["pings_lost"] \
        == run.n_ues * run.probes
    assert metrics["pings_lost"] > 0
    assert metrics["pings_answered"] > 0
    assert abs(metrics["pings_lost"] - expected_lost) <= edges
    assert metrics["faults_injected"] == metrics["faults_cleared"] \
        == len(starts)


def dual_site_relocation(results):
    """Walkers cross the single site boundary once each, their sessions
    survive, and make-before-break interrupts them for less time than
    break-before-make."""
    interruption = {}
    for run, metrics, _ in results:
        topology = run.sections["topology"]
        assert topology["sites"] == 2
        cells = topology["sites"] * topology["enbs_per_site"]
        assert metrics["relocations_started"] \
            == metrics["relocations_completed"] == run.n_ues
        assert metrics["handovers"] == run.n_ues * (cells - 1)
        assert metrics["sessions_alive"] == run.n_ues
        assert metrics["session_failures"] == 0
        interruption[run.trial.param_dict["policy"]] = \
            metrics["interruption_ms_mean"]
    assert (interruption["make-before-break"]
            < interruption["break-before-make"])


CONTRACTS = {
    "satellite_backhaul": satellite_backhaul,
    "edge_outage_cascade": edge_outage_cascade,
    "intermittent_connectivity": intermittent_connectivity,
    "dual_site_relocation": dual_site_relocation,
}


@pytest.mark.parametrize("name", sorted(CONTRACTS))
def test_document_meets_its_claim_deterministically(name):
    results = _run(name)
    CONTRACTS[name](results)
    rerun = _run(name)
    assert [m for _, m, _ in rerun] == [m for _, m, _ in results]
    assert [r for _, _, r in rerun] == [r for _, _, r in results]
