"""Catalogue contracts: each scenario document named here is run at its
full horizon and must meet the claim its description makes.

Every bound is derived from the document itself (its delays, its UE
count, its fault list), never from a previously observed output.  Each
document is run twice; the two runs must give identical metrics.
"""

import pytest

from repro.core.events import SessionRelocated
from repro.scenario import load
from repro.scenario.runtime import ScenarioRun


def _run(name):
    """Drive the document's single trial to its end; return the run,
    its metrics and every ``SessionRelocated`` it announced."""
    (trial,) = load(name).compile().trials()
    run = ScenarioRun(trial)
    relocations = []
    run.network.hooks.on(SessionRelocated, relocations.append)
    for time, callback in run.milestones():
        run.sim.run(until=time)
        callback()
    return run, run.collect(), relocations


def satellite_backhaul(run, metrics, relocations):
    """~270 ms of one-way backhaul that nothing behind the core hides:
    every probe pays the backhaul, core and internet legs both ways."""
    network = run.sections["network"]
    one_way = (network["backhaul_delay"] + network["core_delay"]
               + network["internet_delay"])
    assert metrics["pings_answered"] > 0
    assert metrics["median_rtt_ms"] >= 2 * one_way * 1e3


def edge_outage_cascade(run, metrics, relocations):
    """Relocations skip the site whose CI server is dark, and every
    session survives both faults."""
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


CONTRACTS = {
    "satellite_backhaul": satellite_backhaul,
    "edge_outage_cascade": edge_outage_cascade,
}


@pytest.mark.parametrize("name", sorted(CONTRACTS))
def test_document_meets_its_claim_deterministically(name):
    run, metrics, relocations = _run(name)
    CONTRACTS[name](run, metrics, relocations)
    _, rerun_metrics, rerun_relocations = _run(name)
    assert rerun_metrics == metrics
    assert rerun_relocations == relocations
