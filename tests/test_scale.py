"""Scale tests: many UEs, concurrent AR clients, resource uniqueness."""

import numpy as np
import pytest

from repro.apps.retail import build_retail_database, landmark_map_for
from repro.apps.scenario import store_scenario
from repro.apps.workload import CheckpointWorkload
from repro.apps.ar_backend import ARBackend, ARServerNode
from repro.apps.ar_frontend import ARFrontend, ARSession
from repro.core.localization_manager import LocalizationManager
from repro.core.network import MobileNetwork, Pinger
from repro.d2d.radio import RadioModel
from repro.epc.entities import ServicePolicy
from repro.localization.pathloss import calibrate_from_radio
from repro.vision.camera import R720x480


def test_twenty_ues_attach_with_unique_resources():
    network = MobileNetwork()
    ues = [network.add_ue() for _ in range(20)]
    assert len({ue.ip for ue in ues}) == 20
    assert len({ue.imsi for ue in ues}) == 20
    # every default bearer got distinct tunnel endpoints
    teids = [ue.bearers.default_bearer().sgw_s1_fteid.teid for ue in ues]
    assert len(set(teids)) == 20
    assert network.mme.connected_count() == 20


def test_twenty_ues_ping_concurrently():
    network = MobileNetwork()
    pingers = []
    for _ in range(20):
        ue = network.add_ue()
        pinger = Pinger(network, ue, "internet", interval=0.25)
        pinger.run(count=8)
        pingers.append(pinger)
    network.sim.run(until=10.0)
    for pinger in pingers:
        assert len(pinger.rtts) == 8
        assert float(np.median(pinger.rtts)) < 0.12


def test_five_hundred_ue_attach_storm_completes_quickly():
    """500 concurrent attaches finish with unique resources, and the
    event queue keeps the whole storm well inside a generous
    wall-clock budget (measures ~1 s on the CI baseline; the 30 s
    ceiling only catches pathological regressions)."""
    import time

    t0 = time.perf_counter()
    network = MobileNetwork()
    procs = [network.add_ue_async() for _ in range(500)]
    network.sim.run()
    wall = time.perf_counter() - t0

    assert network.mme.connected_count() == 500
    ues = []
    for proc in procs:
        assert proc.finished and proc.error is None, proc.error
        assert proc.value.attached
        ues.append(proc.value)
    assert len({ue.ip for ue in ues}) == 500
    assert len({ue.imsi for ue in ues}) == 500
    assert wall < 30.0


def test_multiple_mec_bearers_share_local_gateways():
    network = MobileNetwork()
    network.pcrf.configure(ServicePolicy("ar-retail", qci=7))
    network.add_mec_site("mec")
    network.add_server("ar-server", site_name="mec", echo=True)
    ues = [network.add_ue() for _ in range(8)]
    for ue in ues:
        network.create_mec_bearer(ue, "ar-server")
    pingers = []
    for ue in ues:
        pinger = Pinger(network, ue, "ar-server", interval=0.2)
        pinger.run(count=6)
        pingers.append(pinger)
    network.sim.run(until=6.0)
    for pinger in pingers:
        assert len(pinger.rtts) == 6
        assert float(np.percentile(pinger.rtts, 95)) < 0.02


def test_concurrent_ar_sessions_contend_at_the_server():
    """Two simultaneous AR clients slow each other down at the match
    stage (the Figure 12 effect, end to end)."""
    scenario = store_scenario()
    db = build_retail_database(scenario, n_features=40)
    network = MobileNetwork()
    network.pcrf.configure(ServicePolicy("ar-retail", qci=7))
    network.add_mec_site("mec")
    regression = calibrate_from_radio(RadioModel(),
                                      np.random.default_rng(1))
    localization = LocalizationManager(landmark_map_for(scenario,
                                                        regression))
    backend = ARBackend(db, scenario, localization)
    server = ARServerNode(network.sim, "ar-server", backend,
                          scheme="naive")
    network.add_server("ar-server", site_name="mec", node=server)

    workload = CheckpointWorkload(scenario, db, seed=2,
                                  frames_per_object=6,
                                  resolution=R720x480)
    sessions = []
    for i in range(2):
        ue = network.add_ue()
        network.create_mec_bearer(ue, "ar-server")
        sample = workload.sample(scenario.checkpoints[i])
        frontend = ARFrontend(R720x480)
        session = ARSession(network.sim, ue, server.ip, frontend,
                            iter(sample.frames), max_frames=6)
        session.start()
        sessions.append(session)
    network.sim.run(until=60.0)
    for session in sessions:
        assert len(session.records) == 6
    # overlapping frames saw contention: some match times exceed the
    # single-client cost
    single = backend.device.db_match_time(R720x480, db_objects=105,
                                          object_features=500.0)
    contended = [r.match_time for s in sessions for r in s.records]
    assert max(contended) > 1.5 * single


def _run_to_end(trial):
    """Drive one scenario trial to its end as a ``ScenarioRun``, so a
    test can read the simulated objects as well as the metrics."""
    from repro.scenario.runtime import ScenarioRun

    run = ScenarioRun(trial)
    for time, callback in run.milestones():
        run.sim.run(until=time)
        callback()
    return run, run.collect()


def test_scale_preset_attach_storm_latency():
    """The ``scale`` preset's attach storm at its smallest and largest
    population: every UE attaches, and contention on the shared
    signalling channels stretches the attach latency as the storm
    grows (read from each UE's attach result)."""
    from repro.exp import preset

    pinned = {10: (69.51776, 74.83136), 200: (358.9184, 476.39776)}
    for trial in preset("scale").trials():
        n_ues = trial.param_dict["n_ues"]
        if n_ues not in pinned:
            continue
        run, metrics = _run_to_end(trial)
        assert metrics["attach_outcomes"] == {"ok": n_ues}
        assert metrics["sessions_alive"] == n_ues
        assert metrics["pings_answered"] == 5 * n_ues
        latencies = [ue.attach_result.elapsed * 1e3 for ue in run.ues]
        mean_ms, p95_ms = pinned[n_ues]
        assert float(np.mean(latencies)) == pytest.approx(mean_ms, rel=1e-6)
        assert float(np.percentile(latencies, 95)) == pytest.approx(
            p95_ms, rel=1e-6)


def test_scale_100k_document():
    """The 100,000-UE population of ``scenarios/scale_100k.json``:
    1,000 UEs attach in one storm and ping over the central path while
    the other 99,000 (at 20 kbit/s each) ride as fluid background."""
    from repro.scenario import load

    (trial,) = load("scale_100k").compile().trials()
    run, metrics = _run_to_end(trial)
    assert metrics["attach_outcomes"] == {"ok": 1000}
    assert metrics["pings_answered"] == 1000 * run.probes
    assert metrics["pings_lost"] == 0

    # the population the run carried: the attached UEs plus the
    # background's delivered rate in 20 kbit/s UEs
    (background,) = run.network.fluid.flows
    background.sync()
    # the background starts at warmup and runs to the end of the trial
    t0, t1 = run.warmup, run.sim.now
    carried_ues = background.bytes_delivered * 8.0 / (t1 - t0) / 20e3
    assert len(run.ues) + carried_ues == pytest.approx(100_000, rel=1e-9)
    # the aggregate costs no per-packet events: the whole run takes
    # fewer events than a fifth of the background's packets alone
    assert 5 * metrics["events_run"] < background.packets_delivered
