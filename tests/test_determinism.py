"""Reproducibility tests: identical seeds give identical runs."""

import numpy as np

from repro.apps.retail import build_retail_database
from repro.apps.scenario import store_scenario
from repro.baselines import build_deployment
from repro.apps.workload import CheckpointWorkload
from repro.core.config import NetworkConfig
from repro.core.network import MobileNetwork, Pinger
from repro.vision.camera import R720x480
from tests.recording import MessageRecorder


def run_pings(seed):
    network = MobileNetwork(NetworkConfig(seed=seed))
    ue = network.add_ue()
    pinger = Pinger(network, ue, "internet", interval=0.2)
    pinger.run(count=15)
    network.sim.run(until=10.0)
    return pinger.rtts


def test_same_seed_same_rtts():
    assert run_pings(5) == run_pings(5)


def test_different_seed_different_jitter():
    assert run_pings(5) != run_pings(6)


def test_workload_is_deterministic():
    scenario = store_scenario()
    db = build_retail_database(scenario, n_features=40)
    a = CheckpointWorkload(scenario, db, seed=3).sample(
        scenario.checkpoints[2])
    b = CheckpointWorkload(scenario, db, seed=3).sample(
        scenario.checkpoints[2])
    assert a.record.name == b.record.name
    assert a.observations == b.observations
    assert np.array_equal(a.frames[0].descriptors,
                          b.frames[0].descriptors)


def test_end_to_end_deployment_is_deterministic():
    """The flagship experiment reproduces bit-for-bit from its seed."""
    scenario = store_scenario()
    db = build_retail_database(scenario, n_features=40)

    def one_run():
        deployment = build_deployment("acacia", db, scenario, seed=11)
        checkpoint = scenario.checkpoints[4]
        section = scenario.section_of_subsection(checkpoint.subsection)
        deployment.customer.move_to(checkpoint.position)
        deployment.customer.open([section])
        deployment.network.sim.run(until=32.0)
        workload = CheckpointWorkload(scenario, db, seed=11,
                                      frames_per_object=4,
                                      resolution=R720x480)
        sample = workload.sample(checkpoint)
        session = deployment.new_session(iter(sample.frames),
                                         resolution=R720x480,
                                         max_frames=4)
        session.start(at=deployment.network.sim.now)
        deployment.network.sim.run(
            until=deployment.network.sim.now + 60.0)
        return [(r.matched, r.total_time, r.match_time)
                for r in session.records]

    assert one_run() == one_run()


def test_serial_and_parallel_runner_byte_identical():
    """A process-parallel experiment run serialises to exactly the same
    bytes as a serial run: every trial builds its world from its derived
    seed, so worker scheduling cannot leak into the results."""
    from repro.exp import ExperimentRunner, ExperimentSpec

    spec = ExperimentSpec(
        name="determinism-probe", workload="ping", seeds=(0, 1),
        sweep={"system": ("conventional", "acacia")},
        params={"count": 2, "warmup": 1.0, "tail": 1.5, "interval": 0.2})
    serial = ExperimentRunner(spec).run()
    parallel = ExperimentRunner(spec, workers=2).run()
    assert serial.ok
    assert serial.canonical_json() == parallel.canonical_json()


def test_ledger_replay_is_identical():
    def message_fingerprint(seed):
        network = MobileNetwork(NetworkConfig(seed=seed))
        recorder = MessageRecorder(network.hooks)
        ue = network.add_ue()
        release = network.control_plane.release_to_idle(ue)
        reestablish = network.control_plane.service_request(ue)
        assert len(recorder) == (ue.attach_result.message_count
                                 + release.message_count
                                 + reestablish.message_count)
        return [(m.protocol, m.name, m.size, m.sender, m.receiver)
                for m in recorder.messages]

    first = message_fingerprint(1)
    assert first == message_fingerprint(1)
    assert len(first) > 15      # the attach plus the 15-message cycle


def test_concurrent_signalling_storm_is_deterministic():
    """100 UEs attach and activate dedicated bearers *concurrently*;
    two runs of the same seed deliver byte-identical message sequences,
    delivery timestamps included."""
    from repro.epc.entities import ServicePolicy

    def storm(seed, n_ues=100):
        network = MobileNetwork(NetworkConfig(seed=seed))
        recorder = MessageRecorder(network.hooks)
        network.add_mec_site("mec")
        network.add_server("ci", site_name="mec")
        network.pcrf.configure(ServicePolicy(service_id="svc", qci=3))
        server_ip = network.servers["ci"].ip
        cp = network.control_plane

        attaches = [network.add_ue_async() for _ in range(n_ues)]
        network.sim.run()
        assert all(p.finished and p.error is None for p in attaches)
        ues = [p.value for p in attaches]

        activations = [
            cp.activate_dedicated_bearer_async(ue, "svc", server_ip, "mec")
            for ue in ues]
        network.sim.run()
        assert all(p.finished and p.error is None for p in activations)
        assert all(p.value.bearer is not None for p in activations)
        return [(m.protocol, m.name, m.size, m.sender, m.receiver,
                 m.timestamp)
                for m in recorder.messages]

    first = storm(7)
    second = storm(7)
    assert first == second
    assert len(first) > 100     # the storm really signalled
