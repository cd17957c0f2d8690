"""Workload implementations the experiment runner can dispatch to.

A workload is a plain function ``fn(trial: TrialSpec) -> dict`` whose
return value is JSON-serialisable.  Workloads build their entire world
from ``trial.seed`` and ``trial.params`` -- no ambient state -- which is
what makes serial and process-parallel runs byte-identical.

``ping``
    Median RTT from a UE through one of the three system designs
    (``conventional``, ``mec-shared``, ``acacia``) under background
    load -- the Figure 3(g)/10(b) measurement.
``bearer_setup``
    Dedicated-bearer setup latency under concurrent signalling load.
``chaos``
    Attach/bearer success and latency under injected signalling loss.
``search_space``
    Mean matching time and pruning accuracy per search scheme --
    the Figure 11(a) measurement.
``end_to_end``
    Per-frame latency breakdown of a full AR session for one
    deployment kind -- the Figure 13 measurement.
``scenario``
    The generic scenario-document interpreter
    (:mod:`repro.scenario.runtime`); the session-continuity and scale
    studies run through it (``scenarios/continuity.json``,
    ``scale.json``, ``million_ue_fluid.json``, ``scale_100k.json``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict

import numpy as np

from repro.exp.spec import TrialSpec

WORKLOADS: Dict[str, Callable[[TrialSpec], dict]] = {}

#: One-way (backhaul, core, internet) delays emulating a server RTT,
#: keyed by the nominal RTT in milliseconds (Figure 3(g)).
RTT_PROFILES = {
    70: (0.010, 0.010, 0.009),
    18: (0.0025, 0.0015, 0.001),
    8: (0.0, 0.0, 0.0),
}


def workload(name: str):
    """Register a workload function under ``name``."""
    def register(fn):
        WORKLOADS[name] = fn
        return fn
    return register


def get(name: str) -> Callable[[TrialSpec], dict]:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; available: "
                       f"{sorted(WORKLOADS)}") from None


# ---------------------------------------------------------------------------
# ping: RTT under background load (Figures 3(g) and 10(b))
# ---------------------------------------------------------------------------

@workload("ping")
def run_ping(trial: TrialSpec) -> dict[str, Any]:
    """Median RTT through one system design under background load.

    Parameters (``trial.params``):

    * ``system`` -- ``conventional`` | ``mec-shared`` | ``acacia``;
    * ``rtt_ms`` -- optional nominal server RTT selecting a delay
      profile from :data:`RTT_PROFILES` (conventional only);
    * ``bg_mbps`` -- background offered load in Mbit/s;
    * ``data_plane`` -- ``packet`` (default) or ``fluid-bg``
      (aggregated background, see :mod:`repro.sim.fluid`);
    * ``count`` / ``interval`` / ``size`` / ``warmup`` / ``tail`` --
      ping train shape.
    """
    from repro.core.config import NetworkConfig, SimConfig
    from repro.core.network import MobileNetwork, Pinger
    from repro.epc.entities import ServicePolicy

    p = trial.param_dict
    system = p.get("system", "conventional")
    bg_mbps = float(p.get("bg_mbps", 0))
    data_plane = p.get("data_plane", "packet")
    count = int(p.get("count", 8))
    interval = float(p.get("interval", 0.4))
    size = int(p.get("size", 1000))
    warmup = float(p.get("warmup", 6.0))
    tail = float(p.get("tail", 8.0))

    delays = {}
    if "rtt_ms" in p:
        backhaul, core, internet = RTT_PROFILES[int(p["rtt_ms"])]
        delays = dict(backhaul_delay=backhaul, core_delay=core,
                      internet_delay=internet)
    elif system == "mec-shared":
        delays = dict(backhaul_delay=0.0006, core_delay=0.0004,
                      internet_delay=0.0002)
    config = NetworkConfig(seed=trial.seed,
                           sim=SimConfig(data_plane=data_plane), **delays)
    network = MobileNetwork(config)

    if system == "acacia":
        network.pcrf.configure(ServicePolicy("ar", qci=7))
        network.add_mec_site("mec")
        network.add_server("mec-server", site_name="mec", echo=True)
        ue = network.add_ue()
        network.create_mec_bearer(ue, "mec-server", service_id="ar")
        server_name = "mec-server"
    elif system in ("conventional", "mec-shared"):
        ue = network.add_ue()
        server_name = "internet"
    else:
        raise ValueError(f"unknown system {system!r}")

    if bg_mbps > 0:
        network.add_background_load(rate=bg_mbps * 1e6).start()

    pinger = Pinger(network, ue, server_name, size=size, interval=interval)
    pinger.run(count=count, start=warmup)
    network.sim.run(until=warmup + count * interval + tail)
    pinger.close()

    if pinger.rtts:
        median = float(np.median(pinger.rtts))
    else:
        median = warmup + tail      # replies trapped behind the queue
    return {
        "median_rtt_ms": median * 1e3,
        "rtts_ms": [r * 1e3 for r in pinger.rtts],
        "answered": len(pinger.rtts),
        "lost": pinger.lost,
    }


# ---------------------------------------------------------------------------
# bearer_setup: dedicated-bearer latency vs concurrent signalling load
# ---------------------------------------------------------------------------

@workload("bearer_setup")
def run_bearer_setup(trial: TrialSpec) -> dict[str, Any]:
    """Dedicated-bearer setup latency under concurrent signalling load.

    Attaches ``n_ues`` UEs, then activates one dedicated MEC bearer per
    UE *simultaneously*: every procedure runs as a simulator process, so
    the setups contend on the shared RRC channel and the core
    signalling paths.  Reports the distribution of measured per-bearer
    setup latencies -- the control-plane analog of the paper's Section
    5.4 sequence under load.

    Parameters (``trial.params``):

    * ``n_ues`` -- number of UEs activating concurrently;
    * ``qci`` -- QCI of the dedicated bearers (default 3).
    """
    from repro.core.config import NetworkConfig
    from repro.core.network import MobileNetwork
    from repro.epc.entities import ServicePolicy

    p = trial.param_dict
    n_ues = int(p.get("n_ues", 10))
    qci = int(p.get("qci", 3))

    network = MobileNetwork(NetworkConfig(seed=trial.seed))
    network.add_mec_site("mec")
    network.add_server("ci", site_name="mec", echo=True)
    network.pcrf.configure(ServicePolicy(service_id="svc", qci=qci))
    server_ip = network.servers["ci"].ip
    cp = network.control_plane

    ues = [network.add_ue() for _ in range(n_ues)]    # sequential attach
    procs = [cp.activate_dedicated_bearer_async(ue, "svc", server_ip, "mec")
             for ue in ues]
    network.sim.run()

    latencies = [proc.value.elapsed for proc in procs
                 if proc.finished and proc.error is None]
    assert len(latencies) == n_ues
    return {
        "n_ues": n_ues,
        "setup_ms": [lat * 1e3 for lat in latencies],
        "mean_ms": float(np.mean(latencies)) * 1e3,
        "p95_ms": float(np.percentile(latencies, 95)) * 1e3,
        "max_ms": float(np.max(latencies)) * 1e3,
    }


# ---------------------------------------------------------------------------
# chaos: control-plane success rates under injected signalling loss
# ---------------------------------------------------------------------------

@workload("chaos")
def run_chaos(trial: TrialSpec) -> dict[str, Any]:
    """Attach/bearer success and latency under injected signalling loss.

    Builds a network with a MEC site, arms a
    :class:`~repro.faults.plan.ChannelLoss` fault on *every* signalling
    channel, then attaches ``n_ues`` UEs concurrently and activates one
    dedicated MEC bearer per attached UE.  With retries enabled the
    retransmission timers recover lost messages; with them disabled,
    losses surface as terminal ``timeout`` outcomes -- either way every
    procedure terminates, so the workload never deadlocks.

    Parameters (``trial.params``):

    * ``loss`` -- per-delivery drop probability on signalling channels;
    * ``retries`` -- whether retransmission is enabled
      (:class:`~repro.core.config.ResilienceConfig` ``enabled``);
    * ``n_ues`` -- UEs attaching (then activating bearers) concurrently;
    * ``qci`` -- QCI of the dedicated bearers (default 3).
    """
    from repro.core.config import NetworkConfig, ResilienceConfig
    from repro.core.network import MobileNetwork
    from repro.epc.entities import ServicePolicy
    from repro.faults import ChannelLoss, FaultInjector, FaultPlan

    p = trial.param_dict
    loss = float(p.get("loss", 0.05))
    retries = bool(p.get("retries", True))
    n_ues = int(p.get("n_ues", 20))
    qci = int(p.get("qci", 3))

    config = NetworkConfig(seed=trial.seed,
                           resilience=ResilienceConfig(enabled=retries))
    network = MobileNetwork(config)
    network.add_mec_site("mec")
    network.add_server("ci", site_name="mec", echo=True)
    network.pcrf.configure(ServicePolicy(service_id="svc", qci=qci))
    server_ip = network.servers["ci"].ip
    cp = network.control_plane

    if loss > 0:
        FaultInjector(network, FaultPlan((
            ChannelLoss(channel="*", rate=loss),))).arm()

    attach_procs = [network.add_ue_async() for _ in range(n_ues)]
    network.sim.run()
    attach_results = []
    for proc in attach_procs:
        assert proc.finished and proc.error is None, proc.error
        attach_results.append(proc.value.attach_result)

    attached_ues = [proc.value for proc in attach_procs
                    if proc.value.attached]
    bearer_procs = [
        cp.activate_dedicated_bearer_async(ue, "svc", server_ip, "mec")
        for ue in attached_ues]
    network.sim.run()
    bearer_results = []
    for proc in bearer_procs:
        assert proc.finished and proc.error is None, proc.error
        bearer_results.append(proc.value)

    def outcome_histogram(results):
        histogram: dict[str, int] = {}
        for result in results:
            histogram[result.outcome] = histogram.get(result.outcome, 0) + 1
        return histogram

    def success_stats(results):
        good = [r for r in results if r.outcome in ("ok", "retried-ok")]
        rate = len(good) / len(results) if results else 0.0
        mean_ms = (float(np.mean([r.elapsed for r in good])) * 1e3
                   if good else 0.0)
        return rate, mean_ms, good

    attach_rate, attach_mean_ms, _ = success_stats(attach_results)
    bearer_rate, bearer_mean_ms, _ = success_stats(bearer_results)
    return {
        "loss": loss,
        "retries": retries,
        "n_ues": n_ues,
        "attach_success_rate": attach_rate,
        "attach_outcomes": outcome_histogram(attach_results),
        "attach_mean_ms": attach_mean_ms,
        "bearer_success_rate": bearer_rate,
        "bearer_outcomes": outcome_histogram(bearer_results),
        "bearer_mean_ms": bearer_mean_ms,
        "retransmissions": network.fabric.retransmissions,
        "duplicates": network.fabric.duplicates,
        "signalling_drops": dict(sorted(network.fabric.drops.items())),
    }


# ---------------------------------------------------------------------------
# search_space: matching time/accuracy per scheme (Figure 11(a))
# ---------------------------------------------------------------------------

def build_context(scenario, db, seed: int) -> tuple:
    """Localisation state per checkpoint of ``scenario``.

    The user stands at each checkpoint through three discovery periods,
    so the tracker's EWMA smooths the shadowing noise.  Returns
    ``(localization, optimizer, samples)`` with one checkpoint sample
    each, in checkpoint order.
    """
    from repro.apps.retail import landmark_map_for
    from repro.apps.workload import CheckpointWorkload
    from repro.core.localization_manager import LocalizationManager
    from repro.core.optimizer import SearchSpaceOptimizer
    from repro.d2d.radio import RadioModel
    from repro.localization.pathloss import calibrate_from_radio

    radio = RadioModel()
    rng = np.random.default_rng(seed)
    regression = calibrate_from_radio(radio, rng)
    localization = LocalizationManager(landmark_map_for(scenario,
                                                        regression))
    workload_ = CheckpointWorkload(scenario, db, radio=radio, seed=seed)
    samples = []
    for cp in scenario.checkpoints:
        sample = workload_.sample(cp)
        for round_index in range(3):
            observations = workload_.landmark_observations(cp.position)
            for landmark, rx_power in observations.items():
                localization.report(cp.name, landmark, rx_power,
                                    float(round_index))
        samples.append(sample)
    return localization, SearchSpaceOptimizer(db, scenario), samples


def search_space_for(scheme: str, localization, optimizer, cp_name: str):
    """The search space one scheme (``naive`` | ``rxpower`` |
    ``acacia``) matches a frame from checkpoint ``cp_name`` against."""
    if scheme == "naive":
        return optimizer.naive()
    if scheme == "rxpower":
        return optimizer.rxpower(
            localization.strongest_landmarks(cp_name, now=1.0))
    location = localization.location(cp_name, now=1.0)
    return optimizer.acacia(
        location, localization.strongest_landmarks(cp_name, now=1.0))


@workload("search_space")
def run_search_space(trial: TrialSpec) -> dict[str, Any]:
    """Mean matching time per (resolution, scheme) on one machine.

    Parameters: ``machine`` (a :data:`repro.vision.costmodel.DEVICES`
    key), optional ``frames_per_checkpoint`` and ``n_features``.
    """
    from repro.apps.retail import build_retail_database
    from repro.apps.scenario import store_scenario
    from repro.vision.camera import R720x480, R960x720, R1280x720
    from repro.vision.costmodel import DEVICES

    p = trial.param_dict
    machine = p.get("machine", "i7-8core")
    frames_per_checkpoint = int(p.get("frames_per_checkpoint", 5))
    n_features = int(p.get("n_features", 60))
    schemes = ("acacia", "rxpower", "naive")
    resolutions = (R720x480, R960x720, R1280x720)

    scenario = store_scenario()
    db = build_retail_database(scenario, n_features=n_features)
    localization, optimizer, samples = build_context(scenario, db,
                                                     seed=trial.seed)

    device = DEVICES[machine]
    mean_ms: dict[str, float] = {}
    for resolution in resolutions:
        for scheme in schemes:
            times = []
            for sample in samples:
                space = search_space_for(scheme, localization, optimizer,
                                         sample.checkpoint.name)
                t = device.db_match_time(
                    resolution, db_objects=space.size,
                    object_features=db.mean_nominal_features(
                        space.records))
                times.extend([t] * frames_per_checkpoint)
            mean_ms[f"{resolution}|{scheme}"] = float(
                np.mean(times)) * 1e3

    misses: dict[str, list[str]] = {scheme: [] for scheme in schemes}
    for sample in samples:
        for scheme in schemes:
            space = search_space_for(scheme, localization, optimizer,
                                     sample.checkpoint.name)
            names = {record.name for record in space.records}
            if sample.record.name not in names:
                misses[scheme].append(sample.checkpoint.name)

    return {"machine": machine, "mean_ms": mean_ms, "misses": misses,
            "checkpoints": len(samples)}


# ---------------------------------------------------------------------------
# end_to_end: full-stack AR session breakdown (Figure 13)
# ---------------------------------------------------------------------------

@workload("end_to_end")
def run_end_to_end(trial: TrialSpec) -> dict[str, Any]:
    """Per-frame latency breakdown for one deployment kind.

    Parameters: ``kind`` (``cloud`` | ``mec`` | ``acacia``), optional
    ``frames``, ``checkpoint`` (index) and ``n_features``.
    """
    from repro.apps.retail import build_retail_database
    from repro.apps.scenario import store_scenario
    from repro.apps.workload import CheckpointWorkload
    from repro.baselines import build_deployment
    from repro.vision.camera import R720x480

    p = trial.param_dict
    kind = p.get("kind", "acacia")
    frames = int(p.get("frames", 8))
    checkpoint_index = int(p.get("checkpoint", 4))
    n_features = int(p.get("n_features", 60))

    scenario = store_scenario()
    db = build_retail_database(scenario, n_features=n_features)
    deployment = build_deployment(
        kind, db, scenario, seed=trial.seed,
        data_plane=p.get("data_plane", "packet"))
    checkpoint = scenario.checkpoints[checkpoint_index]
    workload_ = CheckpointWorkload(scenario, db, seed=trial.seed)
    # each frame is drawn when the session captures it, so the whole
    # session's descriptors are never alive at once; the extractor's
    # draws and their order are those of ``CheckpointWorkload.sample``
    record = workload_.nearest_object(checkpoint)
    frame_source = (workload_.extractor.frame_of(record.model, R720x480)
                    for _ in range(frames))

    if kind == "acacia":
        section = scenario.section_of_subsection(checkpoint.subsection)
        deployment.customer.move_to(checkpoint.position)
        deployment.customer.open([section])
        deployment.network.sim.run(until=32.0)
    session = deployment.new_session(frame_source,
                                     resolution=R720x480,
                                     max_frames=frames)
    session.start(at=deployment.network.sim.now)
    deployment.network.sim.run(until=deployment.network.sim.now + 120.0)

    breakdown = session.mean_breakdown()
    return {
        "kind": kind,
        "frames_completed": len(session.records),
        "all_matched": all(r.matched == record.name
                           for r in session.records),
        "breakdown_ms": {part: value * 1e3
                         for part, value in breakdown.items()},
    }


# ---------------------------------------------------------------------------
# scenario: the generic declarative-document interpreter
# ---------------------------------------------------------------------------

@workload("scenario")
def run_scenario(trial: TrialSpec) -> dict[str, Any]:
    """Interpret one scenario-document trial.

    The params carry the document's ``topology`` / ``network`` /
    ``traffic`` / ``mobility`` / ``faults`` / ``run`` sections (placed
    there by :meth:`repro.scenario.document.Scenario.compile`) plus
    any sweep-axis scalar overrides; the whole interpretation lives in
    :func:`repro.scenario.runtime.execute`, imported lazily so this
    registry never drags the scenario layer in for the other
    workloads.
    """
    from repro.scenario.runtime import execute
    return execute(trial)
