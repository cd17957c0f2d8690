"""Workload implementations the experiment runner can dispatch to.

A workload is a plain function ``fn(trial: TrialSpec) -> dict`` whose
return value is JSON-serialisable.  Workloads build their entire world
from ``trial.seed`` and ``trial.params`` -- no ambient state -- which is
what makes serial and process-parallel runs byte-identical.

Three workloads cover the paper's latency/matching experiments:

``ping``
    Median RTT from a UE through one of the three system designs
    (``conventional``, ``mec-shared``, ``acacia``) under background
    load -- the Figure 3(g)/10(b) measurement.
``search_space``
    Mean matching time and pruning accuracy per search scheme --
    the Figure 11(a) measurement.
``end_to_end``
    Per-frame latency breakdown of a full AR session for one
    deployment kind -- the Figure 13 measurement.
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
# scale: attach storm + data plane at growing UE counts
# ---------------------------------------------------------------------------

@workload("scale")
def run_scale(trial: TrialSpec) -> dict[str, Any]:
    """Whole-network behaviour as the UE population grows.

    Attaches ``n_ues`` UEs *concurrently* (an attach storm contending
    on the shared signalling channels), then exercises the data plane:
    optional background CBR load plus a short ping train from the
    first attached UE to a MEC server.  Reports attach success/latency
    statistics, the ping median RTT, and the simulator's event count
    -- the event count is fixed by the seed, so it doubles as a
    determinism probe for the throughput benchmarks.

    Parameters (``trial.params``):

    * ``n_ues`` -- UEs attaching concurrently;
    * ``bg_mbps`` -- background offered load in Mbit/s (default 0);
    * ``data_plane`` -- ``packet`` (default) or ``fluid-bg``;
    * ``pings`` -- ping-train length (default 5; 0 disables).
    """
    from repro.core.config import NetworkConfig, SimConfig
    from repro.core.network import MobileNetwork, Pinger

    p = trial.param_dict
    n_ues = int(p.get("n_ues", 100))
    bg_mbps = float(p.get("bg_mbps", 0))
    data_plane = p.get("data_plane", "packet")
    pings = int(p.get("pings", 5))

    network = MobileNetwork(NetworkConfig(
        seed=trial.seed, sim=SimConfig(data_plane=data_plane)))
    network.add_mec_site("mec")
    network.add_server("ci", site_name="mec", echo=True)

    attach_procs = [network.add_ue_async() for _ in range(n_ues)]
    network.sim.run()
    attach_results = []
    attached = []
    for proc in attach_procs:
        assert proc.finished and proc.error is None, proc.error
        attach_results.append(proc.value.attach_result)
        if proc.value.attached:
            attached.append(proc.value)

    good = [r for r in attach_results if r.outcome in ("ok", "retried-ok")]
    latencies = [r.elapsed for r in good]

    median_rtt_ms = None
    if pings > 0 and attached:
        if bg_mbps > 0:
            network.add_background_load(rate=bg_mbps * 1e6).start()
        start = network.sim.now
        pinger = Pinger(network, attached[0], "ci", size=256, interval=0.1)
        pinger.run(count=pings, start=1.0)
        network.sim.run(until=start + 1.0 + pings * 0.1 + 2.0)
        pinger.close()
        if pinger.rtts:
            median_rtt_ms = float(np.median(pinger.rtts)) * 1e3

    return {
        "n_ues": n_ues,
        "attach_success_rate": len(good) / n_ues if n_ues else 0.0,
        "attach_mean_ms": (float(np.mean(latencies)) * 1e3
                           if latencies else 0.0),
        "attach_p95_ms": (float(np.percentile(latencies, 95)) * 1e3
                          if latencies else 0.0),
        "median_rtt_ms": median_rtt_ms,
        "events_run": network.sim.events_run,
    }


# ---------------------------------------------------------------------------
# continuity: session survival while UEs sweep a multi-site edge fabric
# ---------------------------------------------------------------------------

@workload("continuity")
def run_continuity(trial: TrialSpec) -> dict[str, Any]:
    """CI-session continuity while UEs sweep across edge sites.

    Builds an ``n_sites``-site edge fabric (one CI echo server per
    site), attaches ``n_ues`` UEs in the first cell, gives each a
    dedicated-bearer CI session and walks them down the whole line of
    cells.  Every cross-boundary handover triggers application-context
    relocation under the configured policy; each UE pings its CI
    server throughout (retargeted to the new site's instance on
    :class:`~repro.core.events.SessionRelocated`), so the measured
    interruption and any ping loss are real data-plane effects.

    Parameters (``trial.params``):

    * ``policy`` -- ``make-before-break`` | ``break-before-make``;
    * ``n_ues`` -- walkers (scales to hundreds/thousands);
    * ``n_sites`` / ``enbs_per_site`` -- fabric shape;
    * ``context_kb`` -- application-context size per session (KB);
    * ``speed`` -- walk speed in m/s; ``cell_spacing`` -- metres
      between cells; ``stagger`` -- per-UE walk start offset (s);
    * ``hysteresis`` (m) and ``hysteresis_db`` (dB) -- handover
      margins; ``update_interval`` -- mobility tick (s);
    * ``bg_mbps`` -- central background load; ``data_plane`` --
      ``packet`` (default) or ``fluid-bg``;
    * ``ping_interval`` / ``ping_size`` -- probe-train shape
      (``ping_interval`` 0 disables probing);
    * ``tail`` -- settle time after the last walk ends (s).
    """
    from repro.apps.mobility import MobilityManager
    from repro.apps.scenario import WalkPath
    from repro.baselines.deployments import build_edge_fabric
    from repro.core.config import ContinuityConfig
    from repro.core.events import SessionRelocated
    from repro.core.network import Pinger

    p = trial.param_dict
    policy = p.get("policy", "make-before-break")
    n_ues = int(p.get("n_ues", 24))
    n_sites = int(p.get("n_sites", 3))
    enbs_per_site = int(p.get("enbs_per_site", 2))
    context_kb = float(p.get("context_kb", 2000))
    speed = float(p.get("speed", 25.0))
    cell_spacing = float(p.get("cell_spacing", 100.0))
    stagger = float(p.get("stagger", 0.05))
    hysteresis = float(p.get("hysteresis", 3.0))
    hysteresis_db = float(p.get("hysteresis_db", 0.0))
    update_interval = float(p.get("update_interval", 0.5))
    bg_mbps = float(p.get("bg_mbps", 0))
    data_plane = p.get("data_plane", "packet")
    ping_interval = float(p.get("ping_interval", 0.2))
    ping_size = int(p.get("ping_size", 256))
    tail = float(p.get("tail", 5.0))

    fabric = build_edge_fabric(
        n_sites=n_sites, enbs_per_site=enbs_per_site, seed=trial.seed,
        continuity=ContinuityConfig(
            policy=policy, context_size_bytes=int(context_kb * 1000)),
        data_plane=data_plane, cell_spacing=cell_spacing)
    network = fabric.network
    mrs = fabric.mrs

    relocated: list[SessionRelocated] = []
    pingers: dict[str, Pinger] = {}

    def on_relocated(event: SessionRelocated) -> None:
        relocated.append(event)
        pinger = pingers.get(event.imsi)
        if pinger is not None:
            server_name = fabric.server_of_site[event.to_site]
            pinger.server = network.servers[server_name]

    network.hooks.on(SessionRelocated, on_relocated)

    # attach storm in the first cell, then one CI session per UE
    attach_procs = [network.add_ue_async(enb_name="enb0")
                    for _ in range(n_ues)]
    network.sim.run()
    ues = []
    for proc in attach_procs:
        assert proc.finished and proc.error is None, proc.error
        if proc.value.attached:
            ues.append(proc.value)
    for ue in ues:
        mrs.request_connectivity(ue, fabric.service_id)

    if bg_mbps > 0:
        network.add_background_load(rate=bg_mbps * 1e6).start()

    # walk the whole line of cells, staggered so handovers overlap but
    # do not all fire in the same tick
    manager = MobilityManager(network, fabric.enb_positions,
                              update_interval=update_interval,
                              hysteresis=hysteresis,
                              hysteresis_db=hysteresis_db)
    end_x = cell_spacing * (n_sites * enbs_per_site - 1)
    walk_duration = end_x / speed
    start_at = network.sim.now + 1.0
    users = []
    for i, ue in enumerate(ues):
        walk = WalkPath(waypoints=[(0.0, 0.0), (end_x, 0.0)], speed=speed)
        network.sim.schedule(
            start_at + i * stagger - network.sim.now,
            lambda u=ue, w=walk: users.append(manager.add_mobile(u, w)))
        if ping_interval > 0:
            pinger = Pinger(network, ue, fabric.server_of_site["edge0"],
                            size=ping_size, interval=ping_interval)
            count = int((walk_duration + n_ues * stagger + tail)
                        / ping_interval)
            pinger.run(count=count, start=start_at + i * stagger)
            pingers[ue.imsi] = pinger

    horizon = start_at + n_ues * stagger + walk_duration + tail
    network.sim.run(until=horizon)
    for pinger in pingers.values():
        pinger.close()

    last_site = f"edge{n_sites - 1}"
    sessions_alive = 0
    sessions_on_last_site = 0
    for ue in ues:
        session = mrs.session_for(ue, fabric.service_id)
        if session is None:
            continue
        bearer = ue.bearers.bearers.get(session.ebi)
        if bearer is not None and bearer.active:
            sessions_alive += 1
            if session.instance.site_name == last_site:
                sessions_on_last_site += 1

    interruptions = [e.interruption for e in relocated]
    handovers = sum(len(u.handovers) for u in users)
    answered = sum(len(pg.rtts) for pg in pingers.values())
    lost = sum(pg.lost for pg in pingers.values())
    return {
        "policy": policy,
        "n_ues": n_ues,
        "n_sites": n_sites,
        "attached": len(ues),
        "handovers": handovers,
        "relocations_started": mrs.relocations_started,
        "relocations_completed": mrs.relocations_completed,
        "relocations_skipped_fault": mrs.relocations_skipped_fault,
        "sessions_alive": sessions_alive,
        "sessions_on_last_site": sessions_on_last_site,
        "interruption_ms": {
            "mean": (float(np.mean(interruptions)) * 1e3
                     if interruptions else 0.0),
            "p95": (float(np.percentile(interruptions, 95)) * 1e3
                    if interruptions else 0.0),
            "max": (float(np.max(interruptions)) * 1e3
                    if interruptions else 0.0),
        },
        "context_bytes_moved": sum(e.transferred_bytes for e in relocated),
        "pings_answered": answered,
        "pings_lost": lost,
        "events_run": network.sim.events_run,
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
    workload_ = CheckpointWorkload(scenario, db, seed=trial.seed,
                                   frames_per_object=frames,
                                   resolution=R720x480)
    sample = workload_.sample(checkpoint)

    if kind == "acacia":
        section = scenario.section_of_subsection(checkpoint.subsection)
        deployment.customer.move_to(checkpoint.position)
        deployment.customer.open([section])
        deployment.network.sim.run(until=32.0)
    session = deployment.new_session(iter(sample.frames),
                                     resolution=R720x480,
                                     max_frames=frames)
    session.start(at=deployment.network.sim.now)
    deployment.network.sim.run(until=deployment.network.sim.now + 120.0)

    breakdown = session.mean_breakdown()
    return {
        "kind": kind,
        "frames_completed": len(session.records),
        "all_matched": all(r.matched == sample.record.name
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
