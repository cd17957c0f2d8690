"""The operator runtime: config, pacer, matcher fleets, load curve,
autoscaler, telemetry, control plane, and the determinism contract."""

import asyncio
import dataclasses
import json
import threading
import time

import pytest

from repro.core.config import ConfigError
from repro.ops.autoscaler import Autoscaler
from repro.ops.config import (AutoscalerConfig, FlashCrowd, LoadConfig,
                              MatcherServiceConfig, OPS_SECTIONS,
                              OpsConfig, PacerConfig, TelemetryConfig,
                              ops_field_names)
from repro.ops.control import (ControlClient, ControlError,
                               ControlServer, parse_endpoint)
from repro.ops.events import ScaleDown, ScaleUp
from repro.ops.load import DiurnalLoadModel, MatchLoadGenerator
from repro.ops.matchsvc import SiteMatcherService, build_services
from repro.ops.pacer import Pacer
from repro.ops.service import OpsService
from repro.scenario.schema import SCHEMA
from repro.sim import SimContext


# ---------------------------------------------------------------------------
# OpsConfig
# ---------------------------------------------------------------------------

def test_ops_config_defaults_from_none_and_empty():
    assert OpsConfig.from_dict(None) == OpsConfig()
    assert OpsConfig.from_dict({}) == OpsConfig()


def test_ops_config_round_trip():
    doc = {"pacer": {"rtf": 10.0, "quantum": 0.5},
           "telemetry": {"gauge_interval": 2.0, "window": 32},
           "matcher": {"service_time": 0.08, "jitter": 0.02},
           "autoscaler": {"min_workers": 2, "max_workers": 4},
           "load": {"base_rps": 1.0, "peak_rps": 5.0,
                    "flash_crowds": [{"at": 0.25, "rps": 3.0}]}}
    cfg = OpsConfig.from_dict(doc)
    assert cfg.pacer.rtf == 10.0
    assert cfg.telemetry.window == 32
    assert cfg.matcher.service_time == 0.08
    assert cfg.autoscaler.min_workers == 2
    assert cfg.load.flash_crowds == (FlashCrowd(at=0.25, rps=3.0),)
    # unset sections keep their defaults
    assert cfg.autoscaler.sustain == AutoscalerConfig().sustain


def test_ops_config_rejects_unknown_section_and_key():
    with pytest.raises(ConfigError, match=r"ops.*scaler9000"):
        OpsConfig.from_dict({"scaler9000": {}})
    with pytest.raises(ConfigError, match=r"ops\.pacer"):
        OpsConfig.from_dict({"pacer": {"speed": 2}})
    with pytest.raises(ConfigError, match=r"flash_crowds\[1\]"):
        OpsConfig.from_dict({"load": {"flash_crowds":
                                      [{"at": 0.1}, {"when": 0.2}]}})


@pytest.mark.parametrize("section,bad", [
    ("pacer", {"rtf": -1}),
    ("pacer", {"quantum": 0}),
    ("telemetry", {"gauge_interval": 0}),
    ("telemetry", {"window": 0}),
    ("matcher", {"service_time": 0}),
    ("matcher", {"service_time": 0.01, "jitter": 0.01}),
    ("autoscaler", {"min_workers": 0}),
    ("autoscaler", {"min_workers": 4, "max_workers": 2}),
    ("autoscaler", {"low_queue": 9.0, "high_queue": 8.0}),
    ("autoscaler", {"sustain": 0}),
    ("autoscaler", {"interval": 0}),
    ("load", {"peak_rps": 1.0, "base_rps": 2.0}),
    ("load", {"peak_at": 1.5}),
    ("load", {"flash_crowds": [{"at": 2.0}]}),
])
def test_ops_config_validation(section, bad):
    with pytest.raises((ValueError, ConfigError)):
        OpsConfig.from_dict({section: bad})


def test_scenario_schema_pins_ops_sections():
    """The literal ``ops`` block in the scenario schema cannot drift
    from the dataclasses (scenario must stay importable without ops,
    so it carries a copy)."""
    schema_ops = SCHEMA["properties"]["ops"]["properties"]
    assert set(schema_ops) == set(OPS_SECTIONS)
    for section in OPS_SECTIONS:
        assert (set(schema_ops[section]["properties"])
                == ops_field_names(section)), section
    crowd = (schema_ops["load"]["properties"]["flash_crowds"]
             ["items"])
    assert (set(crowd["properties"])
            == {f.name for f in dataclasses.fields(FlashCrowd)})
    assert crowd["required"] == ["at"]


# ---------------------------------------------------------------------------
# Pacer
# ---------------------------------------------------------------------------

def test_unpaced_advance_parks_clock_and_yields():
    ctx = SimContext(seed=0)
    fired = []
    ctx.sim.schedule(1.0, lambda: fired.append(ctx.now))
    pacer = Pacer(ctx.sim, PacerConfig(rtf=0.0, quantum=0.25))
    asyncio.run(pacer.advance(5.0))
    assert fired == [1.0]
    assert ctx.now == 5.0       # clock parks at the milestone
    assert pacer.slices >= 1
    assert not pacer.paced


def test_paced_advance_tracks_wall_clock():
    ctx = SimContext(seed=0)
    for k in range(10):
        ctx.sim.schedule(0.1 * (k + 1), lambda: None)
    # 1 simulated second at rtf=20 -> ~50ms wall
    pacer = Pacer(ctx.sim, PacerConfig(rtf=20.0, quantum=0.1))
    start = time.monotonic()
    asyncio.run(pacer.advance(1.0))
    elapsed = time.monotonic() - start
    assert ctx.now == 1.0
    assert 0.02 <= elapsed < 2.0
    assert pacer.paced
    stats = pacer.stats()
    assert stats["slices"] == pacer.slices >= 1
    assert stats["max_drift_s"] >= 0.0


def test_pacer_stop_request_breaks_out_early():
    ctx = SimContext(seed=0)

    def stopper():
        pacer.stop_requested = True

    ctx.sim.schedule(1.0, stopper)
    ctx.sim.schedule(50.0, lambda: None)
    pacer = Pacer(ctx.sim, PacerConfig(rtf=0.0, quantum=0.5))
    asyncio.run(pacer.advance(100.0))
    assert ctx.now < 100.0


def test_paced_advance_notices_events_armed_mid_sleep():
    """Control callbacks arming earlier events interrupt a long sleep.

    With one far event the pacer computes a single long wall sleep from
    ``next_event_time()``.  A control-plane callback then spawns a
    process (reentrant engine use, exactly what the control API does
    between slices) whose work is due *much* earlier.  The pacer must
    re-sample its bound -- via ``Simulator.arm_epoch`` -- and run the
    new work at its paced wall time instead of sleeping through to the
    far event (the pre-fix behaviour: the spawned work fired seconds
    late, after the full original sleep).
    """
    ctx = SimContext(seed=0)
    sim = ctx.sim
    fired: list[float] = []
    sim.schedule(100.0, lambda: None)       # only event: ~10s wall away
    pacer = Pacer(sim, PacerConfig(rtf=10.0, quantum=0.25))

    def proc():
        yield 1.0                           # due at ~0.1s wall (rtf=10)
        fired.append(time.monotonic())

    async def scenario():
        start = time.monotonic()
        advance = asyncio.create_task(pacer.advance(100.0))
        await asyncio.sleep(0.2)            # pacer is mid-sleep now
        sim.spawn(proc())                   # control mutation arms work
        await asyncio.sleep(1.0)
        pacer.stop_requested = True
        await advance
        return start

    start = asyncio.run(scenario())
    assert fired, "event armed mid-sleep never fired (pacer overslept)"
    # generous for busy CI hosts; the broken pacer needed the full ~10s
    assert fired[0] - start < 1.1


# ---------------------------------------------------------------------------
# SiteMatcherService
# ---------------------------------------------------------------------------

def make_service(workers=1, service_time=0.1, jitter=0.0, max_queue=4,
                 seed=1):
    ctx = SimContext(seed=seed)
    svc = SiteMatcherService(
        ctx, "mec0",
        MatcherServiceConfig(service_time=service_time, jitter=jitter),
        workers=workers, window=16, max_queue=max_queue)
    return ctx, svc


def test_matcher_service_completes_and_measures_latency():
    ctx, svc = make_service(workers=1, service_time=0.1)
    for _ in range(3):
        assert svc.submit()
    ctx.sim.run(until=1.0)
    assert svc.completed == 3
    assert svc.busy == 0 and svc.queue_depth == 0
    # FIFO behind one worker: latencies 100, 200, 300 ms
    assert svc.p50_ms() == pytest.approx(200.0)
    assert svc.p99_ms() == pytest.approx(300.0, rel=0.01)
    gauges = svc.gauges()
    assert gauges["completed"] == 3 and gauges["dropped"] == 0


def test_matcher_service_sheds_beyond_max_queue():
    ctx, svc = make_service(workers=1, service_time=1.0, max_queue=2)
    accepted = [svc.submit() for _ in range(5)]
    # 1 in service + 2 queued; the rest shed
    assert accepted == [True, True, True, False, False]
    assert svc.dropped == 2
    assert svc.load() == 1.0
    ctx.sim.run(until=10.0)
    assert svc.completed == 3
    assert svc.load() == 0.0


def test_matcher_scale_up_drains_queue_faster():
    def drain_time(workers):
        ctx, svc = make_service(workers=workers, service_time=0.1,
                                max_queue=64)
        for _ in range(8):
            svc.submit()
        ctx.sim.run(until=10.0)
        return max(svc.latencies)

    assert drain_time(4) < drain_time(1)


def test_matcher_scale_down_is_graceful():
    ctx, svc = make_service(workers=4, service_time=1.0, max_queue=64)
    for _ in range(4):
        svc.submit()
    assert svc.busy == 4
    svc.scale_to(1)             # in-flight jobs still complete
    ctx.sim.run(until=2.0)
    assert svc.completed == 4
    assert svc.workers == 1
    with pytest.raises(ValueError):
        svc.scale_to(0)


def test_matcher_service_latencies_are_seed_deterministic():
    def run(seed):
        ctx, svc = make_service(workers=2, service_time=0.1,
                                jitter=0.05, max_queue=64, seed=seed)
        for _ in range(6):
            svc.submit()
        ctx.sim.run(until=5.0)
        return list(svc.latencies)

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_build_services_sorted_per_site_streams():
    ctx = SimContext(seed=0)
    services = build_services(ctx, ["zeta", "alpha"],
                              MatcherServiceConfig(), TelemetryConfig(),
                              workers=2)
    assert list(services) == ["alpha", "zeta"]
    assert all(s.workers == 2 for s in services.values())
    assert all(s.rng is ctx.rng(f"ops.match.{site}")
               for site, s in services.items())


# ---------------------------------------------------------------------------
# Diurnal load
# ---------------------------------------------------------------------------

def test_diurnal_curve_crest_trough_and_surges():
    cfg = LoadConfig(base_rps=2.0, peak_rps=10.0, peak_at=0.5,
                     flash_crowds=(FlashCrowd(at=0.25, duration=0.1,
                                              rps=5.0),))
    model = DiurnalLoadModel(cfg, period=100.0)
    assert model.base_rate(50.0) == pytest.approx(10.0)   # crest
    assert model.base_rate(0.0) == pytest.approx(2.0)     # trough
    assert model.base_rate(100.0) == pytest.approx(2.0)   # periodic
    assert model.surge_rate(30.0) == 5.0                  # crowd active
    assert model.surge_rate(40.0) == 0.0                  # crowd over
    assert model.rate(30.0) == pytest.approx(
        model.base_rate(30.0) + 5.0)
    assert model.max_rate == 15.0
    with pytest.raises(ValueError):
        DiurnalLoadModel(cfg, period=0.0)


def test_load_generator_offers_thinned_poisson_arrivals():
    ctx = SimContext(seed=3)
    services = build_services(ctx, ["mec0", "mec1"],
                              MatcherServiceConfig(service_time=0.001,
                                                   jitter=0.0),
                              TelemetryConfig(), workers=4)
    cfg = LoadConfig(base_rps=5.0, peak_rps=5.0)    # flat 5 rps/site
    gen = MatchLoadGenerator(ctx, services, DiurnalLoadModel(cfg, 100.0),
                             start=0.0, end=100.0)
    gen.start_generation()
    with pytest.raises(RuntimeError, match="already started"):
        gen.start_generation()
    ctx.sim.run(until=200.0)
    # ~500 arrivals/site expected; allow generous Poisson slack
    for svc in services.values():
        assert 350 <= svc.submitted <= 650
    assert gen.offered == sum(s.submitted for s in services.values())


def test_load_generator_draw_count_independent_of_curve_shape():
    """Poisson thinning: reshaping the curve must not change how many
    draws the ``ops.load`` stream makes (the isolation guarantee)."""
    def final_draw(cfg):
        ctx = SimContext(seed=11)
        services = build_services(
            ctx, ["mec0"],
            MatcherServiceConfig(service_time=0.001, jitter=0.0),
            TelemetryConfig(), workers=4)
        gen = MatchLoadGenerator(ctx, services,
                                 DiurnalLoadModel(cfg, 50.0),
                                 start=0.0, end=50.0)
        gen.start_generation()
        ctx.sim.run(until=60.0)
        return float(ctx.rng("ops.load").random())

    flat = final_draw(LoadConfig(base_rps=10.0, peak_rps=10.0))
    shaped = final_draw(LoadConfig(base_rps=0.0, peak_rps=10.0,
                                   peak_at=0.2))
    assert flat == shaped


# ---------------------------------------------------------------------------
# Autoscaler
# ---------------------------------------------------------------------------

def make_autoscaler(ctx, svc, **overrides):
    defaults = dict(min_workers=1, max_workers=4, high_queue=4.0,
                    low_queue=1.0, high_p99_ms=1e9, low_p99_ms=1e9,
                    sustain=2, cooldown=0.0, step=1, interval=10.0)
    defaults.update(overrides)
    return Autoscaler(ctx, {svc.site: svc},
                      AutoscalerConfig(**defaults))


def test_autoscaler_needs_sustained_pressure():
    ctx, svc = make_service(workers=1, service_time=10.0, max_queue=64)
    scaler = make_autoscaler(ctx, svc, sustain=3)
    for _ in range(8):
        svc.submit()            # queue depth 7 > high_queue
    scaler.evaluate()
    scaler.evaluate()
    assert svc.workers == 1     # two hot evals < sustain=3
    scaler.evaluate()
    assert svc.workers == 2 and scaler.scale_ups == 1


def test_autoscaler_cooldown_spaces_actions():
    ctx, svc = make_service(workers=1, service_time=30.0, max_queue=64)
    scaler = make_autoscaler(ctx, svc, sustain=1, cooldown=100.0,
                             low_p99_ms=0.0)
    for _ in range(20):
        svc.submit()
    scaler.evaluate()
    assert svc.workers == 2
    scaler.evaluate()           # still hot, but cooling
    assert svc.workers == 2
    ctx.sim.schedule(200.0, scaler.evaluate)
    ctx.sim.run(until=201.0)        # cooldown elapsed, queue still deep
    assert svc.workers == 3


def test_autoscaler_scales_down_when_cold_and_clamps():
    ctx, svc = make_service(workers=3, service_time=0.01, max_queue=64)
    scaler = make_autoscaler(ctx, svc, sustain=1, low_p99_ms=1e9)
    seen = []
    ctx.hooks.on(ScaleDown, seen.append)
    for _ in range(4):
        scaler.evaluate()       # idle: cold every time
    assert svc.workers == 1     # clamped at min_workers
    assert scaler.scale_downs == 2
    assert [e.to_workers for e in seen] == [2, 1]


def test_autoscaler_hysteresis_band_resets_streaks():
    ctx, svc = make_service(workers=1, service_time=10.0, max_queue=64)
    scaler = make_autoscaler(ctx, svc, sustain=2, high_queue=4.0,
                             low_queue=1.0)
    for _ in range(4):
        svc.submit()            # depth 3: between low and high
    scaler.evaluate()
    for _ in range(4):
        svc.submit()            # now depth 7: hot
    scaler.evaluate()
    assert svc.workers == 1     # hot streak restarted at 1
    scaler.evaluate()
    assert svc.workers == 2


def test_autoscaler_disabled_never_starts():
    ctx, svc = make_service()
    scaler = make_autoscaler(ctx, svc, enabled=False)
    scaler.start(until=100.0)
    assert not scaler._running
    assert ctx.sim.next_event_time() is None    # no tick scheduled


def test_autoscaler_periodic_ticks_emit_events():
    ctx, svc = make_service(workers=1, service_time=10.0, max_queue=64)
    scaler = make_autoscaler(ctx, svc, sustain=1, interval=5.0)
    ups = []
    ctx.hooks.on(ScaleUp, ups.append)
    for _ in range(30):
        svc.submit()
    scaler.start(until=20.0)
    ctx.sim.run(until=100.0)
    assert scaler.scale_ups >= 2
    assert ups[0].site == "mec0" and ups[0].from_workers == 1


# ---------------------------------------------------------------------------
# Control plane plumbing
# ---------------------------------------------------------------------------

def test_parse_endpoint():
    assert parse_endpoint("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
    assert parse_endpoint("tcp:127.0.0.1:9000") == ("tcp", "127.0.0.1",
                                                    9000)
    for bad in ("unix:", "tcp:nohost", "tcp:host:notaport", "x:/y"):
        with pytest.raises(ValueError):
            parse_endpoint(bad)


class StubTelemetry:
    def __init__(self):
        self.queues = []

    def subscribe(self, queue):
        self.queues.append(queue)

    def unsubscribe(self, queue):
        if queue in self.queues:
            self.queues.remove(queue)


class StubService:
    """Just enough surface for ControlServer."""

    def __init__(self):
        self.telemetry = StubTelemetry()

    def dispatch(self, method, params):
        if method == "echo":
            return {"echo": params}
        raise ValueError(f"no such method {method!r}")


@pytest.fixture()
def control_pair(tmp_path):
    endpoint = f"unix:{tmp_path / 'ops.sock'}"
    stub = StubService()
    server = ControlServer(stub, endpoint)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def runner():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert started.wait(5.0)
    yield endpoint, stub, loop

    async def shutdown():
        await server.stop()
        current = asyncio.current_task()
        for task in asyncio.all_tasks():
            if task is not current:
                task.cancel()
        await asyncio.sleep(0)      # let cancellations unwind
    asyncio.run_coroutine_threadsafe(shutdown(), loop).result(5.0)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(5.0)
    loop.close()


def test_control_round_trip_and_errors(control_pair):
    endpoint, _, _ = control_pair
    with ControlClient(endpoint) as client:
        assert client.call("echo", value=42) == {"echo": {"value": 42}}
        with pytest.raises(ControlError, match="frobnicate"):
            client.call("frobnicate")
        # connection survives an error response
        assert client.call("echo") == {"echo": {}}


def test_control_subscribe_streams_telemetry(control_pair):
    endpoint, stub, loop = control_pair
    got = []
    with ControlClient(endpoint) as client:
        # stream() is a generator: consume it from a helper thread so
        # the subscribe round trip actually runs
        reader = threading.Thread(
            target=lambda: got.append(next(client.stream())),
            daemon=True)
        reader.start()

        def push():
            for queue in stub.telemetry.queues:
                queue.put_nowait(json.dumps({"type": "gauge", "n": 1}))

        deadline = time.monotonic() + 5.0
        while not stub.telemetry.queues:
            assert time.monotonic() < deadline, "never subscribed"
            time.sleep(0.01)
        loop.call_soon_threadsafe(push)
        reader.join(5.0)
        assert not reader.is_alive()
    assert got == [{"type": "gauge", "n": 1}]


# ---------------------------------------------------------------------------
# OpsService: determinism and the control surface end-to-end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def soak_scenario():
    from repro.scenario.loader import load
    return load("diurnal_soak")


def run_soak(scenario, duration=40.0):
    service = OpsService(scenario, duration=duration)
    summary = service.run_batch()
    return summary, service.metrics_digest(summary)


@pytest.fixture(scope="module")
def soak_run(soak_scenario):
    """One batch soak per length, shared by the tests that only read it
    (the 600 s day costs ~0.6 s a run)."""
    runs = {}

    def get(duration=40.0):
        if duration not in runs:
            runs[duration] = run_soak(soak_scenario, duration)
        return runs[duration]
    return get


#: Soak lengths (simulated seconds) -> the scale-downs each must show:
#: 40 s ends before the diurnal trough, the compressed 600 s day does
#: not.
SOAK_SCALE_DOWNS = {40.0: 0, 600.0: 1}
SOAK_LENGTHS = pytest.mark.parametrize("duration", sorted(SOAK_SCALE_DOWNS),
                                       ids=lambda d: f"{d:.0f}s")


@SOAK_LENGTHS
def test_batch_soak_is_byte_deterministic(soak_scenario, soak_run,
                                          duration):
    first, first_digest = soak_run(duration)
    second, second_digest = run_soak(soak_scenario, duration)
    assert (first["ops"]["telemetry_digest"]
            == second["ops"]["telemetry_digest"])
    assert first_digest == second_digest
    assert first == second
    # every CI session survives the day, and the autoscaler acts
    ops = first["ops"]
    assert ops["ci_sessions_dropped"] == 0
    assert first["session_failures"] == 0
    assert first["sessions_alive"] == first["attached"] > 0
    assert ops["scale_ups"] >= 1
    assert ops["scale_downs"] >= SOAK_SCALE_DOWNS[duration]


@SOAK_LENGTHS
def test_ops_runtime_does_not_perturb_the_scenario(soak_scenario, soak_run,
                                                   duration):
    """The operator layer is a pure observer: the scenario metrics are
    those of the plain batch run (bar the event count)."""
    from repro.scenario.runtime import execute

    summary, _ = soak_run(duration)
    trial = soak_scenario.compile().trials()[0]
    trial = dataclasses.replace(
        trial, params=trial.params + (("duration", duration),))
    reference = execute(trial)
    shared = {k: v for k, v in summary.items()
              if k not in ("ops", "events_run")}
    assert shared == {k: v for k, v in reference.items()
                      if k != "events_run"}
    assert summary["events_run"] > reference["events_run"]


def test_seed_override_changes_the_digest(soak_scenario, soak_run):
    base, _ = soak_run()
    service = OpsService(soak_scenario, seed=123, duration=40.0)
    other = service.run_batch()
    assert (other["ops"]["telemetry_digest"]
            != base["ops"]["telemetry_digest"])


def test_dispatch_rejects_unknown_methods(soak_scenario):
    service = OpsService(soak_scenario, duration=40.0)
    with pytest.raises(ValueError, match="no such method"):
        service.dispatch("reboot_datacenter", {})
    with pytest.raises(ValueError, match="no such method"):
        service.dispatch("_rpc_status", {})   # no reaching internals
    assert service.dispatch("ping", {}) == "pong"


def test_served_soak_full_control_flow(tmp_path, soak_scenario):
    """The acceptance flow: a paced serve with a second-thread client
    that attaches a UE, injects a fault, streams telemetry, queries
    load, and shuts the service down."""
    endpoint = f"unix:{tmp_path / 'soak.sock'}"
    service = OpsService(soak_scenario, duration=120.0, rtf=40.0)
    result = {}

    def serve():
        result["summary"] = asyncio.run(service.serve(endpoint=endpoint))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10.0
    while not (tmp_path / "soak.sock").exists():
        assert time.monotonic() < deadline, "socket never appeared"
        time.sleep(0.02)

    with ControlClient(endpoint) as client:
        assert client.call("ping") == "pong"
        status = client.call("status")
        assert status["scenario"] == "diurnal_soak"
        assert status["pacer"]["rtf"] == 40.0

        attach = client.call("attach_ue", enb="enb0")
        assert attach["ue"] == "opsue0"

        fault = client.call("inject_fault",
                            spec={"type": "channel_loss",
                                  "channel": "s1ap", "rate": 0.2,
                                  "at": 0.0, "until": 2.0})
        assert fault["armed"]["type"] == "channel_loss"

        load = client.call("site_load")
        assert set(load) == set(service.services)
        for entry in load.values():
            assert 0.0 <= entry["pressure"] <= 1.0

        with pytest.raises(ControlError, match="no such UE"):
            client.call("detach_ue", ue="ghost")

        with ControlClient(endpoint) as tail:
            stream = tail.stream()
            record = next(stream)
            assert "t" in record and "type" in record

        drained = client.call("drain")
        assert drained["draining"]
        assert client.call("shutdown") == {"stopping": True}

    thread.join(30.0)
    assert not thread.is_alive()
    summary = result["summary"]
    assert summary["ops"]["live_faults_injected"] == 1
    # the attached ops UE made it into the network
    assert summary["attached"] >= 12
