"""Sharded execution: determinism, deadlock freedom, runner wiring.

The load-bearing property is byte-identity: a sharded run must produce
exactly the result of the single-process run, on every preset.  The
differential tests here drive the same worlds
through both backends and compare canonical digests (plus the
execution-order cross-delivery traces embedded in them).
"""

import random

import pytest

from repro.core.network import wan_link_name
from repro.exp.runner import (ExperimentRunner, _wants_isolation, run_trial,
                              shard_width)
from repro.exp.spec import ExperimentSpec, TrialSpec
from repro.exp.workloads import get as get_workload
from repro.sim.context import SimContext
from repro.sim.shard import (Conduit, ShardSpec, ShardedSimulator,
                             canonical_digest, run_isolated)


# ---------------------------------------------------------------------------
# a minimal shard app (module-level: specs cross process boundaries)
# ---------------------------------------------------------------------------

class TickApp:
    """Sends a tick to each peer every ``interval``; counts arrivals."""

    def __init__(self, port, seed=0, interval=0.25, peers=(),
                 until=1e9):
        self.sim = SimContext(seed=seed).sim
        self.port = port
        self.received = []
        self.sent = 0

        def tick(k=0):
            if self.sim.now > until:
                return
            for peer in peers:
                self.port.send(peer, {"k": k})
                self.sent += 1
            self.sim.schedule(interval, tick, k + 1)

        self.sim.schedule(0.1, tick)

    def deliver(self, src, payload):
        self.received.append([round(self.sim.now, 9), src, payload["k"]])

    def collect(self):
        return {"sent": self.sent, "received": self.received,
                "events": self.sim.events_run, "now": self.sim.now}


def _pair(backend, peers_a=("b",), peers_b=("a",), delay=0.05):
    specs = [ShardSpec("a", TickApp,
                       {"seed": 1, "interval": 0.2, "peers": list(peers_a)}),
             ShardSpec("b", TickApp,
                       {"seed": 2, "interval": 0.3, "peers": list(peers_b)})]
    return ShardedSimulator(specs, [Conduit("a", "b", delay)],
                            backend=backend)


# ---------------------------------------------------------------------------
# protocol basics
# ---------------------------------------------------------------------------

def test_inline_and_process_backends_are_byte_identical():
    runs = {}
    for backend in ("inline", "process"):
        sharded = _pair(backend)
        runs[backend] = (sharded.run(until=3.0), sharded)
    r_inline, s_inline = runs["inline"]
    r_process, s_process = runs["process"]
    assert canonical_digest(r_inline) == canonical_digest(r_process)
    assert s_inline.rounds == s_process.rounds
    assert s_inline.envelopes_sent == s_process.envelopes_sent
    assert r_inline["a"]["received"], "cross traffic never arrived"


def test_envelopes_arrive_at_true_delivery_times():
    result = _pair("inline", delay=0.05).run(until=1.0)
    # a ticks at 0.1, 0.3, 0.5, ...; b receives each 50 ms later
    times = [entry[0] for entry in result["b"]["received"]]
    assert times == pytest.approx([0.15, 0.35, 0.55, 0.75, 0.95])
    ticks = [entry[2] for entry in result["b"]["received"]]
    assert ticks == sorted(ticks)


def test_zero_cross_traffic_pair_does_not_deadlock():
    sharded = _pair("process", peers_a=(), peers_b=())
    result = sharded.run(until=2.0)
    assert result["a"]["sent"] == 0 and result["b"]["sent"] == 0
    assert not result["a"]["received"] and not result["b"]["received"]
    assert result["a"]["now"] >= 2.0 or result["a"]["events"] > 0


def test_undeliverable_envelopes_drop_identically():
    counts = {}
    for backend in ("inline", "process"):
        sharded = _pair(backend)
        sharded.run(until=0.11)     # ticks at 0.1 deliver at 0.15 > horizon
        counts[backend] = (sharded.envelopes_sent, sharded.envelopes_dropped)
    assert counts["inline"] == counts["process"]
    assert counts["inline"][1] > 0


def test_shard_child_failure_surfaces_with_traceback():
    specs = [ShardSpec("a", TickApp, {"peers": ["missing"]}),
             ShardSpec("b", TickApp, {})]
    sharded = ShardedSimulator(specs, [Conduit("a", "b", 0.05)],
                               backend="process")
    with pytest.raises(RuntimeError, match="no conduit to 'missing'"):
        sharded.run(until=1.0)


def test_federation_validation():
    spec = ShardSpec("a", TickApp, {})
    with pytest.raises(ValueError, match="at least one shard"):
        ShardedSimulator([])
    with pytest.raises(ValueError, match="duplicate shard names"):
        ShardedSimulator([spec, ShardSpec("a", TickApp, {})])
    with pytest.raises(ValueError, match="not a shard"):
        ShardedSimulator([spec], [Conduit("a", "ghost", 0.1)])
    with pytest.raises(ValueError, match="unknown backend"):
        ShardedSimulator([spec], backend="thread")
    with pytest.raises(ValueError, match="positive delay"):
        Conduit("a", "b", 0.0)
    with pytest.raises(ValueError, match="endpoints must differ"):
        Conduit("a", "a", 0.1)


def test_no_conduits_means_one_window():
    specs = [ShardSpec("a", TickApp, {"seed": 1}),
             ShardSpec("b", TickApp, {"seed": 2})]
    sharded = ShardedSimulator(specs)           # infinite lookahead
    result = sharded.run(until=5.0)
    assert sharded.rounds == 1
    assert result["a"]["events"] > 0


# ---------------------------------------------------------------------------
# randomized differential: the fabric workload, off vs site
# ---------------------------------------------------------------------------

def _fabric_trial(sharding, seed, n_sites=3):
    return TrialSpec(experiment="diff", index=0, workload="shard_fabric",
                     base_seed=0, seed=seed,
                     params=(("sharding", sharding), ("n_sites", n_sites),
                             ("n_ues", 2), ("duration", 1.5),
                             ("wan_delay", 0.05), ("sync_interval", 0.4)))


def test_shard_fabric_differential_randomized(event_recycling):
    """Same 3-site workload, sharding=off vs site, random seeds: the
    execution-order cross-delivery traces and full result digests must
    match exactly."""
    fn = get_workload("shard_fabric")
    for seed in random.Random(20260808).sample(range(10_000), 2):
        off = fn(_fabric_trial("off", seed))
        site = fn(_fabric_trial("site", seed))
        for name in off["sites"]:
            assert off["sites"][name]["sync_trace"] == \
                site["sites"][name]["sync_trace"]
        assert canonical_digest(off) == canonical_digest(site)
        assert off["sites"]["edge0"]["sync_received"] > 0
        assert off["sites"]["edge0"]["pings_answered"] > 0


def test_shard_fabric_result_carries_no_backend_marker():
    result = get_workload("shard_fabric")(_fabric_trial("off", 3))
    assert "sharding" not in result and "backend" not in result


# ---------------------------------------------------------------------------
# degenerate isolation + runner wiring
# ---------------------------------------------------------------------------

def _double(x):
    return {"doubled": 2 * x}


def _boom():
    raise RuntimeError("inner detail")


def test_run_isolated_returns_value_and_propagates_errors():
    assert run_isolated(_double, 21) == {"doubled": 42}
    with pytest.raises(RuntimeError, match="inner detail"):
        run_isolated(_boom)


def _scale_trial(extra=()):
    return TrialSpec(experiment="x", index=0, workload="scale",
                     base_seed=0, seed=5,
                     params=(("n_ues", 3), ("pings", 2)) + tuple(extra))


def test_runner_isolates_monolithic_site_trials():
    off = _scale_trial()
    site = _scale_trial((("sharding", "site"),))
    assert not _wants_isolation(off)
    assert _wants_isolation(site)
    r_off, r_site = run_trial(off), run_trial(site)
    assert r_off.status == "ok", r_off.error
    assert r_site.status == "ok", r_site.error
    assert canonical_digest(r_off.metrics) == canonical_digest(r_site.metrics)


def test_runner_never_isolates_the_shard_fleet_workload():
    assert not _wants_isolation(_fabric_trial("site", 0))


def test_worker_budget_divides_by_shard_width():
    assert shard_width(_fabric_trial("site", 0, n_sites=4)) == 4
    assert shard_width(_fabric_trial("off", 0, n_sites=4)) == 1
    assert shard_width(_scale_trial()) == 1
    spec = ExperimentSpec(name="b", workload="shard_fabric", seeds=(0,),
                          params={"sharding": "site", "n_sites": 4,
                                  "n_ues": 2, "duration": 0.5})
    runner = ExperimentRunner(spec, workers=8)
    assert runner.effective_workers(spec.trials()) == 2
    runner = ExperimentRunner(spec, workers=2)
    assert runner.effective_workers(spec.trials()) == 1


def test_sharding_config_validation():
    from repro.core.config import SimConfig
    assert SimConfig().sharding == "off"
    assert SimConfig(sharding="site").sharding == "site"
    with pytest.raises(ValueError, match="unknown sharding mode"):
        SimConfig(sharding="cell")


# ---------------------------------------------------------------------------
# satellite: precomputed WAN routing table
# ---------------------------------------------------------------------------

def test_wan_links_table_matches_named_links():
    from repro.baselines.deployments import build_edge_fabric
    network = build_edge_fabric(n_sites=3, enbs_per_site=1, seed=0).network
    sites = sorted(network.edge_sites)
    assert len(network.wan_links) == len(sites) * (len(sites) - 1)
    for a in sites:
        for b in sites:
            if a == b:
                assert (a, b) not in network.wan_links
                continue
            link = network.wan_links[(a, b)]
            assert link is network.wan_links[(b, a)]
            assert link is network.links[wan_link_name(a, b)]
    future = network.context_transfer_async("edge0", "edge2", 100_000)
    network.sim.run()
    assert future.done and future.value == 100_000
