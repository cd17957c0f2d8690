"""Tests for the multi-site edge fabric and CI-session continuity.

Covers the topology layer (edge sites, inter-site WAN mesh, eNodeB
home-site mapping), the context-transfer cost model, the SDN bearer
re-steer, and the MRS's application-context relocation policies
(make-before-break vs break-before-make).
"""

import pytest

from repro.apps.mobility import MobilityManager
from repro.apps.scenario import WalkPath
from repro.baselines.deployments import build_topology
from repro.core.config import ContinuityConfig, NetworkConfig
from repro.core.events import SessionRelocated, SessionRelocating
from repro.core.network import MobileNetwork, Pinger, wan_link_name
from repro.faults import FaultInjector, FaultPlan, McServerOutage
from repro.sdn.openflow import FlowMatch, FlowRule, Output
from repro.sim.packet import Packet
from tests.recording import MessageRecorder


# -- configuration ---------------------------------------------------------

class TestContinuityConfig:
    def test_defaults_valid(self):
        cfg = ContinuityConfig()
        assert cfg.policy == "make-before-break"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ContinuityConfig(policy="teleport")

    def test_bad_numbers_rejected(self):
        with pytest.raises(ValueError):
            ContinuityConfig(chunk_bytes=0)
        with pytest.raises(ValueError):
            ContinuityConfig(delta_fraction=1.5)
        with pytest.raises(ValueError):
            ContinuityConfig(context_size_bytes=-1)
        with pytest.raises(ValueError):
            ContinuityConfig(wan_bandwidth=0)


# -- topology --------------------------------------------------------------

class TestEdgeFabricTopology:
    def test_fabric_builds_sites_and_wan_mesh(self):
        fab = build_topology({"sites": 3, "enbs_per_site": 2},
                             config=NetworkConfig(seed=0))
        net = fab.network
        assert set(net.edge_sites) == {"edge0", "edge1", "edge2"}
        # full WAN mesh: 3 choose 2 links
        for a, b in (("edge0", "edge1"), ("edge0", "edge2"),
                     ("edge1", "edge2")):
            assert wan_link_name(a, b) in net.links
        # every eNodeB homed, two per site
        for site, edge in net.edge_sites.items():
            assert len(edge.home_enbs) == 2
        assert net.home_site_of("enb0") == "edge0"
        assert net.home_site_of("enb5") == "edge2"

    def test_wan_link_name_is_order_independent(self):
        assert wan_link_name("b", "a") == wan_link_name("a", "b")

    def test_duplicate_site_rejected(self):
        net = MobileNetwork()
        net.add_edge_site("edge0")
        with pytest.raises(ValueError, match="edge0"):
            net.add_edge_site("edge0")

    def test_home_site_validation(self):
        net = MobileNetwork()
        net.add_edge_site("edge0")
        with pytest.raises(ValueError, match="unknown eNodeB"):
            net.set_home_site("enb9", "edge0")
        with pytest.raises(ValueError, match="unknown edge site"):
            net.set_home_site("enb0", "edge9")

    def test_rehoming_moves_membership(self):
        net = MobileNetwork()
        net.add_edge_site("edge0", home_enbs=("enb0",))
        net.add_edge_site("edge1")
        net.set_home_site("enb0", "edge1")
        assert net.home_site_of("enb0") == "edge1"
        assert "enb0" not in net.edge_sites["edge0"].home_enbs
        assert "enb0" in net.edge_sites["edge1"].home_enbs

    def test_unhomed_enb_has_no_site(self):
        net = MobileNetwork()
        assert net.home_site_of("enb0") is None

    def test_single_site_network_has_no_fabric(self):
        """Plain ``add_mec_site`` deployments stay fabric-free."""
        net = MobileNetwork()
        net.add_mec_site("mec")
        assert net.edge_sites == {}
        assert net.home_site_of("enb0") is None


# -- context transfer ------------------------------------------------------

class TestContextTransfer:
    def build(self):
        net = MobileNetwork()
        net.add_edge_site("edge0")
        net.add_edge_site("edge1")
        return net

    def test_transfer_resolves_with_byte_count(self):
        net = self.build()
        future = net.context_transfer_async("edge0", "edge1", 500_000)
        net.sim.run(until=5.0)
        assert future.done and future.error is None
        assert future.value == 500_000

    def test_transfer_time_tracks_cost_model(self):
        """Duration ~ size / bandwidth + one-way WAN delay."""
        net = self.build()
        cfg = net.config.continuity
        nbytes = 2_000_000
        start = net.sim.now
        done_at = []
        future = net.context_transfer_async("edge0", "edge1", nbytes)
        future.add_done_callback(lambda f: done_at.append(net.sim.now))
        net.sim.run(until=5.0)
        assert future.done
        # serialisation at wan_bandwidth plus propagation; headers and
        # chunking add a little, so bound rather than pin
        floor = nbytes * 8.0 / cfg.wan_bandwidth + cfg.wan_delay
        elapsed = done_at[0] - start
        assert floor <= elapsed <= floor * 1.5

    def test_empty_transfer_resolves_immediately(self):
        net = self.build()
        future = net.context_transfer_async("edge0", "edge1", 0)
        assert future.done and future.value == 0

    def test_unknown_site_rejected(self):
        net = self.build()
        with pytest.raises(ValueError, match="edge9"):
            net.context_transfer_async("edge0", "edge9", 100)


# -- SDN re-steer ----------------------------------------------------------

def fabric_with_session(policy="make-before-break", **continuity_kwargs):
    fab = build_topology(
        {"sites": 3, "enbs_per_site": 2},
        config=NetworkConfig(seed=7, continuity=ContinuityConfig(
            policy=policy, **continuity_kwargs)))
    ue = fab.network.add_ue("walker", enb_name="enb0")
    session = fab.mrs.request_connectivity(ue, fab.service_id)
    return fab, ue, session


class TestResteer:
    def test_resteer_moves_bearer_and_rules(self):
        fab, ue, session = fabric_with_session()
        net = fab.network
        cp = net.control_plane
        bearer = ue.bearers.bearers[session.ebi]
        old = net.sgwc.site("edge0")
        new = net.sgwc.site("edge1")
        cookie_ul = f"{ue.imsi}:ebi{session.ebi}:ul"
        cookie_dl = f"{ue.imsi}:ebi{session.ebi}:dl"
        assert old.sgw_u.rules_for_cookie(cookie_ul)

        result = cp.resteer_bearer(ue, session.ebi, "edge1")
        assert result.outcome == "ok"
        assert bearer.gateway_site == "edge1"
        assert bearer.active
        # new-site switches programmed, old-site rules withdrawn
        assert new.sgw_u.rules_for_cookie(cookie_ul)
        assert new.sgw_u.rules_for_cookie(cookie_dl)
        assert new.pgw_u.rules_for_cookie(cookie_ul)
        assert new.pgw_u.rules_for_cookie(cookie_dl)
        assert not old.sgw_u.rules_for_cookie(cookie_ul)
        assert not old.pgw_u.rules_for_cookie(cookie_dl)

    def test_resteer_releases_old_site_teids(self):
        fab, ue, session = fabric_with_session()
        net = fab.network
        bearer = ue.bearers.bearers[session.ebi]
        old = net.sgwc.site("edge0")
        old_teids = {bearer.sgw_s1_fteid.teid, bearer.sgw_s5_fteid.teid}
        old_pgw = bearer.pgw_fteid.teid
        net.control_plane.resteer_bearer(ue, session.ebi, "edge1")
        assert not (old_teids & old.sgw_teids.allocated)
        assert old_pgw not in old.pgw_teids.allocated

    def test_resteer_rewrites_tft_to_new_server(self):
        fab, ue, session = fabric_with_session()
        net = fab.network
        new_ip = net.servers[fab.server_of_site["edge1"]].ip
        net.control_plane.resteer_bearer(ue, session.ebi, "edge1",
                                         server_ip=new_ip)
        bearer = ue.bearers.bearers[session.ebi]
        assert all(f.remote_address == new_ip for f in bearer.tft.filters)
        probe = Packet(src=ue.ip, dst=new_ip, size=100)
        assert ue.bearers.classify_uplink(probe) is bearer

    def test_resteer_same_site_is_noop(self):
        fab, ue, session = fabric_with_session()
        recorder = MessageRecorder(fab.network.hooks)
        result = fab.network.control_plane.resteer_bearer(
            ue, session.ebi, "edge0")
        assert result.message_count == 0
        assert len(recorder) == 0

    def test_resteer_default_bearer_rejected(self):
        fab, ue, _ = fabric_with_session()
        default = ue.bearers.default_bearer()
        with pytest.raises(ValueError, match="dedicated"):
            fab.network.control_plane.resteer_bearer(
                ue, default.ebi, "edge1")

    def test_suspend_withdraws_rules_and_deactivates(self):
        fab, ue, session = fabric_with_session()
        net = fab.network
        bearer = ue.bearers.bearers[session.ebi]
        old = net.sgwc.site("edge0")
        cookie_ul = f"{ue.imsi}:ebi{session.ebi}:ul"
        net.control_plane.suspend_bearer_flows(ue, session.ebi)
        assert not bearer.active
        assert not old.sgw_u.rules_for_cookie(cookie_ul)
        # the bearer context survives for the subsequent re-steer
        assert ue.bearers.bearers.get(session.ebi) is bearer
        net.control_plane.resteer_bearer(ue, session.ebi, "edge1")
        assert bearer.active and bearer.gateway_site == "edge1"

    def test_traffic_flows_after_resteer(self):
        fab, ue, session = fabric_with_session()
        net = fab.network
        new_server = fab.server_of_site["edge1"]
        new_ip = net.servers[new_server].ip
        net.control_plane.resteer_bearer(ue, session.ebi, "edge1",
                                         server_ip=new_ip)
        pinger = Pinger(net, ue, new_server, interval=0.1)
        pinger.run(count=5, start=net.sim.now)
        net.sim.run(until=net.sim.now + 2.0)
        pinger.close()
        assert len(pinger.rtts) == 5


class TestIdempotentInstall:
    def test_reinstall_replaces_not_duplicates(self):
        net = MobileNetwork()
        site = net.sgwc.site("central")
        rule = FlowRule(FlowMatch(dst_ip="10.0.0.1"), [Output("x")],
                        priority=10, cookie="c1")
        before = len(site.sgw_u.table)
        site.sgw_u.install(rule)
        site.sgw_u.install(FlowRule(FlowMatch(dst_ip="10.0.0.1"),
                                    [Output("y")], priority=10,
                                    cookie="c1"))
        assert len(site.sgw_u.table) == before + 1
        installed = site.sgw_u.rules_for_cookie("c1")
        assert len(installed) == 1
        assert installed[0].actions[0].port == "y"    # latest wins


# -- relocation policies ---------------------------------------------------

def relocate_once(policy):
    fab, ue, session = fabric_with_session(policy=policy)
    net = fab.network
    events = []
    net.hooks.on(SessionRelocating, events.append)
    net.hooks.on(SessionRelocated, events.append)
    net.handover(ue, "enb2")        # crosses the edge0 -> edge1 boundary
    net.sim.run(until=net.sim.now + 5.0)
    return fab, ue, session, events


class TestRelocationPolicies:
    def test_handover_across_boundary_relocates(self):
        fab, ue, session, events = relocate_once("make-before-break")
        assert [type(e).__name__ for e in events] == [
            "SessionRelocating", "SessionRelocated"]
        done = events[1]
        assert (done.from_site, done.to_site) == ("edge0", "edge1")
        assert done.policy == "make-before-break"
        assert done.transferred_bytes == \
            fab.network.config.continuity.context_size_bytes
        assert 0.0 < done.interruption < done.duration
        assert session.instance.site_name == "edge1"
        bearer = ue.bearers.bearers[session.ebi]
        assert bearer.active and bearer.gateway_site == "edge1"

    def test_intra_site_handover_does_not_relocate(self):
        fab, ue, session = fabric_with_session()
        events = []
        fab.network.hooks.on(SessionRelocating, events.append)
        fab.network.handover(ue, "enb1")     # same home site (edge0)
        fab.network.sim.run(until=fab.network.sim.now + 3.0)
        assert events == []
        assert session.instance.site_name == "edge0"

    def test_mbb_interrupts_less_than_bbm(self):
        _, _, _, mbb = relocate_once("make-before-break")
        _, _, _, bbm = relocate_once("break-before-make")
        assert mbb[1].interruption < bbm[1].interruption
        # the pre-copy means MBB's total duration is not shorter; its
        # *interruption* is the win
        assert mbb[1].interruption < mbb[1].duration

    def test_bbm_interruption_covers_whole_transfer(self):
        _, _, _, events = relocate_once("break-before-make")
        done = events[1]
        assert done.interruption == pytest.approx(done.duration)

    def test_relocation_state_transfer_scales_with_context(self):
        small = fabric_with_session(context_size_bytes=100_000)
        big = fabric_with_session(context_size_bytes=4_000_000)
        durations = []
        for fab, ue, _ in (small, big):
            events = []
            fab.network.hooks.on(SessionRelocated, events.append)
            fab.network.handover(ue, "enb2")
            fab.network.sim.run(until=fab.network.sim.now + 10.0)
            durations.append(events[0].duration)
        assert durations[1] > durations[0]

    def test_relocation_skipped_when_target_server_down(self):
        fab, ue, session = fabric_with_session()
        net = fab.network
        FaultInjector(net, FaultPlan((
            McServerOutage(server=fab.server_of_site["edge1"], at=1.0),
        ))).arm()
        net.sim.run(until=1.5)
        events = []
        net.hooks.on(SessionRelocating, events.append)
        net.handover(ue, "enb2")
        net.sim.run(until=net.sim.now + 3.0)
        assert events == []
        assert fab.mrs.relocations_skipped_fault == 1
        # the session stays anchored (not stranded) on the old site
        assert session.instance.site_name == "edge0"
        bearer = ue.bearers.bearers[session.ebi]
        assert bearer.active and bearer.gateway_site == "edge0"


# -- end to end ------------------------------------------------------------

@pytest.fixture(scope="module")
def continuity_runs():
    """The ``continuity`` preset's trials, each driven to the end as a
    :class:`~repro.scenario.runtime.ScenarioRun` so the tests can read
    the sessions themselves, keyed by ``(policy, n_ues)``."""
    from repro.exp import preset
    from repro.scenario.runtime import ScenarioRun

    runs = {}
    for trial in preset("continuity").trials():
        run = ScenarioRun(trial)
        for time, callback in run.milestones():
            run.sim.run(until=time)
            callback()
        params = trial.param_dict
        runs[(params["policy"], params["n_ues"])] = (run, run.collect())
    return runs


class TestContinuityEndToEnd:
    def test_ue_sweeps_three_sites_session_alive(self):
        """A walker crossing all three sites keeps its CI session:
        every boundary triggers a relocation and the dedicated bearer
        ends up anchored at the final site, still active."""
        fab = build_topology({"sites": 3, "enbs_per_site": 2},
                             config=NetworkConfig(seed=11))
        net = fab.network
        events = []
        net.hooks.on(SessionRelocated, events.append)
        ue = net.add_ue("walker", enb_name="enb0")
        session = fab.mrs.request_connectivity(ue, fab.service_id)

        manager = MobilityManager(net, fab.enb_positions,
                                  update_interval=0.5, hysteresis=3.0)
        walk = WalkPath([(0.0, 0.0), (500.0, 0.0)], speed=25.0)
        user = manager.add_mobile(ue, walk)
        net.sim.run(until=walk.duration + 8.0)

        assert len(user.handovers) == 5          # every cell on the line
        assert [ (e.from_site, e.to_site) for e in events ] == [
            ("edge0", "edge1"), ("edge1", "edge2")]
        assert session.instance.site_name == "edge2"
        bearer = ue.bearers.bearers[session.ebi]
        assert bearer.active and bearer.gateway_site == "edge2"
        # and the data path genuinely works at the final site
        server_name = fab.server_of_site["edge2"]
        pinger = Pinger(net, ue, server_name, interval=0.1)
        pinger.run(count=5, start=net.sim.now)
        net.sim.run(until=net.sim.now + 2.0)
        pinger.close()
        assert len(pinger.rtts) == 5

    def test_continuity_workload_runs_and_reports(self, continuity_runs):
        """Every trial of the ``continuity`` preset: each walker
        attaches, keeps a live session across both site boundaries, ends
        anchored on the last site and has every probe answered."""
        assert len(continuity_runs) == 4
        for (_, n_ues), (run, out) in continuity_runs.items():
            last_site = f"edge{run.topology['sites'] - 1}"
            assert len(run.ues) == n_ues == out["attached"]
            for ue in run.ues:
                session = run.mrs.session_for(ue, run.fabric.service_id)
                assert session is not None
                assert ue.bearers.bearers[session.ebi].active
                assert session.instance.site_name == last_site
            assert out["sessions_alive"] == n_ues
            assert out["relocations_completed"] == 2 * n_ues
            # every probe of every walker is answered across both
            # relocations: 101 probes per UE at 8 UEs, 108 at 32
            assert out["pings_lost"] == 0
            assert out["pings_answered"] == run.probes * n_ues == {
                8: 808, 32: 3456}[n_ues]

    def test_interruption_per_policy(self, continuity_runs):
        """Pre-copying the context (make-before-break) cuts the
        measured interruption well below moving all of it during the
        outage (break-before-make), at every population."""
        pinned = {"make-before-break": 10.03488,
                  "break-before-make": 26.28992}
        for (policy, n_ues), (_, out) in continuity_runs.items():
            assert out["interruption_ms_mean"] == pytest.approx(
                pinned[policy], rel=1e-6)
        for n_ues in (8, 32):
            mbb = continuity_runs[("make-before-break", n_ues)][1]
            bbm = continuity_runs[("break-before-make", n_ues)][1]
            assert mbb["interruption_ms_mean"] < bbm["interruption_ms_mean"]

    def test_workload_is_deterministic(self, continuity_runs):
        from repro.scenario.runtime import execute

        for (_, n_ues), (run, out) in continuity_runs.items():
            if n_ues == 8:
                assert execute(run.trial) == out
