"""Tests for the ACACIA core services: registry, MRS, device manager,
localisation manager and the search-space optimizer."""

import numpy as np
import pytest

from repro.apps.scenario import store_scenario
from repro.apps.retail import build_retail_database, landmark_map_for
from repro.core.device_manager import AcaciaDeviceManager, ServiceInfo
from repro.core.localization_manager import LocalizationManager
from repro.core.mrs import MecRegistrationServer
from repro.core.network import MobileNetwork
from repro.core.optimizer import SearchSpaceOptimizer
from repro.core.service import CIServerInstance, CIService, ServiceRegistry
from repro.d2d.expressions import ExpressionNamespace
from repro.d2d.messages import DiscoveryMessage
from repro.localization.pathloss import PathLossRegression
from tests.recording import MessageRecorder

NS = ExpressionNamespace()


class TestServiceRegistry:
    def test_register_and_lookup(self):
        registry = ServiceRegistry()
        service = CIService("ar-retail", "acme-retail")
        registry.register(service)
        assert registry.get("ar-retail") is service
        assert registry.by_lte_direct_name("acme-retail") is service
        assert "ar-retail" in registry and len(registry) == 1

    def test_duplicate_rejected(self):
        registry = ServiceRegistry()
        registry.register(CIService("s", "l"))
        with pytest.raises(ValueError):
            registry.register(CIService("s", "l2"))

    def test_unknown_lookups_raise(self):
        registry = ServiceRegistry()
        with pytest.raises(KeyError):
            registry.get("nope")
        with pytest.raises(KeyError):
            registry.by_lte_direct_name("nope")

    def test_instance_selection_prefers_serving_enb(self):
        service = CIService("s", "l")
        far = CIServerInstance("srv-far", "central", "1.1.1.1",
                               serves_enbs=frozenset({"enb9"}))
        near = CIServerInstance("srv-near", "mec", "2.2.2.2",
                                serves_enbs=frozenset({"enb0"}))
        service.add_instance(far)
        service.add_instance(near)
        assert service.instance_for_enb("enb0") is near
        assert service.instance_for_enb("enb9") is far
        assert service.instance_for_enb("enb7") is far   # first fallback

    def test_no_instances_raises(self):
        with pytest.raises(LookupError):
            CIService("s", "l").instance_for_enb("enb0")

    def test_invalid_qci_rejected(self):
        with pytest.raises(KeyError):
            CIService("s", "l", qci=99)


@pytest.fixture()
def acacia_net():
    network = MobileNetwork()
    network.add_mec_site("mec")
    network.add_server("ar-server", site_name="mec", echo=True)
    mrs = MecRegistrationServer(network)
    mrs.register_service(CIService("ar-retail", "acme-retail"))
    mrs.deploy_instance("ar-retail", "ar-server", "mec")
    ue = network.add_ue()
    return network, mrs, ue


class TestMRS:
    def test_request_creates_dedicated_bearer(self, acacia_net):
        network, mrs, ue = acacia_net
        session = mrs.request_connectivity(ue, "ar-retail")
        assert session.instance.site_name == "mec"
        bearer = ue.bearers.bearers[session.ebi]
        assert not bearer.default
        assert bearer.gateway_site == "mec"

    def test_request_is_idempotent(self, acacia_net):
        """Repeated interest matches do not create extra bearers --
        the control-overhead saving of Section 5.3."""
        network, mrs, ue = acacia_net
        recorder = MessageRecorder(network.hooks)
        first = mrs.request_connectivity(ue, "ar-retail")
        first_size = len(recorder)
        assert first_size > 0           # the first request did signal
        second = mrs.request_connectivity(ue, "ar-retail")
        assert first is second
        assert len(recorder) == first_size
        assert len(ue.bearers) == 2     # default + one dedicated

    def test_release_tears_down(self, acacia_net):
        network, mrs, ue = acacia_net
        session = mrs.request_connectivity(ue, "ar-retail")
        result = mrs.release_connectivity(ue, "ar-retail")
        assert result is not None
        assert session.ebi not in ue.bearers.bearers
        assert mrs.session_for(ue, "ar-retail") is None

    def test_release_without_session_is_noop(self, acacia_net):
        _, mrs, ue = acacia_net
        assert mrs.release_connectivity(ue, "ar-retail") is None

    def test_policy_configured_in_pcrf(self, acacia_net):
        network, mrs, ue = acacia_net
        policy = network.pcrf.policy_for("ar-retail")
        assert policy.qci == 7


class TestDeviceManager:
    def make_manager(self, acacia_net):
        network, mrs, ue = acacia_net
        return network, mrs, ue, AcaciaDeviceManager(ue, mrs)

    def deliver(self, manager, offering="laptops", rx=-70.0):
        message = DiscoveryMessage(
            publisher_id="lm1", service_name="acme-retail",
            code=manager.namespace.code("acme-retail", offering),
            payload=f"section={offering}")
        return manager.modem.receive_broadcast(message, rx, 20.0, 1.0)

    def test_interest_match_triggers_connectivity(self, acacia_net):
        network, mrs, ue, manager = self.make_manager(acacia_net)
        seen, sessions = [], []
        manager.register_app(
            ServiceInfo("app", "ar-retail", "acme-retail", ["laptops"]),
            on_discovery=seen.append, on_connected=sessions.append)
        self.deliver(manager, "laptops")
        assert len(seen) == 1
        assert len(sessions) == 1
        assert mrs.session_for(ue, "ar-retail") is not None

    def test_non_matching_offering_does_nothing(self, acacia_net):
        network, mrs, ue, manager = self.make_manager(acacia_net)
        seen = []
        manager.register_app(
            ServiceInfo("app", "ar-retail", "acme-retail", ["laptops"]),
            on_discovery=seen.append)
        self.deliver(manager, "toys")
        assert seen == []
        assert mrs.session_for(ue, "ar-retail") is None

    def test_repeat_matches_connect_once(self, acacia_net):
        network, mrs, ue, manager = self.make_manager(acacia_net)
        sessions = []
        manager.register_app(
            ServiceInfo("app", "ar-retail", "acme-retail", ["laptops"]),
            on_discovery=lambda o: None, on_connected=sessions.append)
        for _ in range(5):
            self.deliver(manager)
        assert len(sessions) == 1
        assert manager.matches_seen == 5

    def test_unregister_releases_connectivity(self, acacia_net):
        network, mrs, ue, manager = self.make_manager(acacia_net)
        manager.register_app(
            ServiceInfo("app", "ar-retail", "acme-retail", ["laptops"]),
            on_discovery=lambda o: None)
        self.deliver(manager)
        manager.unregister_app("app")
        assert mrs.session_for(ue, "ar-retail") is None
        assert manager.modem.subscription_count == 0
        assert manager.registered_apps == []

    def test_add_interest_installs_filter(self, acacia_net):
        network, mrs, ue, manager = self.make_manager(acacia_net)
        seen = []
        manager.register_app(
            ServiceInfo("app", "ar-retail", "acme-retail", ["laptops"]),
            on_discovery=seen.append)
        self.deliver(manager, "toys")
        assert seen == []
        manager.add_interest("app", "toys")
        self.deliver(manager, "toys")
        assert len(seen) == 1

    def test_duplicate_app_rejected(self, acacia_net):
        network, mrs, ue, manager = self.make_manager(acacia_net)
        info = ServiceInfo("app", "ar-retail", "acme-retail", [])
        manager.register_app(info, on_discovery=lambda o: None)
        with pytest.raises(ValueError):
            manager.register_app(info, on_discovery=lambda o: None)


class TestOptimizerSchemes:
    @pytest.fixture()
    def setup(self):
        scenario = store_scenario()
        db = build_retail_database(scenario)
        optimizer = SearchSpaceOptimizer(db, scenario)
        return scenario, db, optimizer

    def test_naive_searches_all_105(self, setup):
        scenario, db, optimizer = setup
        space = optimizer.naive()
        assert space.size == 105
        assert space.scheme == "naive"

    def test_rxpower_restricts_to_sections(self, setup):
        scenario, db, optimizer = setup
        space = optimizer.rxpower(["lm1", "lm4"])
        assert space.scheme == "rxpower"
        assert 0 < space.size < 105
        sections = set(space.sections)
        assert all(r.section in sections for r in space.records)

    def test_rxpower_empty_falls_back_to_naive(self, setup):
        _, _, optimizer = setup
        assert optimizer.rxpower([]).scheme == "naive"

    def test_acacia_prunes_hardest(self, setup):
        scenario, db, optimizer = setup
        cp = scenario.checkpoints[5]
        space = optimizer.acacia(cp.position)
        assert space.scheme == "acacia"
        assert 1 <= len(space.subsections) <= 6
        # ACACIA's space is (much) smaller than a typical rxPower space
        assert space.size <= 30

    def test_acacia_without_location_degrades(self, setup):
        _, _, optimizer = setup
        assert optimizer.acacia(None, ["lm1"]).scheme == "rxpower"
        assert optimizer.acacia(None, []).scheme == "naive"

    def test_acacia_search_space_contains_nearby_objects(self, setup):
        scenario, db, optimizer = setup
        for cp in scenario.checkpoints:
            space = optimizer.acacia(cp.position)
            names = {r.name for r in space.records}
            nearest = min(db.all_records(),
                          key=lambda r: (r.position[0] - cp.position[0]) ** 2
                          + (r.position[1] - cp.position[1]) ** 2)
            assert nearest.name in names


class TestLocalizationManager:
    def make_manager(self):
        scenario = store_scenario()
        regression = PathLossRegression(alpha=-50.0, beta=-30.0)
        return scenario, LocalizationManager(
            landmark_map_for(scenario, regression))

    def test_per_user_trackers(self):
        scenario, manager = self.make_manager()
        manager.report("alice", "lm1", -60.0, 0.0)
        manager.report("bob", "lm2", -70.0, 0.0)
        assert set(manager.users) == {"alice", "bob"}

    def test_location_none_for_unknown_user(self):
        _, manager = self.make_manager()
        assert manager.location("ghost", now=0.0) is None

    def test_location_estimate_from_exact_powers(self):
        scenario, manager = self.make_manager()
        truth = (15.0, 9.0)
        regression = manager.map.regression
        for name, pos in scenario.landmarks.items():
            d = max(0.7, np.hypot(truth[0] - pos[0], truth[1] - pos[1]))
            manager.report("alice", name, regression.predict_rx_power(d),
                           0.0)
        estimate = manager.location("alice", now=1.0)
        assert estimate is not None
        assert np.hypot(estimate[0] - truth[0],
                        estimate[1] - truth[1]) < 1.0

    def test_strongest_landmarks_for_unknown_user(self):
        _, manager = self.make_manager()
        assert manager.strongest_landmarks("ghost", now=0.0) == []
