"""End-to-end deployment builders: CLOUD, MEC and ACACIA.

Each builder assembles a full simulated network plus an AR server and
one customer UE, differing exactly the way the paper's comparison
points differ:

* ``cloud`` -- conventional EPC: AR server across the internet behind
  the centralised gateways (~70 ms RTT), whole-database matching;
* ``mec`` -- the AR server is deployed at the edge (the conventional
  gateways are co-located with the eNodeB, emulated with short
  controlled delays as in Section 7.2), but traffic still shares the
  non-split data path with everyone else and matching is unoptimised;
* ``acacia`` -- the full system: MEC site with local split GW-Us, MRS +
  device manager + LTE-direct discovery, dedicated bearer, and
  location-pruned matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.ar_backend import ARBackend, ARServerNode
from repro.apps.ar_frontend import ARFrontend, ARSession
from repro.apps.retail import (RETAIL_SERVICE, RetailCustomerApp,
                               RetailStore, landmark_map_for)
from repro.apps.scenario import StoreScenario
from repro.core.config import NetworkConfig, SignallingConfig, SimConfig
from repro.core.device_manager import AcaciaDeviceManager
from repro.core.localization_manager import LocalizationManager
from repro.core.mrs import MecRegistrationServer
from repro.core.network import MobileNetwork
from repro.core.service import CIService
from repro.d2d.channel import D2DChannel
from repro.d2d.radio import RadioModel
from repro.localization.pathloss import calibrate_from_radio
from repro.sim.context import SimContext
from repro.vision.camera import R720x480, Resolution
from repro.vision.costmodel import DEVICES, DeviceProfile
from repro.vision.database import ObjectDatabase

DEPLOYMENT_KINDS = ("cloud", "mec", "acacia")

AR_SERVER_NAME = "ar-server"
AR_SERVICE_ID = "ar-retail"

CI_ECHO_SERVICE_ID = "ci-echo"


@dataclass
class Deployment:
    """A ready-to-run end-to-end configuration."""

    kind: str
    network: MobileNetwork
    scenario: StoreScenario
    db: ObjectDatabase
    backend: ARBackend
    server_node: ARServerNode
    ue: object                      # UEDevice
    scheme: str
    channel: Optional[D2DChannel] = None
    store: Optional[RetailStore] = None
    mrs: Optional[MecRegistrationServer] = None
    device_manager: Optional[AcaciaDeviceManager] = None
    customer: Optional[RetailCustomerApp] = None
    localization: Optional[LocalizationManager] = None

    def new_session(self, frames, resolution: Resolution = R720x480,
                    max_frames: Optional[int] = None,
                    scene_complexity: float = 1.0) -> ARSession:
        frontend = ARFrontend(resolution,
                              scene_complexity=scene_complexity)
        return ARSession(self.network.sim, self.ue,
                         self.network.servers[AR_SERVER_NAME].ip,
                         frontend, frames, max_frames=max_frames)


def _mec_colocated_config(
        seed: int,
        signalling: Optional[SignallingConfig] = None,
        data_plane: str = "packet") -> NetworkConfig:
    """Conventional (shared, non-split) gateways moved next to the eNB."""
    config = NetworkConfig(
        backhaul_delay=0.0006, core_delay=0.0004, internet_delay=0.0002,
        seed=seed, sim=SimConfig(data_plane=data_plane))
    if signalling is not None:
        config.signalling = signalling
    return config


def _network_config(
        seed: int,
        signalling: Optional[SignallingConfig] = None,
        data_plane: str = "packet") -> NetworkConfig:
    config = NetworkConfig(seed=seed,
                           sim=SimConfig(data_plane=data_plane))
    if signalling is not None:
        config.signalling = signalling
    return config


def build_deployment(kind: str, db: ObjectDatabase,
                     scenario: StoreScenario, seed: int = 0,
                     server_device: DeviceProfile = DEVICES["i7-8core"],
                     user_position: Optional[tuple[float, float]] = None,
                     signalling_config: Optional[SignallingConfig] = None,
                     data_plane: str = "packet",
                     ) -> Deployment:
    """Build one of the three comparison deployments.

    ``signalling_config`` parameterises the control-plane signalling
    fabric (default transports when omitted); ``data_plane`` selects
    the per-packet or fluid-background data plane
    (:mod:`repro.sim.fluid`)."""
    if kind not in DEPLOYMENT_KINDS:
        raise ValueError(f"unknown deployment kind {kind!r}; "
                         f"expected one of {DEPLOYMENT_KINDS}")

    ctx = SimContext(seed)
    radio = RadioModel()
    regression = calibrate_from_radio(
        radio, ctx.rng("localization.calibration"))
    landmark_map = landmark_map_for(scenario, regression)
    localization = LocalizationManager(landmark_map)
    backend = ARBackend(db, scenario, localization, device=server_device)

    if kind == "cloud":
        network = MobileNetwork(
            _network_config(seed, signalling_config, data_plane), ctx=ctx)
        server_node = ARServerNode(network.sim, AR_SERVER_NAME, backend,
                                   scheme="naive")
        network.add_server(AR_SERVER_NAME, site_name="central",
                           node=server_node)
        ue = network.add_ue("customer-ue")
        network.route_via_default_bearer(ue, AR_SERVER_NAME)
        return Deployment(kind=kind, network=network, scenario=scenario,
                          db=db, backend=backend, server_node=server_node,
                          ue=ue, scheme="naive", localization=localization)

    if kind == "mec":
        network = MobileNetwork(
            _mec_colocated_config(seed, signalling_config, data_plane),
            ctx=ctx)
        server_node = ARServerNode(network.sim, AR_SERVER_NAME, backend,
                                   scheme="naive")
        network.add_server(AR_SERVER_NAME, site_name="central",
                           node=server_node, delay=0.0002)
        ue = network.add_ue("customer-ue")
        network.route_via_default_bearer(ue, AR_SERVER_NAME)
        return Deployment(kind=kind, network=network, scenario=scenario,
                          db=db, backend=backend, server_node=server_node,
                          ue=ue, scheme="naive", localization=localization)

    # -- the full ACACIA system ------------------------------------------
    network = MobileNetwork(
        _network_config(seed, signalling_config, data_plane), ctx=ctx)
    network.add_mec_site("mec")
    server_node = ARServerNode(network.sim, AR_SERVER_NAME, backend,
                               scheme="acacia")
    network.add_server(AR_SERVER_NAME, site_name="mec", node=server_node)
    ue = network.add_ue("customer-ue")

    mrs = MecRegistrationServer(network)
    mrs.register_service(CIService(service_id=AR_SERVICE_ID,
                                   lte_direct_service=RETAIL_SERVICE))
    mrs.deploy_instance(AR_SERVICE_ID, AR_SERVER_NAME, "mec")

    channel = D2DChannel(network.sim, radio, rng=ctx.rng("d2d.channel"))
    store = RetailStore(scenario, channel)
    store.open()

    device_manager = AcaciaDeviceManager(ue, mrs)
    position = user_position if user_position is not None \
        else scenario.checkpoints[0].position if scenario.checkpoints \
        else (10.0, 10.0)
    customer = RetailCustomerApp(
        app_id=ue.name, device_manager=device_manager, channel=channel,
        position=position, service_id=AR_SERVICE_ID,
        localization=localization)
    return Deployment(kind=kind, network=network, scenario=scenario,
                      db=db, backend=backend, server_node=server_node,
                      ue=ue, scheme="acacia", channel=channel, store=store,
                      mrs=mrs, device_manager=device_manager,
                      customer=customer, localization=localization)


# -- multi-site edge fabric ------------------------------------------------


@dataclass
class EdgeFabric:
    """A multi-site continuity deployment, ready for mobile UEs.

    ``enb_positions`` lays the cells on a line (``cell_spacing`` metres
    apart) for a :class:`~repro.apps.mobility.MobilityManager`;
    ``site_of_enb`` / ``server_of_site`` record the home-site mapping
    and each site's CI echo server.
    """

    network: MobileNetwork
    mrs: MecRegistrationServer
    service_id: str
    enb_positions: dict[str, tuple[float, float]]
    site_of_enb: dict[str, str]
    server_of_site: dict[str, str]


def build_topology(topology, *, config: NetworkConfig) -> EdgeFabric:
    """Interpret a scenario-document ``topology`` section into a fabric.

    ``topology`` is a plain mapping (``sites``, ``enbs_per_site``,
    ``cell_spacing``; unknown keys rejected): ``sites`` consecutive
    edge sites on a line, ``enbs_per_site`` cells homed on each, one
    CI echo server per site registered with the MRS, and the WAN mesh
    between sites.  A single-site topology is a plain MEC deployment:
    no site boundaries, so relocation never triggers.

    ``config`` is the fully-formed :class:`NetworkConfig` the network
    is built from (the scenario layer builds one from the document's
    ``network`` section).

    This is the only sanctioned raw-dict deployment entry point, and
    only the scenario layer (plus this module) may call it -- see the
    layering gate in ``tests/test_layering.py``.
    """
    section = dict(topology)
    n_sites = section.pop("sites", 3)
    enbs_per_site = section.pop("enbs_per_site", 2)
    cell_spacing = section.pop("cell_spacing", 100.0)
    if section:
        raise ValueError(f"unknown topology key(s) {sorted(section)}; "
                         "valid keys: ['cell_spacing', 'enbs_per_site', "
                         "'sites']")
    n_sites, enbs_per_site = int(n_sites), int(enbs_per_site)
    cell_spacing = float(cell_spacing)
    if n_sites < 1:
        raise ValueError("a topology needs at least 1 site")
    if enbs_per_site < 1:
        raise ValueError("each site needs at least one cell")
    if cell_spacing <= 0:
        raise ValueError("cell_spacing must be positive")
    network = MobileNetwork(config)

    enb_positions: dict[str, tuple[float, float]] = {
        "enb0": (0.0, 0.0)}     # the constructor's default cell
    for i in range(1, n_sites * enbs_per_site):
        network.add_enb(f"enb{i}")
        enb_positions[f"enb{i}"] = (cell_spacing * i, 0.0)

    site_of_enb: dict[str, str] = {}
    server_of_site: dict[str, str] = {}
    mrs = MecRegistrationServer(network)
    mrs.register_service(CIService(
        service_id=CI_ECHO_SERVICE_ID,
        lte_direct_service="ci-echo-discovery"))
    for s in range(n_sites):
        site_name = f"edge{s}"
        home = tuple(f"enb{s * enbs_per_site + k}"
                     for k in range(enbs_per_site))
        network.add_edge_site(site_name, home_enbs=home)
        for enb_name in home:
            site_of_enb[enb_name] = site_name
        server_name = f"ci-{site_name}"
        network.add_server(server_name, site_name=site_name, echo=True)
        server_of_site[site_name] = server_name
        mrs.deploy_instance(CI_ECHO_SERVICE_ID, server_name, site_name,
                            serves_enbs=set(home))

    return EdgeFabric(network=network, mrs=mrs,
                      service_id=CI_ECHO_SERVICE_ID,
                      enb_positions=enb_positions,
                      site_of_enb=site_of_enb,
                      server_of_site=server_of_site)
