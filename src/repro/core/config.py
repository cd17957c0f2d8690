"""Network topology configuration.

Latency defaults are calibrated to the paper's measurements:

* UE -> cloud server through the conventional core: ~70 ms RTT (the
  Figure 3(c) California median), decomposed into radio + backhaul +
  core + internet hops;
* eNodeB -> MEC server: ~1.6 ms RTT (Section 7.2), so the UE -> MEC RTT
  lands under 15 ms for 95% of pings (Figure 10(a));
* central core links: 100 Mbps with deep buffers, saturating around
  90-100 Mbps of background traffic exactly where Figures 3(g)/10(b)
  show the latency explosion.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.sdn.dataplane import (ACACIA_OVS_PROFILE, IDEAL_PROFILE,
                                 OPENEPC_USERSPACE_PROFILE, DataPlaneProfile)

#: Named gateway data-plane profiles a config document may reference.
DATA_PLANE_PROFILES: dict[str, DataPlaneProfile] = {
    profile.name: profile
    for profile in (OPENEPC_USERSPACE_PROFILE, ACACIA_OVS_PROFILE,
                    IDEAL_PROFILE)
}


class ConfigError(ValueError):
    """A config document failed to deserialise.

    ``path`` qualifies exactly which key is wrong
    (``"network.signalling.rrc_delay"``), so errors from deeply nested
    scenario documents point at the offending line.
    """

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _value_to_dict(value: Any) -> Any:
    if isinstance(value, DataPlaneProfile):
        # known profiles serialise by name; ad-hoc ones in full
        for name, profile in DATA_PLANE_PROFILES.items():
            if value == profile:
                return name
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _value_to_dict(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_value_to_dict(v) for v in value]
    return value


def _profile_from(value: Any, path: str) -> DataPlaneProfile:
    if isinstance(value, DataPlaneProfile):
        return value
    if isinstance(value, str):
        try:
            return DATA_PLANE_PROFILES[value]
        except KeyError:
            raise ConfigError(
                path, f"unknown data-plane profile {value!r}; expected one "
                f"of {sorted(DATA_PLANE_PROFILES)}") from None
    if isinstance(value, Mapping):
        return _fields_from(DataPlaneProfile, value, path)
    raise ConfigError(path, "expected a profile name or object, "
                            f"got {type(value).__name__}")


def _fields_from(cls, data: Mapping[str, Any], path: str):
    """Strictly construct dataclass ``cls`` from a mapping.

    Unknown keys are rejected; nested config objects recurse with a
    qualified path; ints quietly widen to float where the field default
    is a float (JSON authors write ``0`` for ``0.0``).
    """
    if not isinstance(data, Mapping):
        raise ConfigError(path, f"expected an object, "
                                f"got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(path, f"unknown key(s) {unknown}; "
                                f"valid keys: {sorted(fields)}")
    nested = NESTED_CONFIG_FIELDS.get(cls, {})
    kwargs: dict[str, Any] = {}
    for key, raw in data.items():
        sub_path = f"{path}.{key}" if path else key
        if key in nested:
            nested_cls = nested[key]
            if nested_cls is DataPlaneProfile:
                kwargs[key] = _profile_from(raw, sub_path)
            elif isinstance(raw, nested_cls):
                kwargs[key] = raw
            else:
                kwargs[key] = _fields_from(nested_cls, raw, sub_path)
            continue
        f = fields[key]
        if (f.default is not dataclasses.MISSING
                and isinstance(f.default, float)
                and isinstance(raw, int) and not isinstance(raw, bool)):
            raw = float(raw)
        kwargs[key] = raw
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from None


class ConfigMapping:
    """Uniform dict round-tripping for the config dataclasses.

    ``to_dict`` serialises every field (nested configs recurse, known
    data-plane profiles collapse to their names); ``from_dict``
    reconstructs strictly -- unknown keys raise :class:`ConfigError`
    with the full dotted path -- so
    ``cls.from_dict(cfg.to_dict()) == cfg`` for every config class.
    """

    def to_dict(self) -> dict[str, Any]:
        return _value_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, path: str = ""):
        return _fields_from(cls, data, path)


@dataclass
class NetworkConfig(ConfigMapping):
    """All tunables of the simulated mobile network."""

    # radio access
    radio_ul_bandwidth: float = 12e6       # Figure 3(d) peak uplink
    radio_dl_bandwidth: float = 30e6       # typical LTE downlink
    radio_delay: float = 0.004             # one-way UE <-> eNB
    radio_jitter: float = 0.003            # HARQ/scheduling variability
    radio_queue_bytes: int = 300_000

    # central (conventional core) path
    backhaul_delay: float = 0.010          # eNB <-> central SGW-U
    core_delay: float = 0.010              # SGW-U <-> PGW-U
    internet_delay: float = 0.009          # PGW-U <-> cloud server
    core_bandwidth: float = 100e6          # the shared 100 Mbps bottleneck
    core_queue_bytes: int = 25_000_000     # deep buffers -> seconds of bloat

    # MEC (edge) path
    mec_backhaul_delay: float = 0.0004     # eNB <-> local SGW-U
    mec_core_delay: float = 0.0002         # local SGW-U <-> local PGW-U
    mec_server_delay: float = 0.0002       # local PGW-U <-> CI server
    mec_bandwidth: float = 1e9
    mec_queue_bytes: int = 1_500_000

    # gateway data planes
    central_profile: DataPlaneProfile = field(
        default_factory=lambda: OPENEPC_USERSPACE_PROFILE)
    mec_profile: DataPlaneProfile = field(
        default_factory=lambda: ACACIA_OVS_PROFILE)

    # control plane
    seed: int = 0
    signalling: "SignallingConfig" = field(
        default_factory=lambda: SignallingConfig())
    resilience: "ResilienceConfig" = field(
        default_factory=lambda: ResilienceConfig())

    # multi-site edge fabric / session continuity
    continuity: "ContinuityConfig" = field(
        default_factory=lambda: ContinuityConfig())

    # discrete-event engine
    sim: "SimConfig" = field(default_factory=lambda: SimConfig())

    def cloud_one_way_delay(self) -> float:
        """Nominal UE -> cloud one-way propagation (no queueing/jitter)."""
        return (self.radio_delay + self.backhaul_delay + self.core_delay
                + self.internet_delay)

    def mec_one_way_delay(self) -> float:
        """Nominal UE -> MEC one-way propagation."""
        return (self.radio_delay + self.mec_backhaul_delay
                + self.mec_core_delay + self.mec_server_delay)


@dataclass
class SignallingConfig(ConfigMapping):
    """Transport parameters for the control-plane signalling fabric.

    Replaces the old fixed per-hop delay table: each protocol now gets
    a one-way propagation delay *and* a serialisation bandwidth, so a
    control message's latency is measured on a queued link and grows
    under concurrent signalling load (see
    :mod:`repro.epc.signalling`).  Defaults are calibrated so a lone
    procedure's latency lands where the old constants put it.
    """

    rrc_delay: float = 0.008           # over the air
    rrc_bandwidth: float = 1e6         # shared per-cell PDCCH/PUCCH budget
    sctp_delay: float = 0.0015         # S1-MME backhaul hop
    sctp_bandwidth: float = 20e6
    gtpc_delay: float = 0.0015         # S11 / S5-C core control hop
    gtpc_bandwidth: float = 20e6
    diameter_delay: float = 0.0015     # Gx / Rx hop
    diameter_bandwidth: float = 20e6
    openflow_delay: float = 0.001      # controller -> switch
    openflow_bandwidth: float = 100e6
    x2_delay: float = 0.002            # inter-eNodeB backhaul hop
    x2_bandwidth: float = 50e6
    queue_bytes: int = 2_000_000       # reliable transports queue, not drop

    def transports(self):
        """Per-protocol :class:`~repro.epc.signalling.ChannelSpec` map.

        Imports lazily so the config layer stays importable without
        pulling the EPC stack in at module scope.
        """
        from repro.epc.signalling import ChannelSpec

        q = self.queue_bytes
        return {
            "RRC": ChannelSpec(self.rrc_delay, self.rrc_bandwidth, q),
            "SCTP": ChannelSpec(self.sctp_delay, self.sctp_bandwidth, q),
            "GTPv2": ChannelSpec(self.gtpc_delay, self.gtpc_bandwidth, q),
            "Diameter": ChannelSpec(self.diameter_delay,
                                    self.diameter_bandwidth, q),
            "OpenFlow": ChannelSpec(self.openflow_delay,
                                    self.openflow_bandwidth, q),
            "X2AP": ChannelSpec(self.x2_delay, self.x2_bandwidth, q),
        }


@dataclass
class ResilienceConfig(ConfigMapping):
    """Retransmission timers for the control plane (3GPP-flavoured).

    Timer names follow the NAS/GTP timers they stand in for: T3410
    guards attach-family NAS exchanges on the air interface, T3450
    the S1AP leg, T3485 the GTP-C bearer-management requests.  Values
    are generous relative to lone-procedure latency so a timer only
    fires when a message was genuinely lost (or queued behind a
    pathological signalling storm), never on healthy runs -- with zero
    injected loss the timers arm and cancel without changing a single
    message count.

    ``enabled=False`` keeps the timers armed but performs no
    retransmissions: a lost message then surfaces as a terminal
    ``timeout`` procedure outcome instead of a simulator deadlock.
    """

    enabled: bool = True
    t3410: float = 3.0          # RRC / NAS air-interface exchanges
    t3450: float = 3.0          # S1AP (SCTP) leg
    t3485: float = 3.0          # GTP-C / Diameter bearer management
    openflow_timer: float = 1.0  # controller -> switch flow-mods
    x2_timer: float = 2.0       # inter-eNodeB handover signalling
    backoff: float = 2.0
    max_retries: int = 4

    def policy(self):
        """Build the :class:`~repro.epc.signalling.RetryPolicy`.

        Imports lazily so the config layer stays importable without
        pulling the EPC stack in at module scope.
        """
        from repro.epc.signalling import RetryPolicy

        return RetryPolicy(
            enabled=self.enabled,
            timers={
                "RRC": self.t3410,
                "SCTP": self.t3450,
                "GTPv2": self.t3485,
                "Diameter": self.t3485,
                "OpenFlow": self.openflow_timer,
                "X2AP": self.x2_timer,
            },
            default_timer=self.t3485,
            backoff=self.backoff,
            max_retries=self.max_retries,
        )


#: Application-context relocation policies (see :mod:`repro.core.mrs`).
CONTINUITY_POLICIES = ("make-before-break", "break-before-make")


@dataclass
class ContinuityConfig(ConfigMapping):
    """Parameters of the multi-site edge fabric and session continuity.

    Governs the inter-site WAN links created between
    :class:`~repro.core.network.EdgeSite` deployments and the
    application-context relocation the MRS performs when a handover
    carries a UE across a site boundary:

    * ``policy`` -- ``"make-before-break"`` pre-copies the CI
      application context to the target site while the old path keeps
      serving, switches the bearer, then delta-syncs what changed
      during the copy; ``"break-before-make"`` withdraws the old path
      first and transfers the full context during the outage.
    * ``context_size_bytes`` -- size of one session's application
      context (the state-transfer cost model is context size x
      inter-site link throughput, transferred as simulated traffic).
    * ``delta_fraction`` -- fraction of the context re-sent by the
      make-before-break delta-sync step.
    * ``wan_delay`` / ``wan_bandwidth`` / ``wan_queue_bytes`` -- the
      inter-site WAN link parameters (one duplex link per site pair).
    """

    policy: str = "make-before-break"
    context_size_bytes: int = 2_000_000       # ~2 MB of session state
    chunk_bytes: int = 64_000                 # transfer segment size
    delta_fraction: float = 0.05              # MBB delta-sync share
    wan_delay: float = 0.002                  # one-way inter-site hop
    wan_bandwidth: float = 1e9                # metro fibre between sites
    wan_queue_bytes: int = 4_000_000          # deep enough for a burst

    def __post_init__(self) -> None:
        if self.policy not in CONTINUITY_POLICIES:
            raise ValueError(f"unknown continuity policy {self.policy!r}; "
                             f"expected one of {CONTINUITY_POLICIES}")
        if self.context_size_bytes < 0:
            raise ValueError("context size must be non-negative")
        if self.chunk_bytes <= 0:
            raise ValueError("chunk size must be positive")
        if not (0.0 <= self.delta_fraction <= 1.0):
            raise ValueError("delta fraction must be in [0, 1]")
        if self.wan_bandwidth <= 0:
            raise ValueError("WAN bandwidth must be positive")
        if self.wan_delay < 0:
            raise ValueError("WAN delay must be non-negative")


#: Available data-plane models (see :mod:`repro.sim.fluid`).
DATA_PLANES = ("packet", "fluid-bg")


@dataclass
class SimConfig(ConfigMapping):
    """Simulation-layer settings and the simulator factory.

    The event queue itself has no knobs: every run uses the one
    ``(time, priority, seq)`` queue of :class:`~repro.sim.engine.Simulator`.

    ``data_plane`` selects how background load traverses the network:
    ``"packet"`` (the default) simulates every background packet;
    ``"fluid-bg"`` aggregates background flows into piecewise-constant
    fluid rates (:mod:`repro.sim.fluid`) while foreground CI/AR and
    signalling traffic stays per-packet.  ``"packet"`` mode is
    byte-identical to a build without the fluid subsystem.
    """

    data_plane: str = "packet"

    def __post_init__(self) -> None:
        if self.data_plane not in DATA_PLANES:
            raise ValueError(f"unknown data plane {self.data_plane!r}; "
                             f"expected one of {DATA_PLANES}")

    def build_simulator(self):
        """Construct a :class:`~repro.sim.engine.Simulator`.

        Imports lazily so the config layer stays importable without
        pulling the sim stack in at module scope.
        """
        from repro.sim.engine import Simulator

        return Simulator()


#: Which fields of which config class hold nested config objects --
#: drives the recursive strict deserialisation in ``_fields_from``.
NESTED_CONFIG_FIELDS: dict[type, dict[str, type]] = {
    NetworkConfig: {
        "signalling": SignallingConfig,
        "resilience": ResilienceConfig,
        "continuity": ContinuityConfig,
        "sim": SimConfig,
        "central_profile": DataPlaneProfile,
        "mec_profile": DataPlaneProfile,
    },
}
