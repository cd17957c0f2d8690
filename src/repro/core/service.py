"""CI service definitions and the carrier's service registry.

A *CI service* is the operator-facing unit the MRS manages: a service
id (matching the PCRF policy and the LTE-direct service name), the set
of CI server instances deployed across mobile edge clouds, and the QoS
class its dedicated bearers get.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.epc.qos import MEC_BEARER_QCI, qos_for


class CIServerInstance(NamedTuple):
    """One deployment of a CI server on an edge cloud site."""

    server_name: str        # node name in the MobileNetwork
    site_name: str          # gateway site whose GW-Us serve it
    server_ip: str
    #: eNodeBs this instance is "close" to; the MRS uses this for
    #: closest-instance selection.
    serves_enbs: frozenset[str] = frozenset()


@dataclass
class CIService:
    """A registered continuous-interactive service."""

    service_id: str
    lte_direct_service: str          # discovery service name
    qci: int = MEC_BEARER_QCI
    instances: list[CIServerInstance] = field(default_factory=list)

    def __post_init__(self) -> None:
        qos_for(self.qci)

    def add_instance(self, instance: CIServerInstance) -> None:
        self.instances.append(instance)

    def instance_for_enb(self, enb_name: str) -> CIServerInstance:
        """Pick the closest instance: one that lists the UE's eNodeB,
        else the first registered (the 'central' fallback)."""
        if not self.instances:
            raise LookupError(
                f"service {self.service_id!r} has no deployed instances")
        for instance in self.instances:
            if enb_name in instance.serves_enbs:
                return instance
        return self.instances[0]


class ServiceRegistry:
    """The MRS's catalogue of CI services."""

    def __init__(self) -> None:
        self._services: dict[str, CIService] = {}
        self._by_lte_direct: dict[str, str] = {}

    def register(self, service: CIService) -> None:
        if service.service_id in self._services:
            raise ValueError(
                f"service {service.service_id!r} already registered")
        self._services[service.service_id] = service
        self._by_lte_direct[service.lte_direct_service] = service.service_id

    def get(self, service_id: str) -> CIService:
        try:
            return self._services[service_id]
        except KeyError:
            raise KeyError(f"unknown CI service {service_id!r}") from None

    def by_lte_direct_name(self, lte_direct_service: str) -> CIService:
        try:
            return self.get(self._by_lte_direct[lte_direct_service])
        except KeyError:
            raise KeyError(
                f"no CI service for LTE-direct service "
                f"{lte_direct_service!r}") from None

    def __contains__(self, service_id: str) -> bool:
        return service_id in self._services

    def __len__(self) -> int:
        return len(self._services)
