"""ACACIA core: the service abstraction framework.

Ties the substrates together: the network builder assembles the LTE/EPC
+ SDN testbed; the MEC Registration Server (MRS) and the on-device
ACACIA device manager implement the context-aware traffic redirection of
Sections 5.3/5.4; the localization manager and the application optimiser
implement the context-aware application optimisation of Section 5.5.
"""

from repro.core.config import NetworkConfig
from repro.core.device_manager import AcaciaDeviceManager, ServiceInfo
from repro.core.localization_manager import LocalizationManager
from repro.core.mrs import MecRegistrationServer
from repro.core.network import MobileNetwork, Pinger
from repro.core.optimizer import SearchSpace, SearchSpaceOptimizer
from repro.core.service import CIServerInstance, CIService, ServiceRegistry

__all__ = [
    "AcaciaDeviceManager",
    "CIServerInstance",
    "CIService",
    "LocalizationManager",
    "MecRegistrationServer",
    "MobileNetwork",
    "NetworkConfig",
    "Pinger",
    "SearchSpace",
    "SearchSpaceOptimizer",
    "ServiceInfo",
    "ServiceRegistry",
]
