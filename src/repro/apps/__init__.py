"""The AR-based engaged-retail application and its store scenarios.

This is the paper's representative CI application (Sections 5.1/6.3):
a retail store equips sales staff with LTE-direct publishers; customers
subscribe to their interests, get notified near the matching section,
and an AR session streams camera frames to a CI server on the mobile
edge cloud which matches them against a geo-tagged object database.
The split-rendering VR client (:mod:`repro.apps.vr`) is imported by
module name.
"""

from repro.apps.ar_backend import ARBackend, ARResponse, ARServerNode
from repro.apps.ar_frontend import ARFrontend, ARSession
from repro.apps.mobility import MobileUser, MobilityManager
from repro.apps.retail import (RetailCustomerApp, RetailStore,
                               build_retail_database)
from repro.apps.scenario import (Checkpoint, StoreScenario, WalkPath,
                                 store_scenario)
from repro.apps.workload import CheckpointWorkload

__all__ = [
    "ARBackend",
    "ARFrontend",
    "ARResponse",
    "ARServerNode",
    "ARSession",
    "Checkpoint",
    "CheckpointWorkload",
    "MobileUser",
    "MobilityManager",
    "RetailCustomerApp",
    "RetailStore",
    "StoreScenario",
    "WalkPath",
    "build_retail_database",
    "store_scenario",
]
