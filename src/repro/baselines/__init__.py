"""Baseline systems the paper compares ACACIA against.

Two axes of comparison:

* **deployment** (Figures 10(b), 13): CLOUD (conventional EPC, server
  behind the distant centralised gateways), MEC (edge-located server
  but the conventional shared, non-split data path) and ACACIA
  (dedicated bearer onto local split GW-Us);
* **search scheme** (Figures 11, 12): Naive (whole floor), rxPower
  (sections of the two loudest landmarks) and ACACIA (sub-sections
  around the trilaterated position) -- implemented in
  :mod:`repro.core.optimizer` and selected by name here.
"""

from repro.baselines.deployments import (DEPLOYMENT_KINDS, Deployment,
                                         EdgeFabric, build_deployment,
                                         build_topology)

#: Search-space scheme names accepted by ARBackend.process_frame.
SEARCH_SCHEMES = ("naive", "rxpower", "acacia")

__all__ = [
    "DEPLOYMENT_KINDS",
    "Deployment",
    "EdgeFabric",
    "SEARCH_SCHEMES",
    "build_deployment",
    "build_topology",
]
