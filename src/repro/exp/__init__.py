"""Declarative multi-seed experiment specs and a parallel trial runner.

An :class:`ExperimentSpec` names a workload (see
:mod:`repro.exp.workloads`), the seeds to repeat it over and the sweep
axes to cross; :class:`ExperimentRunner` fans the resulting trials out
over worker processes (or runs them serially -- the results are
byte-identical either way) and collects structured JSON with per-trial
provenance.  The specs for the paper's figures are scenario documents
tagged ``preset`` in the ``scenarios/`` catalogue:
``repro.scenario.load(name).compile()`` builds one.
"""

from repro.exp.runner import (ExperimentResult, ExperimentRunner,
                              TrialResult, run_trial)
from repro.exp.spec import ExperimentSpec, TrialSpec
from repro.exp.workloads import WORKLOADS, workload

__all__ = [
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "TrialResult",
    "TrialSpec",
    "WORKLOADS",
    "run_trial",
    "workload",
]

