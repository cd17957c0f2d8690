"""Declarative multi-seed experiment specs and a parallel trial runner.

An :class:`ExperimentSpec` names a workload (see
:mod:`repro.exp.workloads`), the seeds to repeat it over and the sweep
axes to cross; :class:`ExperimentRunner` fans the resulting trials out
over worker processes (or runs them serially -- the results are
byte-identical either way) and collects structured JSON with per-trial
provenance.  Preset specs for the paper's figures live in
:mod:`repro.exp.presets`; ``PRESETS`` and ``preset`` are loaded from it
on first use, because building them compiles the whole catalogue.
"""

from repro.exp.runner import (ExperimentResult, ExperimentRunner,
                              TrialResult, run_trial)
from repro.exp.spec import ExperimentSpec, TrialSpec
from repro.exp.workloads import WORKLOADS, workload

__all__ = [
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "PRESETS",
    "TrialResult",
    "TrialSpec",
    "WORKLOADS",
    "preset",
    "run_trial",
    "workload",
]


def __getattr__(name: str):
    if name in ("PRESETS", "preset"):
        from repro.exp import presets
        return getattr(presets, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
