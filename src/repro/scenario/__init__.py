"""Declarative scenario layer: one document from topology to chaos.

A scenario is a single versioned JSON (or YAML, when PyYAML is
around) document describing everything about a run -- topology,
config overlays, traffic mix, mobility, fault plan, sweep axes and
seeds.  The layer splits into:

* :mod:`repro.scenario.schema` -- the published document schema and a
  dependency-free validator with path-qualified errors;
* :mod:`repro.scenario.document` -- the validated :class:`Scenario`
  object, its content :meth:`~Scenario.digest` and compilation into
  an :class:`~repro.exp.spec.ExperimentSpec`;
* :mod:`repro.scenario.loader` -- file loading plus the shipped
  ``scenarios/`` catalogue;
* :mod:`repro.scenario.runtime` -- the interpreter behind the generic
  ``"scenario"`` workload.

This package is the only one allowed to turn raw document dicts into
deployments (see the layering gates in ``tests/test_layering.py``),
and it must not import :mod:`repro.exp` at module scope, nor
:mod:`repro.exp` import it: compilation and the ``"scenario"``
workload cross the boundary only at call time.  Every catalogue run,
the paper's figures included, is ``load(name).compile()``.
"""

from repro.scenario.document import (GENERIC_WORKLOAD,
                                     INTERPRETED_SECTIONS, Scenario,
                                     canonical_json)
from repro.scenario.loader import (CATALOGUE_DIR, catalogue, load,
                                   load_path, parse_text)
from repro.scenario.schema import (SCHEMA, ScenarioError,
                                   ScenarioValidationError, validate)

__all__ = [
    "CATALOGUE_DIR",
    "GENERIC_WORKLOAD",
    "INTERPRETED_SECTIONS",
    "SCHEMA",
    "Scenario",
    "ScenarioError",
    "ScenarioValidationError",
    "canonical_json",
    "catalogue",
    "load",
    "load_path",
    "parse_text",
    "validate",
]
