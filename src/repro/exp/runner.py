"""Trial executor: serial or process-parallel, byte-identical either way.

:func:`run_trial` is a module-level function (hence picklable) building
the trial's entire world from its spec; :class:`ExperimentRunner` maps
it over the spec's trials, optionally through a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Results keep trial
order regardless of worker scheduling, and the canonical JSON contains
no wall-clock timestamps, so ``canonical_json()`` is reproducible
bit-for-bit across runs, machines and worker counts.
"""

from __future__ import annotations

import json
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.exp import workloads
from repro.exp.spec import ExperimentSpec, TrialSpec


@dataclass
class TrialResult:
    """One trial's outcome, with full provenance of what produced it."""

    trial: TrialSpec
    status: str                     # "ok" | "error"
    metrics: dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        data = {"provenance": self.trial.provenance(),
                "status": self.status, "metrics": self.metrics}
        if self.error is not None:
            data["error"] = self.error
        return data


def run_trial(trial: TrialSpec) -> TrialResult:
    """Execute one trial; failures are captured, not raised, so a bad
    sweep cell cannot take down the whole experiment."""
    try:
        metrics = workloads.get(trial.workload)(trial)
        return TrialResult(trial=trial, status="ok", metrics=metrics)
    except Exception:
        return TrialResult(trial=trial, status="error",
                           error=traceback.format_exc())


@dataclass
class ExperimentResult:
    """All trial results for one spec, in trial order."""

    spec: ExperimentSpec
    trials: list[TrialResult]

    @property
    def ok(self) -> bool:
        return all(t.status == "ok" for t in self.trials)

    def failures(self) -> list[TrialResult]:
        return [t for t in self.trials if t.status != "ok"]

    def metrics_by(self, *axes: str) -> dict[tuple, dict[str, Any]]:
        """Index ok-trial metrics by the values of sweep axes (plus
        ``base_seed`` if listed), e.g. ``metrics_by("system", "bg_mbps")``."""
        indexed = {}
        for result in self.trials:
            if result.status != "ok":
                continue
            params = result.trial.param_dict
            params["base_seed"] = result.trial.base_seed
            indexed[tuple(params[a] for a in axes)] = result.metrics
        return indexed

    def to_dict(self) -> dict[str, Any]:
        return {"spec": self.spec.to_dict(),
                "trials": [t.to_dict() for t in self.trials]}

    def canonical_json(self) -> str:
        """Deterministic serialisation: sorted keys, no timestamps.

        A serial run and a process-parallel run of the same spec
        produce byte-identical output.
        """
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


class ExperimentRunner:
    """Fans a spec's trials out over worker processes.

    ``workers=None`` or ``1`` runs serially in-process; ``workers=N``
    uses a :class:`ProcessPoolExecutor`.  Trials are independent by
    construction (each builds its own :class:`SimContext` world from
    its derived seed), so scheduling cannot affect results.
    """

    def __init__(self, spec: ExperimentSpec,
                 workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.spec = spec
        self.workers = workers

    def run(self) -> ExperimentResult:
        trials = self.spec.trials()
        # ProcessPoolExecutor forks every max_workers process up front,
        # so never ask for more workers than there are trials
        workers = min(self.workers or 1, len(trials))
        if workers <= 1:
            results = [run_trial(trial) for trial in trials]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # map preserves input order regardless of completion order
                results = list(pool.map(run_trial, trials))
        return ExperimentResult(spec=self.spec, trials=results)
