"""The benchmark's workloads: generated inputs and output checks.

Each workload is a scenario document in ``perfbench/scenarios``.  The
benchmark seed becomes the document's ``experiment.seeds``, which the
program turns into its trial seeds and from those every RNG stream, so
one seed gives one set of inputs.  The generated document is validated
against ``docs/scenario.schema.json`` and written to the output
directory, from where the run loads it through the public
``repro.scenario.load_path``.

Outputs are checked two ways.  For the pinned seeds (the default seed
and one held-out seed) every simulated output except ``events_run``
must equal ``pins.json``: counts exactly, floats to 1e-9 relative.  For
any seed, invariants that hold whatever the inputs must hold too.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCENARIOS = HERE / "scenarios"
PINS = HERE / "pins.json"
SCHEMA = ROOT / "docs" / "scenario.schema.json"

#: Simulated outputs that are host-dependent bookkeeping, not results.
UNPINNED = frozenset({"events_run"})
REL_TOL = 1e-9


def _scenario_invariants(metrics: dict) -> list[str]:
    problems = []
    outcomes = metrics["attach_outcomes"]
    for outcome in ("unfinished", "none"):
        if outcomes.get(outcome):
            problems.append(f"{outcomes[outcome]} attach(es) {outcome}")
    if sum(outcomes.values()) != metrics["n_ues"]:
        problems.append(f"attach outcomes {outcomes} do not cover "
                        f"{metrics['n_ues']} UEs")
    if metrics["relocations_completed"] != metrics["relocations_started"]:
        problems.append(f"relocations completed "
                        f"{metrics['relocations_completed']} != started "
                        f"{metrics['relocations_started']}")
    if metrics["pings_answered"] <= 0:
        problems.append("no ping answered")
    return problems


def _relocation_invariants(trials: list[dict]) -> list[str]:
    (metrics,) = trials
    problems = _scenario_invariants(metrics)
    if metrics["sessions_alive"] != metrics["attached"]:
        problems.append(f"sessions alive {metrics['sessions_alive']} != "
                        f"attached {metrics['attached']}")
    if metrics["pings_lost"] != 0:
        problems.append(f"{metrics['pings_lost']} pings lost")
    if metrics["relocations_started"] <= 0:
        problems.append("no relocation happened")
    return problems


def _attach_invariants(trials: list[dict]) -> list[str]:
    (metrics,) = trials
    return _scenario_invariants(metrics)


def _ar_invariants(trials: list[dict]) -> list[str]:
    problems = []
    totals = {}
    for metrics in trials:
        kind = metrics["kind"]
        if not metrics["all_matched"]:
            problems.append(f"{kind}: not every frame matched")
        if metrics["frames_completed"] <= 0:
            problems.append(f"{kind}: no frame completed")
        totals[kind] = metrics["breakdown_ms"]["total"]
    if not totals.get("acacia", math.inf) < totals.get("mec", -math.inf) \
            < totals.get("cloud", -math.inf):
        problems.append(f"total latency not ordered acacia < mec < cloud: "
                        f"{totals}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    held_out_seed: int
    #: wrapper counters that must be non-zero in a traced pass
    exercised: tuple[str, ...]
    invariants: Callable[[list[dict]], list[str]]
    #: calibration kernel doing the same kind of work (see run.KERNELS)
    kernel: str = "events"

    @property
    def pinned_seeds(self) -> tuple[int, int]:
        return (self.default_seed, self.held_out_seed)

    def document(self, seed: int) -> dict[str, Any]:
        """The scenario document for one benchmark seed."""
        base = json.loads((SCENARIOS / f"{self.name}.json").read_text())
        doc = copy.deepcopy(base)
        doc["experiment"]["seeds"] = [int(seed)]
        return doc

    def write_document(self, seed: int, out_dir: Path) -> Path:
        """Validate the seed's document and write it where
        ``load_path`` finds it (the file stem is the scenario name)."""
        from repro.scenario.schema import validate
        doc = self.document(seed)
        validate(doc, json.loads(SCHEMA.read_text()))
        directory = out_dir / f"seed{seed}"
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.json"
        tmp = directory / f".{self.name}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True))
        os.replace(tmp, path)
        return path


WORKLOADS = {w.name: w for w in (
    Workload(
        "relocation_walk",
        default_seed=1, held_out_seed=2,
        exercised=("loop.spans", "datapath.transmits", "flowtable.packets",
                   "flowtable.lookups", "gtp.encaps", "gtp.decaps",
                   "signalling.sends", "sdn.flowmods",
                   "relocation.transfers"),
        invariants=_relocation_invariants),
    Workload(
        "attach_storm",
        default_seed=1, held_out_seed=2,
        exercised=("loop.spans", "datapath.transmits", "flowtable.packets",
                   "flowtable.lookups", "gtp.encaps", "gtp.decaps",
                   "signalling.sends", "sdn.flowmods", "fluid.resolves",
                   "fluid.packet_waits"),
        invariants=_attach_invariants),
    Workload(
        "ar_session",
        default_seed=1, held_out_seed=2,
        exercised=("loop.spans", "datapath.transmits", "matcher.frames"),
        invariants=_ar_invariants, kernel="arrays"),
)}


# -- pinned outputs ----------------------------------------------------------

def pinned_view(trials: list[dict]) -> list[dict]:
    """The trial metrics that are pinned (everything but UNPINNED)."""
    return [{k: v for k, v in metrics.items() if k not in UNPINNED}
            for metrics in trials]


def compare(expected: Any, actual: Any, path: str = "") -> list[str]:
    """Differences between a pinned value and an output: counts and
    strings exactly, floats to ``REL_TOL`` relative."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in expected or key not in actual:
                problems.append(f"{sub}: present on one side only")
            else:
                problems += compare(expected[key], actual[key], sub)
        return problems
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: {len(actual)} items, pinned {len(expected)}"]
        problems = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems += compare(e, a, f"{path}[{i}]")
        return problems
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, bool) or isinstance(actual, bool) \
                or not math.isclose(expected, actual, rel_tol=REL_TOL,
                                    abs_tol=0.0):
            return [f"{path}: {actual!r}, pinned {expected!r}"]
        return []
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r}, pinned {expected!r}"]
    return []


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def check(workload: Workload, seed: int, trials: list[dict],
          pins: dict) -> list[str]:
    """Every problem with one pass's outputs (empty when correct)."""
    problems = list(workload.invariants(trials))
    pinned = pins.get(workload.name, {}).get(str(seed))
    if pinned is not None:
        problems += compare(pinned, json.loads(json.dumps(
            pinned_view(trials))))
    elif seed in workload.pinned_seeds:
        problems.append(f"no pinned outputs for seed {seed}")
    return problems
