"""Loading scenario documents from disk and the shipped catalogue.

JSON is the native format (stdlib only); YAML documents load too when
PyYAML is importable -- the dependency is gated, never required, so
the scenario layer works on a bare ``numpy``-only install.  The
shipped catalogue lives in ``scenarios/`` at the repository root; the
``scenario`` CLI, the figure benchmarks and the tests all resolve
names through :func:`catalogue` / :func:`load`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.scenario.document import Scenario
from repro.scenario.schema import ScenarioError

#: The shipped scenario catalogue (``<repo>/scenarios``).
CATALOGUE_DIR = Path(__file__).resolve().parents[3] / "scenarios"

_SUFFIXES = (".json", ".yaml", ".yml")


def parse_text(text: str, format: str = "json") -> dict:
    """Parse a document body; ``format`` is ``"json"`` or ``"yaml"``."""
    if format == "json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from None
    if format in ("yaml", "yml"):
        try:
            import yaml
        except ImportError:
            raise ScenarioError(
                "YAML scenario documents need PyYAML installed; "
                "rewrite the document as JSON or `pip install pyyaml`"
            ) from None
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"not valid YAML: {exc}") from None
        if not isinstance(data, dict):
            raise ScenarioError("a YAML scenario document must be a "
                                "mapping at the top level")
        return data
    raise ScenarioError(f"unknown document format {format!r}; "
                        "expected 'json' or 'yaml'")


def load_path(path: str | Path) -> Scenario:
    """Load and validate one scenario document from a file."""
    path = Path(path)
    if path.suffix not in _SUFFIXES:
        raise ScenarioError(
            f"{path.name}: unknown scenario suffix {path.suffix!r}; "
            f"expected one of {list(_SUFFIXES)}")
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from None
    data = parse_text(text, path.suffix.lstrip("."))
    scenario = Scenario.from_dict(data)
    stem = path.stem
    if scenario.name != stem:
        raise ScenarioError(
            f"{path.name}: scenario.name {scenario.name!r} must match "
            f"the file stem {stem!r}")
    return scenario


def catalogue(directory: Optional[Path] = None) -> dict[str, Path]:
    """Name -> path of every document in the catalogue, sorted."""
    directory = CATALOGUE_DIR if directory is None else Path(directory)
    if not directory.is_dir():
        return {}
    return {path.stem: path
            for path in sorted(directory.iterdir())
            if path.suffix in _SUFFIXES}


def load(name_or_path: str, directory: Optional[Path] = None) -> Scenario:
    """Resolve a catalogue name or an explicit path to a scenario."""
    entries = catalogue(directory)
    if name_or_path in entries:
        return load_path(entries[name_or_path])
    path = Path(name_or_path)
    if path.suffix in _SUFFIXES and path.exists():
        return load_path(path)
    raise ScenarioError(
        f"unknown scenario {name_or_path!r}; catalogue names: "
        f"{sorted(entries)} (or pass a .json/.yaml path)")
