"""Architecture tests: the layering rules of CONTRIBUTING.md."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "repro"

#: package -> packages it must never import at module scope
#:
#: ``repro.ops`` sits at the very top of the stack: it may import
#: anything below (sim/epc/vision/faults/core/scenario), but nothing
#: below it -- including the batch ``exp`` runner -- may import ops.
#: The operator runtime is strictly optional machinery layered over a
#: scenario run.
FORBIDDEN = {
    "sim": {"repro.epc", "repro.sdn", "repro.d2d", "repro.localization",
            "repro.vision", "repro.core", "repro.apps",
            "repro.baselines", "repro.scenario", "repro.ops"},
    "epc": {"repro.core", "repro.apps", "repro.baselines",
            "repro.scenario", "repro.ops"},
    "sdn": {"repro.core", "repro.apps", "repro.baselines",
            "repro.scenario", "repro.ops"},
    "d2d": {"repro.core", "repro.apps", "repro.baselines",
            "repro.scenario", "repro.ops"},
    "localization": {"repro.core", "repro.apps", "repro.baselines",
                     "repro.scenario", "repro.ops"},
    "vision": {"repro.core", "repro.apps", "repro.baselines",
               "repro.scenario", "repro.ops"},
    "faults": {"repro.core", "repro.apps", "repro.baselines",
               "repro.scenario", "repro.ops"},
    "core": {"repro.baselines", "repro.scenario", "repro.ops"},
    "apps": {"repro.baselines", "repro.scenario", "repro.ops"},
    "baselines": {"repro.scenario", "repro.exp", "repro.ops"},
    # presets are compiled *from* scenario documents, so the exp
    # package may import repro.scenario (see exp/presets.py) but the
    # scenario layer must never reach back into repro.exp at module
    # scope -- Scenario.compile() imports the spec lazily.
    "scenario": {"repro.exp", "repro.ops"},
    "exp": {"repro.ops"},
}


def module_scope_imports(path: Path) -> set[str]:
    """Imports executed at import time (TYPE_CHECKING blocks excluded)."""
    tree = ast.parse(path.read_text())
    imports: set[str] = set()

    def visit(node, type_checking=False):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If):
                # skip `if TYPE_CHECKING:` bodies
                test = child.test
                is_tc = (isinstance(test, ast.Name)
                         and test.id == "TYPE_CHECKING") or (
                    isinstance(test, ast.Attribute)
                    and test.attr == "TYPE_CHECKING")
                visit(child, type_checking=type_checking or is_tc)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue    # lazy imports inside functions are fine
            if isinstance(child, ast.Import) and not type_checking:
                imports.update(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not type_checking:
                if child.module:
                    imports.add(child.module)
            elif isinstance(child, (ast.ClassDef, ast.Try, ast.With)):
                visit(child, type_checking=type_checking)
    visit(tree)
    return imports


@pytest.mark.parametrize("package", sorted(FORBIDDEN))
def test_layer_does_not_reach_up(package):
    forbidden = FORBIDDEN[package]
    violations = []
    for path in (SRC / package).rglob("*.py"):
        for imported in module_scope_imports(path):
            for banned in forbidden:
                if imported == banned or imported.startswith(banned + "."):
                    violations.append(f"{path.name}: imports {imported}")
    assert violations == [], violations


#: Attributes that used to be wired by rebinding at runtime
#: (``ue.on_downlink = probe`` and friends).  Cross-layer wiring must go
#: through the typed hook bus; only the owning object (``self``) may
#: still declare/initialise these names.
FORBIDDEN_REBINDS = {"assign_ip", "on_downlink", "miss_handler"}


def test_no_monkey_patched_wiring():
    violations = []
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr in FORBIDDEN_REBINDS
                        and not (isinstance(target.value, ast.Name)
                                 and target.value.id == "self")):
                    violations.append(
                        f"{path.relative_to(SRC)}:{node.lineno}: "
                        f"rebinds .{target.attr}")
    assert violations == [], (
        "method-assignment wiring found; subscribe on the hook bus "
        f"instead: {violations}")


def test_sim_is_fully_self_contained():
    """The simulator layer depends on nothing but stdlib and numpy."""
    allowed_prefixes = ("repro.sim",)
    for path in (SRC / "sim").rglob("*.py"):
        for imported in module_scope_imports(path):
            if imported.startswith("repro."):
                assert imported.startswith(allowed_prefixes), \
                    f"{path.name} imports {imported}"


#: Event-queue internals: the tuple heap, the now lane, the
#: unvalidated internal arm path and the event pool are private to
#: ``repro.sim``.  Everything else must go through
#: ``Simulator.schedule()`` / ``SimConfig.build_simulator()`` /
#: ``Simulator.profile()``.
SCHEDULER_INTERNALS = {"_heap", "_now_lane", "_schedule_internal", "_pool"}


#: Fluid data-plane internals: entry tables, per-direction queue maps
#: and the rate solver are private to ``repro.sim.fluid``.  Other layers
#: compose fluid traffic only through the public ``FluidDomain`` /
#: ``FluidFlow`` / ``FluidLink`` surface (``attach`` is called by
#: ``FluidFlow`` itself).  ``core/network.py`` is the single sanctioned
#: wiring point outside ``repro.sim``.
FLUID_INTERNALS = {"_attach_fluid", "_entries", "_fluid_by_dir",
                   "_fluid_domain", "_solve_rates", "_accrue_drops",
                   "_rearm_flush", "_hops"}

FLUID_WIRING_FILES = {"core/network.py"}


def test_fluid_importable_only_from_sanctioned_layers():
    """Only ``repro.sim`` and ``core/network.py`` import the fluid module.

    Everything else selects the data plane declaratively through
    ``SimConfig.data_plane`` and never names ``repro.sim.fluid``.
    """
    violations = []
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        if (SRC / "sim") in path.parents or rel in FLUID_WIRING_FILES:
            continue
        for imported in module_scope_imports(path):
            if imported == "repro.sim.fluid":
                violations.append(f"{rel}: imports {imported}")
    assert violations == [], (
        "repro.sim.fluid imported outside its sanctioned layers; select "
        f"the data plane via SimConfig.data_plane instead: {violations}")


def test_no_fluid_internals_outside_sim():
    """Nothing outside ``repro.sim`` (plus the network wiring point)
    touches fluid data-plane internals.  ``self.<name>`` is allowed for
    the same reason as the scheduler gate below."""
    violations = []
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        if (SRC / "sim") in path.parents or rel in FLUID_WIRING_FILES:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr in FLUID_INTERNALS
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                violations.append(f"{rel}:{node.lineno}: "
                                  f"touches .{node.attr}")
    assert violations == [], (
        "fluid data-plane internals leaked; use the FluidDomain/"
        f"FluidFlow/FluidLink public surface instead: {violations}")


#: Session-relocation internals: the bearer re-steer/suspend machinery
#: and the raw context-transfer primitive belong to the control plane
#: (``repro.epc``) and its orchestrator (``core/mrs.py`` /
#: ``core/network.py``).  Application and experiment layers observe
#: relocation only through the hook-bus events
#: (``SessionRelocating`` / ``SessionRelocated``) and the MRS surface.
RELOCATION_INTERNALS = {"resteer_bearer", "resteer_bearer_async",
                        "_resteer_proc", "suspend_bearer_flows",
                        "suspend_bearer_flows_async", "_suspend_proc",
                        "context_transfer_async", "_relocate_proc",
                        "_maybe_relocate"}

RELOCATION_LAYERS = ("apps", "exp", "baselines")


@pytest.mark.parametrize("package", RELOCATION_LAYERS)
def test_no_relocation_internals_in_high_layers(package):
    """``apps``/``exp``/``baselines`` never drive relocation directly.

    They build fabrics and watch ``SessionRelocating``/``SessionRelocated``;
    the MRS decides when to move a session and the EPC control plane
    knows how.  ``self.<name>`` is allowed as in the gates above.
    """
    violations = []
    for path in (SRC / package).rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr in RELOCATION_INTERNALS
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                violations.append(f"{rel}:{node.lineno}: "
                                  f"touches .{node.attr}")
    assert violations == [], (
        "relocation internals leaked into a high layer; observe the "
        f"SessionRelocating/SessionRelocated events instead: {violations}")


def test_no_scheduler_internals_outside_sim():
    """Nothing outside ``repro.sim`` touches scheduler internals.

    ``self.<name>`` is allowed (a class may own an unrelated attribute
    of the same shape, e.g. a vision-layer ``_pool``); any other
    receiver means code is reaching into the engine's guts and would
    silently break when the scheduler implementation changes.
    """
    violations = []
    for path in SRC.rglob("*.py"):
        if (SRC / "sim") in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr in SCHEDULER_INTERNALS
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id == "self")):
                violations.append(
                    f"{path.relative_to(SRC)}:{node.lineno}: "
                    f"touches .{node.attr}")
    assert violations == [], (
        "scheduler internals leaked outside repro.sim; use the public "
        f"Simulator API instead: {violations}")


#: The one sanctioned entry point that turns a raw scenario-document
#: dict into a built deployment.  Only the scenario layer (which
#: validates documents first) and the baselines package itself (whose
#: legacy builders delegate to it) may call it; every other layer goes
#: through those two, so an unvalidated dict can never build a world.
RAW_DICT_BUILDERS = {"build_topology"}

RAW_DICT_BUILDER_LAYERS = ("scenario/", "baselines/")


def test_only_scenario_layer_builds_from_raw_dicts():
    violations = []
    for path in SRC.rglob("*.py"):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(RAW_DICT_BUILDER_LAYERS):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = (fn.id if isinstance(fn, ast.Name)
                    else fn.attr if isinstance(fn, ast.Attribute)
                    else None)
            if name in RAW_DICT_BUILDERS:
                violations.append(f"{rel}:{node.lineno}: calls {name}")
    assert violations == [], (
        "raw-dict deployment construction outside the scenario layer; "
        f"go through repro.scenario documents instead: {violations}")
