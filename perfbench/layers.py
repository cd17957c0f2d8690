"""Per-layer tracing for the benchmark: wrappers around public entry points.

A :class:`Tracer` replaces each entry point listed in :data:`OPS` (a
class attribute or a module-level function) with a wrapper that opens a
span on entry and closes it on exit.  A span's *self time* is its
duration minus the duration of the spans nested inside it, so every
host second inside a wrapped call is charged to exactly one layer.  The
event loop's self time is therefore the time inside ``Simulator.run``
that no other layer claimed.

Counters ride on the same boundaries: an op's ``counter`` is bumped
once per call (or by ``weight(args)``), except when the enclosing span
is the same counter -- an override calling ``super()`` or a batch call
delegating per item counts once.

Spans of the current pass are kept in memory as compact arrays (id,
parent id, op, start, end) and written out by the caller at the end of
the run; counters and self times accumulate per pass.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Layer name -> (the modules whose entry points it wraps, what it
#: should move).  The prediction is written before measuring; the
#: traced run's shares are what bear it out or not.
LAYERS = {
    "loop": ("sim.engine, sim.scheduler",
             "wall_s on relocation_walk; not attach_storm or ar_session"),
    "datapath": ("sim.link, sim.packet, sim.node",
                 "wall_s on relocation_walk and attach_storm"),
    "flowtable": ("sdn.switch, sdn.openflow",
                  "wall_s mainly on attach_storm, less on relocation_walk"),
    "gtp": ("epc.gtp",
            "wall_s mainly on attach_storm, less on relocation_walk"),
    "control": ("epc.signalling, epc.procedures, sdn.controller",
                "wall_s on attach_storm"),
    "fluid": ("sim.fluid", "wall_s on attach_storm only"),
    "relocation": ("core.network, core.mrs",
                   "wall_s on relocation_walk only"),
    "matcher": ("vision.batch, vision.features",
                "wall_s and peak_rss_mb on ar_session only"),
    "setup": ("scenario, exp, baselines", "setup_s on every workload"),
}


@dataclass(frozen=True)
class Op:
    """One wrapped entry point.

    ``target`` is ``"module:Class.method"`` or ``"module:function"``.
    """

    target: str
    layer: str
    counter: Optional[str] = None
    weight: Optional[Callable[[tuple], int]] = None

    @property
    def label(self) -> str:
        return self.target.split(":", 1)[1]


def _frames(args: tuple) -> int:
    return len(args[1])


#: Every wrapped entry point of the program, by layer.
OPS = (
    Op("repro.sim.engine:Simulator.run", "loop", "loop.spans"),
    Op("repro.sim.engine:Simulator.run_until_complete", "loop", "loop.spans"),
    Op("repro.sim.link:Link.transmit", "datapath", "datapath.transmits"),
    Op("repro.sim.fluid:FluidLink.transmit", "datapath",
       "datapath.transmits"),
    Op("repro.sim.node:Node.receive", "datapath"),
    Op("repro.sdn.switch:FlowSwitch.on_receive", "flowtable",
       "flowtable.packets"),
    Op("repro.sdn.switch:FlowSwitch.lookup", "flowtable",
       "flowtable.lookups"),
    Op("repro.sdn.switch:FlowSwitch.install", "flowtable"),
    Op("repro.sdn.switch:FlowSwitch.remove", "flowtable"),
    Op("repro.epc.gtp:gtp_encapsulate", "gtp", "gtp.encaps"),
    Op("repro.epc.gtp:gtp_decapsulate", "gtp", "gtp.decaps"),
    Op("repro.epc.signalling:SignallingFabric.send", "control",
       "signalling.sends"),
    Op("repro.epc.signalling:SignallingFabric.send_reliable", "control"),
    Op("repro.sdn.controller:SdnController.install_rule", "control",
       "sdn.flowmods"),
    Op("repro.sdn.controller:SdnController.remove_rules", "control",
       "sdn.flowmods"),
    Op("repro.sdn.controller:SdnController.apply_batch", "control"),
    Op("repro.epc.procedures:EPCControlPlane.attach_async", "control"),
    Op("repro.epc.procedures:EPCControlPlane.activate_dedicated_bearer_async",
       "control"),
    Op("repro.epc.procedures:EPCControlPlane.handover_async", "control"),
    Op("repro.epc.procedures:EPCControlPlane.resteer_bearer_async",
       "control"),
    Op("repro.sim.fluid:FluidDomain.resolve", "fluid", "fluid.resolves"),
    Op("repro.sim.fluid:FluidQueue.packet_wait", "fluid",
       "fluid.packet_waits"),
    Op("repro.core.network:MobileNetwork.context_transfer_async",
       "relocation", "relocation.transfers"),
    Op("repro.core.mrs:MecRegistrationServer.request_connectivity",
       "relocation"),
    Op("repro.core.mrs:MecRegistrationServer.relocate_session",
       "relocation"),
    Op("repro.vision.batch:BatchObjectMatcher.match_frame", "matcher",
       "matcher.frames"),
    Op("repro.vision.batch:BatchObjectMatcher.match_frames", "matcher",
       "matcher.frames", weight=_frames),
    Op("repro.vision.features:FeatureExtractor.frame_of", "matcher"),
    Op("repro.vision.features:FeatureExtractor.clutter_frame", "matcher"),
)

#: World construction: always wrapped, because ``setup_s`` needs it
#: with tracing off too.  A handful of calls per pass, so no overhead.
SETUP_OPS = (
    Op("repro.scenario.runtime:ScenarioRun.__init__", "setup"),
    Op("repro.apps.retail:build_retail_database", "setup"),
    Op("repro.baselines.deployments:build_deployment", "setup"),
)

#: Instances whose public counters cross-check the wrapper counts.
REGISTERED = {
    "simulators": "repro.sim.engine:Simulator",
    "fabrics": "repro.epc.signalling:SignallingFabric",
    "nodes": "repro.sim.node:Node",
    "switches": "repro.sdn.switch:FlowSwitch",
    "fluid_domains": "repro.sim.fluid:FluidDomain",
    "matcher_caches": "repro.vision.batch:CandidateMatrixCache",
}


def _resolve(target: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for a target; raises if it is missing, so
    an entry point renamed under the benchmark fails loudly."""
    module_name, qualname = target.split(":", 1)
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise LookupError(f"benchmark entry point {target} does not exist")
    return owner, attr


class Tracer:
    """Wraps entry points, keeps the span stack, sums self time.

    ``clock`` is injectable so the self-time arithmetic can be tested
    on a synthetic call tree with exact ticks.
    """

    def __init__(self, ops=OPS, clock: Callable[[], float] = time.perf_counter,
                 record_spans: bool = True) -> None:
        self.ops = tuple(ops)
        self.clock = clock
        self.record_spans = record_spans
        self._patches: list[tuple[Any, str, Any]] = []
        # the wrappers hold these two by reference: cleared, never rebound
        self.stack: list[list] = []
        self.instances: dict[str, list] = {k: [] for k in REGISTERED}
        self.reset()

    # -- per-pass state ---------------------------------------------------

    def reset(self) -> None:
        """Clear counters, self times, spans and registered instances."""
        self.stack.clear()
        for registered in self.instances.values():
            registered.clear()
        self.self_time = [0.0] * len(self.ops)
        self.total_time = [0.0] * len(self.ops)
        self.counts: dict[str, int] = {}
        self.loop_events = 0
        self._next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("H")
        self.span_start = array("d")
        self.span_end = array("d")

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for op, value in zip(self.ops, self.self_time):
            out[op.layer] = out.get(op.layer, 0.0) + value
        return out

    def op_self(self, label: str) -> float:
        return sum(t for op, t in zip(self.ops, self.self_time)
                   if op.label == label)

    def op_total(self, label: str) -> float:
        return sum(t for op, t in zip(self.ops, self.total_time)
                   if op.label == label)

    # -- installation -----------------------------------------------------

    def install(self, register: bool = False) -> None:
        """Patch every op (and, with ``register``, the constructors of
        :data:`REGISTERED`)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for index, op in enumerate(self.ops):
            owner, attr = _resolve(op.target)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, index, op)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
            else:
                # a module function: every loaded module that imported
                # it by name holds its own reference
                for module in list(sys.modules.values()):
                    if (getattr(module, "__name__", "").startswith("repro")
                            and vars(module).get(attr) is original):
                        self._patch(module, attr, original, wrapper)
        if register:
            for kind, target in REGISTERED.items():
                module, name = _resolve(target)
                cls = vars(module)[name]
                init = vars(cls)["__init__"]
                self._patch(cls, "__init__", init,
                            self._registering(init, self.instances, kind))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @staticmethod
    def _registering(init, instances, kind):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            instances[kind].append(self)
        return __init__

    def _wrap(self, fn, index: int, op: Op):
        tracer = self
        stack = self.stack
        clock = self.clock
        counter = op.counter
        weight = op.weight
        is_loop = op.layer == "loop"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = tracer._next_id
            tracer._next_id += 1
            outer_loop = is_loop and not any(f[2] for f in stack)
            if outer_loop:
                sim = args[0]
                before = sim.events_run
            frame = [clock(), 0.0, is_loop, counter, span]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                tracer.self_time[index] += duration - frame[1]
                tracer.total_time[index] += duration
                if parent is not None:
                    parent[1] += duration
                if counter is not None and (parent is None
                                            or parent[3] != counter):
                    tracer.counts[counter] = (tracer.counts.get(counter, 0)
                                              + (weight(args) if weight
                                                 else 1))
                if outer_loop:
                    tracer.loop_events += sim.events_run - before
                if tracer.record_spans:
                    tracer.span_id.append(span)
                    tracer.span_parent.append(-1 if parent is None
                                              else parent[4])
                    tracer.span_op.append(index)
                    tracer.span_start.append(frame[0])
                    tracer.span_end.append(end)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper
