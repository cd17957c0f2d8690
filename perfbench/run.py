"""Benchmark of the ACACIA reproduction: end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload relocation_walk --seed 7 \\
        --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``perfbench/scenarios``):
``relocation_walk``, ``attach_storm`` and ``ar_session``.  Each run is
one process running serial trials through the public scenario path
(``repro.scenario.load_path(...).compile()`` then
``repro.exp.runner.ExperimentRunner``), in passes over the same inputs:

1. a warm-up pass on the workload's default seed, checked against the
   pinned outputs, which also lets lazy imports and caches settle;
2. timed passes on ``--seed`` until ``--seconds`` have elapsed, each
   checked against the invariants (and the pins for a pinned seed) and
   required to reproduce the first timed pass exactly.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass
time of the trials), ``setup_s`` (imports, document load and compile,
world construction; medians) and ``peak_rss_mb`` (this process's peak
resident memory).  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of :mod:`layers` plus
``trace.overhead_ratio``; it cross-checks the wrapper counts against the
program's own counters and writes the last traced pass's spans to
``perfbench/out``.

All times are host time, scaled to seconds of a reference host by the
calibration kernels of :data:`KERNELS`.  Every simulated quantity is a
correctness check, never a metric.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (trials, a failed one
being an error or a failed check) and ``metrics``.  A failed check exits
with status 1.

``--write-pins`` re-pins the simulated outputs of every workload's
pinned seeds into ``perfbench/pins.json``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import LAYERS, OPS, SETUP_OPS, Tracer
from workloads import (PINS, ROOT, WORKLOADS, check, load_pins,
                       pinned_view)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

#: Everything a workload imports, timed in fresh interpreters.
IMPORTS = ("numpy", "repro.scenario", "repro.scenario.runtime",
           "repro.exp.runner", "repro.baselines", "repro.apps.retail",
           "repro.apps.mobility", "repro.apps.scenario",
           "repro.apps.workload", "repro.vision.batch")
IMPORT_SAMPLES = 3
MIN_PASSES = 3
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Per-layer metrics and their units, in report order.
LAYER_UNITS = {
    "loop.events": "count", "loop.events_per_s": "1/s",
    "loop.self_s": "s", "loop.share": "ratio",
    "datapath.transmits": "count", "datapath.self_s": "s",
    "datapath.us_per_transmit": "us", "datapath.share": "ratio",
    "flowtable.lookups": "count", "flowtable.us_per_lookup": "us",
    "flowtable.miss_ratio": "ratio", "flowtable.rules_max": "count",
    "flowtable.self_s": "s", "flowtable.share": "ratio",
    "gtp.encaps": "count", "gtp.decaps": "count", "gtp.self_s": "s",
    "gtp.share": "ratio",
    "signalling.sends": "count", "signalling.retransmissions": "count",
    "signalling.retx_ratio": "ratio", "sdn.flowmods": "count",
    "control.self_s": "s", "control.share": "ratio",
    "fluid.resolves": "count", "fluid.packet_waits": "count",
    "fluid.self_s": "s", "fluid.share": "ratio",
    "relocation.transfers": "count", "relocation.self_s": "s",
    "relocation.share": "ratio",
    "matcher.frames": "count", "matcher.ms_per_frame": "ms",
    "matcher.cache_hit_ratio": "ratio", "matcher.self_s": "s",
    "matcher.share": "ratio",
    "setup.import_s": "s", "setup.compile_s": "s", "setup.build_s": "s",
    "trace.unattributed_share": "ratio", "trace.overhead_ratio": "ratio",
}
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    pass


# -- host -------------------------------------------------------------------

def cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must
    run before numpy is imported."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(cpus)
    return cpus


class _Event:
    __slots__ = ("time", "fn", "args")

    def __init__(self, time, fn, args):
        self.time = time
        self.fn = fn
        self.args = args


def events_kernel() -> None:
    """Event-queue work like the simulator's, using no program code:
    heap pushes and pops, small objects, calls and dict updates."""
    heap: list = []
    tally: dict = {}

    def work(key):
        tally[key % 997] = tally.get(key % 997, 0) + 1

    seq = 0
    for _ in range(10):
        for i in range(8000):
            heapq.heappush(heap, (i * 7919 % 1000, seq, _Event(i, work, (i,))))
            seq += 1
        while heap:
            event = heapq.heappop(heap)[2]
            event.fn(*event.args)


_ARRAYS: list = []


def arrays_kernel() -> None:
    """Array work like the matcher's, using no program code: a
    cache-sized float32 product and row reductions."""
    import numpy as np
    if not _ARRAYS:
        rng = np.random.default_rng(0)
        _ARRAYS.extend([rng.standard_normal((300, 64)).astype(np.float32),
                        rng.standard_normal((64, 1500)).astype(np.float32),
                        np.arange(0, 1500, 50)])
    a, b, segments = _ARRAYS
    for _ in range(120):
        c = a @ b
        c.max(axis=1)
        c.argmin(axis=1)
        np.partition(c[:, :200], 2, axis=1)
        np.add.reduceat(c, segments, axis=1)
        (c[:50].astype(np.float64) ** 2).sum()


#: Calibration kernel -> its time on the reference host.  Host times are
#: reported in reference-host seconds: each sample is scaled by the
#: reference time over the kernel's time right before and after it.  The
#: speed of a shared host drifts by up to 2x within a minute (other
#: tenants share its cores), and a kernel doing the same kind of work
#: as the workload tracks that drift.  Raw seconds go to the run record.
KERNELS = {"events": (events_kernel, 0.2), "arrays": (arrays_kernel, 0.15)}


def calibrate(kernel: str = "events") -> float:
    """Seconds one run of a calibration kernel takes now."""
    run, _ = KERNELS[kernel]
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def host(threads: int) -> dict:
    return {"platform": platform.platform(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(), "blas_threads": threads,
            "calibration_s": {name: calibrate(name) for name in KERNELS},
            "reference_calibration_s": {
                name: ref for name, (_, ref) in KERNELS.items()}}


def calibrated(run, kernel: str = "events"):
    """``(run(), scale)``: the result and the factor that turns host
    seconds measured during it into reference-host seconds."""
    before = calibrate(kernel)
    result = run()
    reference = KERNELS[kernel][1]
    return result, 2 * reference / (before + calibrate(kernel))


def import_sample() -> None:
    """In a fresh interpreter: print the seconds importing
    :data:`IMPORTS` takes and its calibration scale."""
    def load() -> float:
        start = time.perf_counter()
        for name in IMPORTS:
            importlib.import_module(name)
        return time.perf_counter() - start

    print(*calibrated(load))


def time_imports() -> tuple[float, float]:
    """``(seconds, scale)`` of :func:`import_sample` in a child, so the
    calibration runs on the same CPU at the same time as the imports."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "import run; run.import_sample()")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise CheckFailed(f"importing the program failed:\n{proc.stderr}")
    seconds, scale = proc.stdout.split()
    return float(seconds), float(scale)


# -- passes -----------------------------------------------------------------

def run_pass(doc_path: Path, tracer: Tracer, traced: bool,
             kernel: str) -> dict:
    """Load, compile and run one document's trials serially; host
    seconds are raw, ``scale`` converts them to reference seconds."""
    gc.collect()
    result, scale = calibrated(lambda: _run_pass(doc_path, tracer, traced),
                               kernel)
    result["scale"] = scale
    return result


def _run_pass(doc_path: Path, tracer: Tracer, traced: bool) -> dict:
    from repro.exp.runner import ExperimentRunner
    from repro.scenario import load_path

    tracer.reset()
    tracer.install(register=traced)
    try:
        start = time.perf_counter()
        spec = load_path(doc_path).compile()
        compiled = time.perf_counter()
        result = ExperimentRunner(spec).run()
        end = time.perf_counter()
    finally:
        tracer.uninstall()
    # setup entry points never nest, so their totals add up
    build = sum(tracer.op_total(op.label) for op in SETUP_OPS)
    errors = [t.error for t in result.trials if t.status != "ok"]
    return {"compile_s": compiled - start, "wall_s": end - compiled,
            "build_s": build, "errors": errors,
            "trials": [t.metrics for t in result.trials]}


def layer_values(tracer: Tracer, wall: float, scale: float) -> dict:
    """One traced pass's per-layer values, times in reference seconds
    (rates are filled in later)."""
    count = tracer.counts.get
    raw_selfs = tracer.layer_self()
    selfs = {layer: t * scale for layer, t in raw_selfs.items()}
    inst = tracer.instances
    sends = count("signalling.sends", 0)
    retx = sum(f.retransmissions for f in inst["fabrics"])
    lookups = count("flowtable.lookups", 0)
    packets = count("flowtable.packets", 0)
    transmits = count("datapath.transmits", 0)
    frames = count("matcher.frames", 0)
    hits = sum(c.stats()["hits"] for c in inst["matcher_caches"])
    misses = sum(c.stats()["misses"] for c in inst["matcher_caches"])

    def per(value, n, factor):
        return value / n * factor if n else 0.0

    values = {
        "loop.events": tracer.loop_events,
        "datapath.transmits": transmits,
        "datapath.us_per_transmit": per(selfs["datapath"], transmits, 1e6),
        "flowtable.lookups": lookups,
        "flowtable.us_per_lookup": per(
            tracer.op_self("FlowSwitch.lookup") * scale, lookups, 1e6),
        "flowtable.miss_ratio": per(lookups, packets, 1.0),
        "flowtable.rules_max": max((len(s.table) for s in inst["switches"]),
                                   default=0),
        "gtp.encaps": count("gtp.encaps", 0),
        "gtp.decaps": count("gtp.decaps", 0),
        "signalling.sends": sends,
        "signalling.retransmissions": retx,
        "signalling.retx_ratio": per(retx, sends, 1.0),
        "sdn.flowmods": count("sdn.flowmods", 0),
        "fluid.resolves": count("fluid.resolves", 0),
        "fluid.packet_waits": count("fluid.packet_waits", 0),
        "relocation.transfers": count("relocation.transfers", 0),
        "matcher.frames": frames,
        "matcher.ms_per_frame": per(selfs["matcher"], frames, 1e3),
        "matcher.cache_hit_ratio": per(hits, hits + misses, 1.0),
        "trace.unattributed_share": 1.0 - sum(raw_selfs.values()) / wall,
    }
    for layer in LAYERS:
        if layer == "setup":
            continue
        values[f"{layer}.self_s"] = selfs[layer]
        values[f"{layer}.share"] = raw_selfs[layer] / wall
    return values


def cross_checks(tracer: Tracer, workload) -> list[str]:
    """Wrapper counts against the program's public counters."""
    inst = tracer.instances
    count = tracer.counts.get
    problems = []

    def expect(name, wrapped, public):
        if wrapped != public:
            problems.append(f"{name}: wrappers counted {wrapped}, the "
                            f"program counted {public}")

    expect("loop.events", tracer.loop_events,
           sum(s.events_run for s in inst["simulators"]))
    expect("signalling.sends", count("signalling.sends", 0),
           sum(f.messages_sent for f in inst["fabrics"]))
    expect("datapath.transmits", count("datapath.transmits", 0),
           sum(n.tx_count for n in inst["nodes"]))
    switches = inst["switches"]
    expect("flowtable.packets", count("flowtable.packets", 0),
           sum(s.fast_path_hits + s.slow_path_hits + s.table_misses
               for s in switches))
    expect("flowtable.lookups", count("flowtable.lookups", 0),
           sum(s.slow_path_hits + s.table_misses for s in switches))
    expect("fluid.resolves", count("fluid.resolves", 0),
           sum(d.resolves for d in inst["fluid_domains"]))
    for counter in workload.exercised:
        if not count(counter, 0):
            problems.append(f"{counter} is zero on {workload.name}: a "
                            f"pre-bound reference bypassed the wrapper")
    return problems


# -- the run ----------------------------------------------------------------

def measure(workload, seed: int, seconds: float, trace: bool,
            record: dict) -> tuple[dict, int, int, list[str]]:
    pins = load_pins()
    problems: list[str] = []
    attempted = failed = 0

    def checked(doc_seed: int, result: dict) -> None:
        nonlocal attempted, failed
        attempted += len(result["trials"])
        found = [f"trial error:\n{e}" for e in result["errors"]]
        if not found:
            found = check(workload, doc_seed, result["trials"], pins)
        if found:
            failed += len(result["trials"])
            problems.extend(found)

    default_doc = workload.write_document(workload.default_seed, OUT)
    doc = workload.write_document(seed, OUT)
    setup_tracer = Tracer(SETUP_OPS, record_spans=False)
    checked(workload.default_seed,
            run_pass(default_doc, setup_tracer, False, workload.kernel))
    if problems:
        return {}, attempted, failed, problems

    layer_tracer = Tracer(SETUP_OPS + OPS) if trace else None
    untraced: list[dict] = []
    traced: list[tuple[dict, dict]] = []
    first = None
    deadline = time.perf_counter() + seconds
    while (len(untraced) < MIN_PASSES or (trace and len(traced) < MIN_PASSES)
           or time.perf_counter() < deadline):
        tracing = trace and len(traced) < len(untraced)
        tracer = layer_tracer if tracing else setup_tracer
        result = run_pass(doc, tracer, tracing, workload.kernel)
        checked(seed, result)
        text = json.dumps(result["trials"], sort_keys=True)
        if first is None:
            first = text
        elif text != first:
            problems.append("a pass did not reproduce the first pass")
        if tracing:
            values = layer_values(tracer, result["wall_s"], result["scale"])
            problems.extend(cross_checks(tracer, workload))
            traced.append((result, values))
        else:
            untraced.append(result)
        if problems:
            break

    if problems:
        return {}, attempted, failed, problems
    record["passes"] = [{k: r[k] for k in ("wall_s", "compile_s", "build_s",
                                           "scale")} for r in untraced]
    record["wall_samples"] = len(untraced)
    wall = statistics.median(r["wall_s"] * r["scale"] for r in untraced)
    compile_s = statistics.median(r["compile_s"] * r["scale"]
                                  for r in untraced)
    build_s = statistics.median(r["build_s"] * r["scale"] for r in untraced)
    if not trace:
        return ({"wall_s": wall,
                 "setup_s": record["import_s"] + compile_s + build_s,
                 "peak_rss_mb": resource.getrusage(
                     resource.RUSAGE_SELF).ru_maxrss / 1024.0},
                attempted, failed, problems)

    record["traced_passes"] = [{k: r[k] for k in ("wall_s", "scale")}
                               for r, _ in traced]
    counts = {(name, v) for _, values in traced
              for name, v in values.items() if LAYER_UNITS[name] == "count"}
    if len(counts) != len({name for name, _ in counts}):
        problems.append("traced passes disagree on a wrapper count")
    # counts repeat exactly across passes (checked above); times vary
    metrics = {name: (value if LAYER_UNITS[name] == "count" else
                      statistics.median(v[name] for _, v in traced))
               for name, value in traced[0][1].items()}
    traced_wall = statistics.median(r["wall_s"] * r["scale"]
                                    for r, _ in traced)
    metrics["loop.events_per_s"] = metrics["loop.events"] / wall
    metrics["setup.import_s"] = record["import_s"]
    metrics["setup.compile_s"] = compile_s
    metrics["setup.build_s"] = build_s
    metrics["trace.overhead_ratio"] = traced_wall / wall
    write_spans(layer_tracer, workload.name, seed)
    return metrics, attempted, failed, problems


def write_spans(tracer: Tracer, name: str, seed: int) -> None:
    """The last traced pass's spans, one column per array."""
    import numpy as np
    OUT.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        OUT / f"spans-{name}-seed{seed}.npz",
        ops=np.array([f"{op.layer} {op.target}" for op in tracer.ops]),
        id=np.frombuffer(tracer.span_id, dtype=np.int64),
        parent=np.frombuffer(tracer.span_parent, dtype=np.int64),
        op=np.frombuffer(tracer.span_op, dtype=np.uint16),
        start=np.frombuffer(tracer.span_start, dtype=np.float64),
        end=np.frombuffer(tracer.span_end, dtype=np.float64))


def write_pins() -> int:
    """Run every workload's pinned seeds and store their outputs."""
    tracer = Tracer(SETUP_OPS, record_spans=False)
    pins = {}
    for name, workload in sorted(WORKLOADS.items()):
        pins[name] = {}
        for seed in workload.pinned_seeds:
            result = run_pass(workload.write_document(seed, OUT), tracer,
                              False, workload.kernel)
            problems = result["errors"] or workload.invariants(
                result["trials"])
            if problems:
                print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                return 1
            pins[name][str(seed)] = json.loads(json.dumps(
                pinned_view(result["trials"])))
            print(f"pinned {name} seed {seed}")
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    threads = cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_pins:
        return write_pins()
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    record = {"workload": workload.name, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "host": host(threads)}
    try:
        record["import_samples"] = [time_imports()
                                    for _ in range(IMPORT_SAMPLES)]
        record["import_s"] = statistics.median(
            seconds * scale for seconds, scale in record["import_samples"])
        for name in IMPORTS:
            importlib.import_module(name)
        metrics, attempted, failed, problems = measure(
            workload, seed, args.seconds, bool(args.trace), record)
    except CheckFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    units = LAYER_UNITS if args.trace else E2E_UNITS
    record["metrics"] = metrics
    record["problems"] = problems
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{workload.name}-seed{seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))

    h = record["host"]
    print(f"host: {h['platform']} python {h['python']} cpus "
          f"{h['cpu_count']} blas_threads {h['blas_threads']} "
          f"calibration {h['calibration_s']} s")
    print(f"workload {workload.name} seed {seed}: "
          f"{record.get('wall_samples', 0)} untraced passes; times in "
          f"seconds of a host where the {workload.kernel!r} calibration "
          f"kernel takes {KERNELS[workload.kernel][1]} s")
    for name in units:
        if name in metrics:
            print(f"  {name:28s} {metrics[name]:.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
