#!/usr/bin/env python3
"""Time importing the benchmark's module list in fresh interpreters.

Usage, from the repository root::

    python tools/importtime.py                    # this checkout, 15 runs
    python tools/importtime.py --runs 25 --top 20
    python tools/importtime.py --src ../other/src # compare two checkouts

Each run starts two fresh interpreters per checkout, with bytecode
writing off (``PYTHONDONTWRITEBYTECODE=1``) so every run compiles the
same source: one times the imports with ``time.perf_counter`` and
counts the dataclasses and classes the imported ``repro`` modules
define, the other imports under ``-X importtime``.  With more than one
``--src`` the checkouts alternate within every run, so host drift hits
them alike.  The module list is perfbench's ``IMPORTS``, read from
``perfbench/run.py`` without importing it.

Prints, per checkout, the median and minimum import time and the
modules with the highest median self time under ``-X importtime``.
Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Run in the child after the imports are timed: counts what the
#: loaded ``repro`` modules define.
_COUNT = """
import dataclasses
classes = [v for name, m in list(sys.modules.items())
           if name == "repro" or name.startswith("repro.")
           for v in vars(m).values()
           if isinstance(v, type) and v.__module__ == name]
print(elapsed, sum(dataclasses.is_dataclass(c) for c in classes),
      len(classes), sum(n.startswith("repro") for n in sys.modules))
"""


def benchmark_imports() -> list[str]:
    """perfbench's ``IMPORTS`` tuple, parsed from its source."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "IMPORTS"
                        for t in node.targets)):
            return list(ast.literal_eval(node.value))
    raise SystemExit("perfbench/run.py defines no IMPORTS")


def _child(src: Path, code: str, *flags: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          cwd=src.parent, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"importing from {src} failed:\n{proc.stderr}")
    return proc


def timed(src: Path, modules: list[str]) -> tuple[float, int, int, int]:
    """``(seconds, dataclasses, classes, repro modules)`` of one run."""
    code = ("import sys, time\nstart = time.perf_counter()\n"
            + "".join(f"import {m}\n" for m in modules)
            + "elapsed = time.perf_counter() - start\n" + _COUNT)
    seconds, *counts = _child(src, code).stdout.split()
    return (float(seconds), *map(int, counts))


def self_times(src: Path, modules: list[str]) -> dict[str, int]:
    """Microseconds of self time per module under ``-X importtime``."""
    code = "".join(f"import {m}\n" for m in modules)
    times = {}
    for line in _child(src, code, "-X", "importtime").stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        times[name.strip()] = int(own)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--top", type=int, default=15,
                        help="modules to list by median self time")
    parser.add_argument("--src", action="append", type=Path,
                        help="a checkout's src directory (repeatable; "
                             "default: this checkout's)")
    args = parser.parse_args(argv)
    sources = [p.resolve() for p in (args.src or [ROOT / "src"])]
    modules = benchmark_imports()

    runs = {src: [] for src in sources}
    selfs = {src: [] for src in sources}
    for _ in range(args.runs):
        for src in sources:
            runs[src].append(timed(src, modules))
            selfs[src].append(self_times(src, modules))

    print(f"{args.runs} runs of: {' '.join(modules)}")
    for src in sources:
        seconds = [r[0] * 1e3 for r in runs[src]]
        _, dataclasses, classes, loaded = runs[src][0]
        print(f"\n{src}")
        print(f"  import: median {statistics.median(seconds):.1f} ms, "
              f"min {min(seconds):.1f} ms")
        print(f"  repro: {loaded} modules, {classes} classes, "
              f"{dataclasses} dataclasses")
        names = set().union(*selfs[src])
        median = {n: statistics.median(s.get(n, 0) for s in selfs[src])
                  for n in names}
        repro = sum(v for n, v in median.items() if n.startswith("repro"))
        print(f"  self time of repro modules (sum of medians): "
              f"{repro / 1e3:.1f} ms")
        print(f"  top {args.top} by median self time (ms):")
        for name in sorted(median, key=median.get, reverse=True)[:args.top]:
            print(f"    {median[name] / 1e3:7.2f}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
