#!/usr/bin/env python3
"""Which functions in ``src/repro`` does no shipped run reach?

Runs every shipped entry point under a call-only tracer and lists the
functions of ``src/repro`` that none of them calls:

* the figure suite (``pytest benchmarks --benchmark-disable``);
* every script in ``examples/``;
* every document in ``scenarios/`` and ``perfbench/scenarios/``,
  through ``repro scenario run``;
* the operator soak (``repro ops run diurnal_soak --duration 600``);
* the experiment smoke run on two workers (``repro exp run smoke``);
* the read-only CLI commands.

The runs happen in a temporary copy of the checkout, because the
figure suite rewrites ``benchmarks/results``.  Tests are not an entry
point: a function that only ``tests/`` reach is what this tool is for.

The tracer is a generated ``sitecustomize.py`` put first on
``PYTHONPATH``, so every Python process a run starts (pool workers and
subprocesses included) installs it.  It records each code object on
its ``call`` event and turns off line tracing, and at process exit it
writes the ``(file, co_firstlineno)`` pairs under ``src/repro`` that
ran.  Functions are listed from the AST: methods and nested classes
count, a nested function counts once as part of the function around
it, and a decorated function is keyed by the line of its first
decorator, which is what ``co_firstlineno`` holds.

Standard library only.  It takes no options::

    python tools/reachability.py

The report goes to stdout: the unreached functions by module with
their line counts, the total, and for each entry point the functions
that no other entry point reaches.  Progress goes to stderr.  The
whole run takes 16 to 18 minutes on 2 CPUs; the traced figure suite is
about 8 of them.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: the tracer each traced process imports at startup; ``{out}`` and
#: ``{src}`` are filled in per run
SITECUSTOMIZE = '''\
import atexit
import os
import sys
import tempfile
import threading
from multiprocessing import util

_OUT = {out!r}
_SRC = {src!r}
_codes = set()
_add = _codes.add


def _trace(frame, event, arg):
    _add(frame.f_code)      # returning None leaves line tracing off


def _dump():
    pairs = sorted({{(code.co_filename, code.co_firstlineno)
                    for code in list(_codes)
                    if code.co_filename.startswith(_SRC)
                    and not code.co_name.startswith("<")}})
    fd, path = tempfile.mkstemp(dir=_OUT, suffix=".reached")
    with os.fdopen(fd, "w") as fh:
        fh.writelines(f"{{name}}\\t{{line}}\\n" for name, line in pairs)


class _Forked:
    """Weak-referenceable key for the after-fork registry."""


def _after_fork(_):
    # A forked multiprocessing child clears the finalizer registry and
    # leaves through os._exit, so atexit never runs there; a finalizer
    # registered after the fork runs when the child's work returns.
    util.Finalize(None, _dump, exitpriority=0)


_forked = _Forked()
util.register_after_fork(_forked, _after_fork)
atexit.register(_dump)
threading.settrace(_trace)
sys.settrace(_trace)
'''


class Function(NamedTuple):
    """One function of the package, as the AST shows it."""

    module: str         # path under ``src``, e.g. ``repro/sim/link.py``
    qualname: str       # ``Class.method`` / ``function``
    first: int          # first decorator line, else the ``def`` line
    last: int

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def list_functions(src: Path) -> list[Function]:
    """Every top-level function and method under ``src/repro``."""
    functions = []
    for path in sorted((src / "repro").rglob("*.py")):
        module = path.relative_to(src).as_posix()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    functions.append(Function(module, prefix + child.name,
                                              first, child.end_lineno))
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return functions


def trace(argv: list[str], cwd: Path, src: Path,
          out: Path) -> set[tuple[str, int]]:
    """Run ``argv`` under the tracer; return the ``(module, first
    line)`` pairs it reached under ``src/repro``.

    ``out`` is an empty scratch directory for the tracer and the
    per-process files; the command's own output is discarded.
    """
    site = out / "site"
    site.mkdir(parents=True)
    (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(
        out=str(out), src=str(src / "repro")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(site), str(src)]))
    completed = subprocess.run(argv, cwd=cwd, env=env,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True)
    if completed.returncode:
        tail = completed.stderr.strip().splitlines()[-1:]
        print(f"  exit {completed.returncode}", *tail, file=sys.stderr)
    reached = set()
    for path in out.glob("*.reached"):
        for row in path.read_text().splitlines():
            name, line = row.split("\t")
            reached.add((Path(name).relative_to(src).as_posix(), int(line)))
    return reached


def entry_points(checkout: Path) -> list[tuple[str, list[list[str]]]]:
    """``(name, commands)`` for every shipped entry point."""
    py = sys.executable
    repro = [py, "-m", "repro"]
    points = [("figures", [[py, "-m", "pytest", "benchmarks",
                            "--benchmark-disable", "-q",
                            "-p", "no:cacheprovider"]])]
    for script in sorted((checkout / "examples").glob("*.py")):
        points.append((f"example:{script.stem}",
                       [[py, f"examples/{script.name}"]]))
    for folder, label in (("scenarios", "scenario"),
                          ("perfbench/scenarios", "perfbench")):
        for doc in sorted((checkout / folder).glob("*.json")):
            points.append((f"{label}:{doc.stem}",
                           [repro + ["scenario", "run",
                                     f"{folder}/{doc.name}"]]))
    points.append(("ops:diurnal_soak",
                   [repro + ["ops", "run", "diurnal_soak",
                             "--duration", "600"]]))
    points.append(("exp:smoke",
                   [repro + ["exp", "run", "smoke", "--workers", "2"]]))
    points.append(("cli", [repro + args for args in (
        ["info"], ["experiments"], ["overhead"],
        ["exp", "list"], ["exp", "show", "smoke"],
        ["scenario", "list"], ["scenario", "show", "quick_test"],
        ["scenario", "validate"])]))
    return points


def report(functions: list[Function],
           reached_by: dict[str, set[tuple[str, int]]]) -> None:
    """Print the unreached functions, the total, and what each entry
    point alone reaches."""
    everything = set().union(*reached_by.values())
    unreached = [f for f in functions
                 if (f.module, f.first) not in everything]
    total_lines = sum(f.lines for f in functions)

    print("Unreached functions, by module (lines, name, first line):")
    by_module: dict[str, list[Function]] = defaultdict(list)
    for f in unreached:
        by_module[f.module].append(f)
    for module, group in by_module.items():
        print(f"\n{module}  ({sum(f.lines for f in group)} lines)")
        for f in group:
            print(f"  {f.lines:5d}  {f.qualname}  (line {f.first})")

    print(f"\nTotal: {len(unreached)} of {len(functions)} functions, "
          f"{sum(f.lines for f in unreached)} of {total_lines} lines "
          "unreached.")

    print("\nReached by one entry point only:")
    for name, reached in reached_by.items():
        others = set().union(*(r for n, r in reached_by.items()
                               if n != name))
        alone = [f for f in functions
                 if (f.module, f.first) in reached - others]
        print(f"\n{name}: {len(alone)} functions, "
              f"{sum(f.lines for f in alone)} lines")
        for f in alone:
            print(f"  {f.lines:5d}  {f.module}  {f.qualname}")


def main() -> int:
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        checkout = Path(tmp) / "checkout"
        shutil.copytree(ROOT, checkout, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".benchmarks",
            ".hypothesis"))
        src = checkout / "src"
        reached_by: dict[str, set[tuple[str, int]]] = {}
        for n, (name, commands) in enumerate(entry_points(checkout)):
            t0 = time.monotonic()
            print(f"[{n + 1}] {name}", file=sys.stderr, flush=True)
            reached_by[name] = set()
            for k, argv in enumerate(commands):
                reached_by[name] |= trace(argv, checkout, src,
                                          Path(tmp) / "out" / f"{n}.{k}")
            print(f"  {time.monotonic() - t0:.1f} s, "
                  f"{len(reached_by[name])} code objects", file=sys.stderr)
        report(list_functions(src), reached_by)
    print(f"\nwall time {time.monotonic() - started:.0f} s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
