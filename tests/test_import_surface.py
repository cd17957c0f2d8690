"""What importing the run path loads.

The benchmark (``perfbench/run.py``) imports the modules below in a
fresh interpreter before any run.  None of them may pull in the preset
catalogue (which compiles every scenario document) or the submodules
no run path uses; those load only when named.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from importtime import benchmark_imports  # noqa: E402

#: perfbench's import list, without numpy
RUN_PATH = tuple(m for m in benchmark_imports() if m.startswith("repro"))

NOT_LOADED = ("repro.exp.presets", "repro.sim.tcp", "repro.sim.monitor",
              "repro.sim.wan", "repro.sim.traffic", "repro.apps.vr",
              "repro.d2d.beacons", "repro.d2d.resources")


def _fresh(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_path_loads_no_catalogue_and_no_unused_submodule():
    code = ("import sys\n" + "".join(f"import {m}\n" for m in RUN_PATH)
            + "print(*sys.modules)")
    loaded = set(_fresh(code).split())
    assert len(RUN_PATH) == 9 and set(RUN_PATH) <= loaded
    assert not loaded & set(NOT_LOADED)


def test_presets_load_on_first_use():
    out = _fresh("import sys\n"
                 "from repro.exp import preset\n"
                 "print(preset('smoke').name,\n"
                 "      'repro.exp.presets' in sys.modules)")
    assert out.split() == ["smoke", "True"]
