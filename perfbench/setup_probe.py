"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload>

Set-up is what a run does before its timed region: importing the package
(and numpy), loading the references and building the workload's fixed
inputs. ``run.py`` starts several of these and reports their median as
``setup_s``, so that work moved into import or set-up shows.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import OUT_DIR, REFS_PATH  # noqa: E402
from perfbench import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(workloads.load_refs(REFS_PATH), OUT_DIR)
print(repr(time.perf_counter() - t0))
