"""End-to-end and per-layer benchmark for the lindof package.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the root of a checkout; see ``perfbench/README.md``.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFS_PATH = BENCH_DIR / "refs" / "references.json"
