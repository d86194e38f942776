import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_exact_vs_monte_carlo_rejects_fraction_with_reason():
    proc = run_script("exact_vs_monte_carlo.py", "--f", "5/3")
    assert proc.returncode == 2
    assert "argument --f: fraction 5/3 lies outside [0, 1]" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args, reason",
    [
        (("--k", "2"), "argument --k: must be at least 3, got 2"),
        (("--trials", "0"), "argument --trials: must be at least 1, got 0"),
    ],
)
def test_exact_vs_monte_carlo_rejects_bounds_with_reason(args, reason):
    proc = run_script("exact_vs_monte_carlo.py", *args)
    assert proc.returncode == 2
    assert reason in proc.stderr
    assert proc.stdout == ""


def test_exact_vs_monte_carlo_beyond_enumeration():
    # 2^39 erasure patterns: the exact side never lists them
    proc = run_script("exact_vs_monte_carlo.py", "--k", "20", "--trials", "200")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("largest deviation: ")
