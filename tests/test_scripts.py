import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_exact_vs_monte_carlo_rejects_fraction_with_reason():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "exact_vs_monte_carlo.py"), "--f", "5/3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "argument --f: fraction 5/3 lies outside [0, 1]" in proc.stderr
    assert proc.stdout == ""
