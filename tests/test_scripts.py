import subprocess
import sys
from pathlib import Path

import pytest

from lindof.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )


def assert_usage_error(proc, reason):
    # one `error:` line, no traceback, nothing on stdout
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: {reason}"]
    assert proc.stdout == ""


def test_exact_vs_monte_carlo_rejects_fraction_with_reason():
    proc = run_script("exact_vs_monte_carlo.py", "--f", "5/3")
    assert_usage_error(proc, "fraction 5/3 lies outside [0, 1]")


@pytest.mark.parametrize(
    "args, reason",
    [
        (("--k", "2"), "--k must be at least 3, got 2"),
        (("--k", "201"), "--k must be at most 200, got 201"),
        (("--trials", "0"), "--trials must be at least 1, got 0"),
        (("--seed", "-1"), "--seed must be at least 0, got -1"),
        (("--trials", "abc"), "argument --trials: invalid int value: 'abc'"),
    ],
    ids=["k-2", "k-201", "trials-0", "seed--1", "trials-abc"],
)
def test_exact_vs_monte_carlo_rejects_bounds_with_reason(args, reason):
    proc = run_script("exact_vs_monte_carlo.py", *args)
    assert_usage_error(proc, reason)


def test_exact_vs_monte_carlo_beyond_enumeration():
    # 2^39 erasure patterns: the exact side never lists them
    proc = run_script("exact_vs_monte_carlo.py", "--k", "20", "--trials", "200")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("largest deviation: ")


FAMILY_LABELS = [
    "K=5,f=3/5", "K=100,f=1/2", "K=100,f=49/100", "K=100,f=12/25", "K=100,f=1/4",
    "K=100,f=1/50", "K=100,f=3/4", "K=100,f=99/100", "K=99,f=0/1",
]


def test_reproduce_results_writes_sweep_manifest_and_table(tmp_path):
    out_dir = tmp_path / "results"
    proc = run_script(
        "reproduce_results.py", "--trials", "2", "--p-step", "0.5", "--workers", "1",
        "--out-dir", str(out_dir),
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "pudof_sweep.csv", "pudof_sweep.csv.manifest", "winners.csv",
    ]
    table = tmp_path / "table.csv"
    assert main(["table", "--in", str(out_dir / "pudof_sweep.csv"), "--out", str(table)]) == 0
    assert (out_dir / "winners.csv").read_bytes() == table.read_bytes()
    lines = (out_dir / "pudof_sweep.csv.manifest").read_text().splitlines()
    manifest = dict(line.split("=", 1) for line in lines)
    assert manifest["assignments"].split() == FAMILY_LABELS
    # the mixed-K family is replayed by this script, not by `lindof sweep`
    assert lines[0] == "command=reproduce_results"
    # a pool of two workers writes the same sweep and table
    pooled = tmp_path / "pooled"
    proc = run_script(
        "reproduce_results.py", "--trials", "2", "--p-step", "0.5", "--workers", "2",
        "--out-dir", str(pooled),
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("pudof_sweep.csv", "winners.csv"):
        assert (pooled / name).read_bytes() == (out_dir / name).read_bytes()
    pooled_lines = (pooled / "pudof_sweep.csv.manifest").read_text().splitlines()
    assert [line for line in pooled_lines if not line.startswith(("workers=", "out="))] == [
        line for line in lines if not line.startswith(("workers=", "out="))
    ]


@pytest.mark.parametrize(
    "flag, value",
    [("--trials", "0"), ("--p-step", "0"), ("--workers", "0"), ("--seed", "-1"),
     ("--trials", "abc")],
)
def test_reproduce_results_rejects_bad_config(tmp_path, flag, value):
    out_dir = tmp_path / "results"
    proc = run_script("reproduce_results.py", flag, value, "--out-dir", str(out_dir))
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out_dir.exists()
