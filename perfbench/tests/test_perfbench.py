"""Self-tests of the benchmark.

    python3 -m pytest perfbench/tests -q

Small copies of the workloads keep these fast; they exercise the same
code paths as the full-size runs.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import lindof.montecarlo
import lindof.oracle
import lindof.scheduler
from lindof.scheduler import Schedule
from perfbench import REFS_PATH, ROOT, run, workloads

REFS = workloads.load_refs(REFS_PATH)


def small(name, tmp_path):
    """The named workload at a size that runs in about a second."""
    if name == "exact_certify":
        wl = workloads.CertifyWorkload(random_per_k=1)
    else:
        full = workloads.WORKLOADS[name]
        wl = workloads.MonteCarloWorkload(
            name, full.tag, full.specs, full.p_step, 10 if name == "mc_family" else 20,
            full.share_realizations,
        )
    wl.setup(REFS, tmp_path)
    return wl


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_are_deterministic_per_seed(name):
    wl = workloads.WORKLOADS[name]
    wl.setup(REFS, ROOT / "perfbench" / "out")
    assert wl.inputs(11, 2) == wl.inputs(11, 2)
    assert wl.inputs(11, 2) != wl.inputs(12, 2)
    assert wl.inputs(11, 2) != wl.inputs(11, 3)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_k5_grid", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_family_matches_the_experiment_script():
    script = ROOT / "scripts" / "reproduce_results.py"
    if not script.is_file():
        pytest.skip("experiment script not present")
    spec = importlib.util.spec_from_file_location("reproduce_results", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.FAMILY == workloads.FAMILY


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_unmodified_program_passes(name, tmp_path):
    tally = workloads.Tally()
    run.run_timed(small(name, tmp_path), 5, 1, tally)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.messages


def _drop_one_delivery(schedule_network):
    def wrong(r, a):
        s = schedule_network(r, a)
        if not s.delivered:
            return s
        gone = min(s.delivered)
        return Schedule(s.k, frozenset(e for e in s.entries if e[0] != gone), s.delivered - {gone})

    return wrong


@pytest.mark.parametrize(
    "name, module, attr, make_wrong",
    [
        ("mc_k5_grid", lindof.montecarlo, "schedule_network", _drop_one_delivery),
        ("mc_family", lindof.montecarlo, "schedule_network", _drop_one_delivery),
        ("exact_certify", lindof.scheduler, "schedule_network", _drop_one_delivery),
        ("exact_certify", lindof.oracle, "optimal_zero_forcing_dof", lambda f: lambda r, a, **kw: f(r, a) - 1),
        ("exact_certify", lindof.oracle, "exact_expected_dof", lambda f: lambda *a, **kw: f(*a, **kw) * 1.01),
    ],
)
def test_wrong_dof_raises_failed_frac(name, module, attr, make_wrong, tmp_path, monkeypatch):
    wl = small(name, tmp_path)
    monkeypatch.setattr(module, attr, make_wrong(getattr(module, attr)))
    tally = workloads.Tally()
    run.run_timed(wl, 5, 1, tally)
    assert tally.failed > 0


@pytest.mark.parametrize("name", ["mc_k5_grid", "exact_certify"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    counts = []
    for attempt in range(2):
        tally = workloads.Tally()
        metrics, _ = run.run_traced(small(name, tmp_path), 9, tally, tmp_path / f"t{attempt}")
        assert tally.failed == 0, tally.messages
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s") and k != "trace.overhead_frac"})
    assert counts[0] == counts[1]
    assert counts[0]["scheduler.schedule_network.calls"] > 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_family", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_point_check_allows_five_sigma():
    """A K=5 point exactly at its reference passes; one 6 combined
    standard errors away fails."""
    wl = workloads.MonteCarloWorkload(
        "k5", 2, (workloads.K5_SPECS[0],), 0.5, 100, False,
    )
    wl.setup(REFS, None)
    ref = REFS["mc"]["K=5,f=3/5"]["0.50"]
    se = ref["sd_dof"] / 5 / 10

    def result(mean):
        row = lindof.montecarlo.SweepRow(0.5, "K=5,f=3/5", 5, Fraction(3, 5), 100, 0, mean, se)
        return workloads.RoundResult(1.0, 1.0, 100, [1.0], {"rows": (row,)})

    for mean, failed in ((ref["mean"], 0), (ref["mean"] + 6 * se, 1)):
        tally = workloads.Tally()
        wl.check_run([result(mean)], tally)
        assert (tally.attempted, tally.failed) == (1, failed)
