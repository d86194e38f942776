"""The package names and call shapes the benchmark reaches into must stay.

`perfbench/tracing.py` wraps each `(module, name)` of `LAYER_FUNCTIONS`
by `getattr` on `lindof.<module>`, and reads the trials of each
`montecarlo.estimate_pudof` call from its fourth positional argument.
The benchmark's Monte Carlo fault hooks patch
`lindof.montecarlo.schedule_network`, and its Monte Carlo workloads
build a `SweepConfig` each round. Its certification workload passes
what `network.attach_generic_coefficients` returns straight to
`scheduler.build_transmit_signals` and `verify_zero_forcing`. The
benchmark's own tests are not in this suite, so a deleted name, a moved
argument, a changed certification call or a config the workloads can no
longer build would otherwise pass here, or zero a traced metric without
failing anything; so would a fault hook that no longer reaches the
estimate.
"""

import dataclasses
from fractions import Fraction
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from lindof import montecarlo, scheduler
from lindof.assignment import build_assignment
from lindof.network import sample_trials

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: a dataclass looks its module up while it is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")
MONTE_CARLO = {
    name: w for name, w in workloads.WORKLOADS.items() if isinstance(w, workloads.MonteCarloWorkload)
}


@pytest.mark.parametrize("module, name", tracing.LAYER_FUNCTIONS, ids=lambda x: x)
def test_traced_layer_is_callable(module, name):
    assert callable(getattr(importlib.import_module(f"lindof.{module}"), name))


def test_monte_carlo_fault_hook_is_the_scheduler():
    assert montecarlo.schedule_network is scheduler.schedule_network


def test_monte_carlo_fault_hook_lowers_the_estimate(monkeypatch):
    # the benchmark's fault: drop the first delivered message, rebuilding
    # the Schedule positionally as its tests do; both trial paths must see it
    a = build_assignment(5, Fraction(3, 5))
    draw = list(sample_trials(5, 0.2, 7, range(50)))

    def means():
        blocks = montecarlo.estimate_pudof(5, 0.2, a, 50, 7)
        drawn = montecarlo.estimate_pudof(5, 0.2, a, 50, 7, draw=draw)
        return blocks[0], drawn[0]

    right = means()

    def wrong(r, a):
        s = scheduler.schedule_network(r, a)
        if not s.delivered:
            return s
        gone = min(s.delivered)
        entries = frozenset(e for e in s.entries if e[0] != gone)
        return scheduler.Schedule(s.k, entries, s.delivered - {gone})

    monkeypatch.setattr(montecarlo, "schedule_network", wrong)
    blocks, drawn = means()
    assert blocks < right[0] and drawn < right[1]


@pytest.mark.parametrize("name", sorted(MONTE_CARLO))
def test_monte_carlo_workload_builds_a_sweep_config(name):
    assert isinstance(MONTE_CARLO[name].inputs(0, 0), montecarlo.SweepConfig)


@pytest.mark.parametrize("name", sorted(MONTE_CARLO))
def test_serial_sweep_estimates_each_row_once(monkeypatch, name):
    # the workload's own config (shared or not, one worker), on a short grid
    cfg = dataclasses.replace(MONTE_CARLO[name].inputs(0, 0), p_step=0.5, trials=3)
    assert cfg.workers == 1
    calls = []
    estimate_pudof = montecarlo.estimate_pudof

    def observed(*args, **kwargs):
        calls.append(args)
        return estimate_pudof(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "estimate_pudof", observed)
    rows = montecarlo.sweep(cfg)
    assert len(calls) == len(rows) == cfg.p_count() * len(cfg.assignments)
    assert all(len(args) >= 4 and args[3] == cfg.trials for args in calls)


def test_certify_round_passes_its_checks(tmp_path):
    # the exact_certify call chain once, through the workload's own code
    # and stored references, with one random assignment per K
    certify = workloads.CertifyWorkload(random_per_k=1)
    certify.setup(workloads.load_refs(PERFBENCH / "refs" / "references.json"), tmp_path)
    result = certify.run_round(certify.inputs(0, 0))
    tally = workloads.Tally()
    certify.check_round(result, tally)
    assert result.realizations > 0 and tally.attempted > 0
    assert tally.failed == 0, tally.messages
