"""The package names the benchmark reaches into must stay.

`perfbench/tracing.py` wraps each `(module, name)` of `LAYER_FUNCTIONS`
by `getattr` on `lindof.<module>`, and the benchmark's Monte Carlo fault
hooks patch `lindof.montecarlo.schedule_network`. The benchmark's own
tests are not in this suite, so a deleted name would otherwise pass here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from lindof import montecarlo, scheduler

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, name", load_tracing().LAYER_FUNCTIONS, ids=lambda x: x)
def test_traced_layer_is_callable(module, name):
    assert callable(getattr(importlib.import_module(f"lindof.{module}"), name))


def test_monte_carlo_fault_hook_is_the_scheduler():
    assert montecarlo.schedule_network is scheduler.schedule_network
