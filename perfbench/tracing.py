"""Spans around calls into the package's public functions.

The traced run replaces each layer function, wherever a ``lindof``
module binds it, with a wrapper that records a span: name, start, end
and the span that was open when it was called. Nothing inside the
package changes; ``uninstall`` puts the originals back. A layer's self
time is its spans' duration minus the time their direct children cover
(calls are properly nested on one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import gzip
import os
import sys
import time
from array import array

# (module, function) of every layer boundary the traced run records.
LAYER_FUNCTIONS = (
    ("network", "derive_seed"),
    ("network", "sample_realization"),
    ("network", "partition_into_clusters"),
    ("network", "attach_generic_coefficients"),
    ("assignment", "build_assignment"),
    ("assignment", "remove_transmitter"),
    ("scheduler", "schedule_network"),
    ("scheduler", "build_transmit_signals"),
    ("scheduler", "verify_zero_forcing"),
    ("oracle", "exact_expected_dof"),
    ("oracle", "optimal_zero_forcing_dof"),
    ("montecarlo", "sweep"),
    ("montecarlo", "estimate_pudof"),
    ("montecarlo", "best_assignment_table"),
    ("montecarlo", "write_sweep_csv"),
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters read off a call's arguments and result, outside its span.
def _observe_partition(c, args, kwargs, result):
    c["network.clusters"] += len(result)
    c["network.cluster_users"] += sum(cl.size for cl in result)


def _observe_schedule(c, args, kwargs, result):
    c["scheduler.delivered"] += len(result.delivered)
    c["scheduler.users"] += result.k


def _observe_estimate(c, args, kwargs, result):
    c["montecarlo.trials"] += _arg(args, kwargs, 3, "trials")


def _observe_csv(c, args, kwargs, result):
    c["montecarlo.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _observe_verify(c, args, kwargs, result):
    c["scheduler.zf_checks"] += 1
    c["scheduler.zf_failed"] += not result.passed


COUNTERS = (
    "network.clusters",
    "network.cluster_users",
    "scheduler.delivered",
    "scheduler.users",
    "montecarlo.trials",
    "montecarlo.csv_bytes",
    "scheduler.zf_checks",
    "scheduler.zf_failed",
)

OBSERVERS = {
    "network.partition_into_clusters": _observe_partition,
    "scheduler.schedule_network": _observe_schedule,
    "montecarlo.estimate_pudof": _observe_estimate,
    "montecarlo.write_sweep_csv": _observe_csv,
    "scheduler.verify_zero_forcing": _observe_verify,
}


class Tracer:
    """In-memory span recorder; spans are written out after the run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, such as one round."""
        idx = self._open(self._name_id(name))
        self.start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        counters = self.counters

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function at every lindof module that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "lindof" or n.startswith("lindof.")]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"lindof.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self.wrap(name, original, OBSERVERS.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- summary -------------------------------------------------------

    def layer_table(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, and the
        number of direct child spans by child name."""
        n = len(self.kind)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        table = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "children": {}} for name in self.names}
        for i in range(n):
            entry = table[self.names[self.kind[i]]]
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child_time[i]
            p = self.parent[i]
            if p >= 0:
                children = table[self.names[self.kind[p]]]["children"]
                child = self.names[self.kind[i]]
                children[child] = children.get(child, 0) + 1
        return table

    def write_spans(self, path, workload: str) -> None:
        """One JSON object per line: id, name, start, end, parent, workload."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.kind)):
                fh.write(
                    f'{{"id":{i},"name":"{self.names[self.kind[i]]}","start":{self.start[i]!r},'
                    f'"end":{self.end[i]!r},"parent":{self.parent[i]},"workload":"{workload}"}}\n'
                )
