#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ./src.
With ``--trace 0`` the workload repeats rounds for about ``--seconds``
and the last stdout line is a JSON object with the end-to-end metrics.
With ``--trace 1`` one round runs untraced, traced, and untraced again,
and the JSON holds the per-layer metrics of the traced
round. Either way every output is checked; ``correct``, ``attempted``
and ``failed`` report the checks. Full results, with provenance, go to
``perfbench/out/``. See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import BENCH_DIR, OUT_DIR, REFS_PATH, ROOT, SRC_DIR  # noqa: E402

WORKLOAD_NAMES = ("mc_family", "mc_k5_grid", "exact_certify")
SETUP_PROBES = 9
MIN_ROUNDS = 3

# (name, unit) of the end-to-end metrics, printed with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("trials_per_s", "1/s"),
    ("point_ms_p50", "ms"),
    ("point_ms_p90", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (name, unit) of the per-layer metrics of the traced run. ``<layer>.calls``
# and ``<layer>.self_s`` come from the spans; the rest from RATIOS.
PER_LAYER = (
    ("network.derive_seed.calls", "count"),
    ("network.derive_seed.self_s", "s"),
    ("network.sample_realization.calls", "count"),
    ("network.sample_realization.self_s", "s"),
    ("network.partition_into_clusters.calls", "count"),
    ("network.partition_into_clusters.self_s", "s"),
    ("network.clusters_per_realization", "clusters"),
    ("network.mean_cluster_size", "users"),
    ("network.attach_generic_coefficients.self_s", "s"),
    ("assignment.build_assignment.self_s", "s"),
    ("assignment.remove_transmitter.calls", "count"),
    ("assignment.remove_transmitter.self_s", "s"),
    ("scheduler.schedule_network.calls", "count"),
    ("scheduler.schedule_network.self_s", "s"),
    ("scheduler.delivered_per_user", "frac"),
    ("scheduler.build_transmit_signals.self_s", "s"),
    ("scheduler.verify_zero_forcing.self_s", "s"),
    ("scheduler.zf_fail_frac", "frac"),
    ("oracle.exact_expected_dof.calls", "count"),
    ("oracle.exact_expected_dof.self_s", "s"),
    ("oracle.patterns_per_call", "patterns"),
    ("oracle.optimal_zero_forcing_dof.calls", "count"),
    ("oracle.optimal_zero_forcing_dof.self_s", "s"),
    ("oracle.optimality_gap_frac", "frac"),
    ("montecarlo.sweep.self_s", "s"),
    ("montecarlo.estimate_pudof.calls", "count"),
    ("montecarlo.estimate_pudof.self_s", "s"),
    ("montecarlo.trials_per_point", "trials"),
    ("montecarlo.best_assignment_table.self_s", "s"),
    ("montecarlo.write_sweep_csv.self_s", "s"),
    ("montecarlo.write_sweep_csv.bytes", "bytes"),
    ("trace.overhead_frac", "frac"),
)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def _exact_children(table) -> int:
    children = table.get("oracle.exact_expected_dof", {}).get("children", {})
    return children.get("scheduler.schedule_network", 0) + children.get(
        "oracle.optimal_zero_forcing_dof", 0
    )


RATIOS = {
    "network.clusters_per_realization": lambda t, c: _ratio(
        c["network.clusters"], t.get("network.partition_into_clusters", {}).get("calls", 0)
    ),
    "network.mean_cluster_size": lambda t, c: _ratio(c["network.cluster_users"], c["network.clusters"]),
    "scheduler.delivered_per_user": lambda t, c: _ratio(c["scheduler.delivered"], c["scheduler.users"]),
    "scheduler.zf_fail_frac": lambda t, c: _ratio(c["scheduler.zf_failed"], c["scheduler.zf_checks"]),
    "oracle.patterns_per_call": lambda t, c: _ratio(
        _exact_children(t), t.get("oracle.exact_expected_dof", {}).get("calls", 0)
    ),
    "montecarlo.trials_per_point": lambda t, c: _ratio(
        c["montecarlo.trials"], t.get("montecarlo.estimate_pudof", {}).get("calls", 0)
    ),
    "montecarlo.write_sweep_csv.bytes": lambda t, c: c["montecarlo.csv_bytes"],
}


def per_layer_metrics(table: dict, counters: dict, extra: dict) -> dict:
    """Every PER_LAYER value; a layer the workload never calls reads 0."""
    values = {}
    for name, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            values[name] = table.get(layer, {}).get(field, 0)
        elif name in RATIOS:
            values[name] = RATIOS[name](table, counters)
        else:
            values[name] = extra[name]
    return values


def percentile(values, q: int) -> float:
    """q-th percentile by the inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():  # a bare checkout may sit inside another repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC_DIR / "lindof").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "loadavg_start": os.getloadavg(),
    }


def measure_setup(workload: str) -> float:
    """Set-up seconds of one fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_timed(wl, seed: int, seconds: int, tally) -> tuple[dict, dict]:
    """Rounds until the next would end past ``seconds`` (at least
    MIN_ROUNDS); returns the end-to-end metrics and notes.

    Every round is the same sequence of segments: its points, in order,
    then the rest of the round (table, CSV, exact calls). Each segment's
    time is taken as its median over the rounds, and the timings describe
    that typical round. On a shared host this process is now and then
    held off the processor for up to a second or two; such a stall lands
    in one segment of one round, and the median over rounds drops it,
    where a round's total or a pooled percentile would carry it.
    """
    results, setup_samples = [], []
    start = time.perf_counter()
    while True:
        res = wl.run_round(wl.inputs(seed, len(results)))
        wl.check_round(res, tally)
        results.append(res)
        elapsed = time.perf_counter() - start
        # Set-up probes run between rounds, spread over the run, so that
        # they sample the same machine conditions as the rounds do.
        if len(setup_samples) < SETUP_PROBES and elapsed >= len(setup_samples) * seconds / SETUP_PROBES:
            setup_samples.append(measure_setup(wl.name))
            elapsed = time.perf_counter() - start
        if len(results) >= MIN_ROUNDS and elapsed + res.wall_s > seconds:
            break
    while len(setup_samples) < SETUP_PROBES:
        setup_samples.append(measure_setup(wl.name))
    notes = wl.check_run(results, tally)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    segments = zip(*(list(r.point_s) + [r.wall_s - sum(r.point_s)] for r in results), strict=True)
    typical = [statistics.median(times) for times in segments]
    points = typical[:-1]
    wall_s = sum(typical)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall_s,
        "trials_per_s": results[0].realizations / wall_s,
        "point_ms_p50": statistics.median(points) * 1e3,
        "point_ms_p90": percentile(points, 90) * 1e3,
        "cpu_s": statistics.fmean(r.cpu_s for r in results),
        "peak_rss_mb": rss_kb / 1024,
    }
    notes.update(
        rounds=len(results),
        points_per_round=len(points),
        wall_s_per_round=[round(r.wall_s, 4) for r in results],
        setup_samples_s=setup_samples,
    )
    return metrics, notes


def run_traced(wl, seed: int, tally, out_prefix: Path) -> tuple[dict, dict]:
    """One round untraced, traced, untraced; per-layer metrics from the
    traced one and the overhead against the untraced mean."""
    from perfbench.tracing import Tracer

    inputs = wl.inputs(seed, 0)
    before = wl.run_round(inputs)
    tracer = Tracer()
    with tracer, tracer.span("bench.round"):
        traced = wl.run_round(inputs)
    after = wl.run_round(inputs)
    for res in (before, traced, after):
        wl.check_round(res, tally)
    tally.check(
        before.data == traced.data == after.data,
        f"{wl.name}: tracing changed the outputs of the same inputs",
    )
    notes = wl.check_run([traced], tally)
    untraced_s = (before.wall_s + after.wall_s) / 2
    overhead = traced.wall_s / untraced_s - 1
    table = tracer.layer_table()
    extra = {
        "trace.overhead_frac": overhead,
        "oracle.optimality_gap_frac": notes.get("optimality_gap_frac", 0.0),
    }
    metrics = per_layer_metrics(table, tracer.counters, extra)
    tracer.write_spans(out_prefix.with_name(out_prefix.name + "-spans.jsonl.gz"), wl.name)
    summary = {"layers": table, "counters": tracer.counters, "metrics": metrics,
               "traced_wall_s": traced.wall_s, "untraced_wall_s": [before.wall_s, after.wall_s]}
    out_prefix.with_name(out_prefix.name + "-layers.json").write_text(json.dumps(summary, indent=1) + "\n")
    notes.update(traced_wall_s=traced.wall_s, untraced_wall_s=untraced_s, tracing_overhead_frac=overhead,
                 spans=len(tracer.kind))
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC_DIR / "lindof" / "__init__.py").is_file():
        print(f"error: no package source at {SRC_DIR / 'lindof'}; run from a lindof checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC_DIR))

    from perfbench import workloads

    import lindof

    if Path(lindof.__file__).resolve().parent != (SRC_DIR / "lindof").resolve():
        print(f"error: lindof imported from {lindof.__file__}, not from {SRC_DIR}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    wl.setup(workloads.load_refs(REFS_PATH), OUT_DIR)

    prov = provenance(args.workload, args.seed, args.seconds, args.trace)
    tally = workloads.Tally()
    out_prefix = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, notes = run_traced(wl, args.seed, tally, out_prefix)
        units = dict(PER_LAYER)
    else:
        metrics, notes = run_timed(wl, args.seed, args.seconds, tally)
        units = dict(END_TO_END)
    prov["loadavg_end"] = os.getloadavg()
    notes["failed_frac"] = tally.failed / max(1, tally.attempted)

    print(f"provenance: {json.dumps(prov)}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    for name, value in notes.items():
        print(f"  {name:<44} {value}")
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {**result, "provenance": prov, "notes": notes, "failures": tally.messages}
    out_prefix.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
