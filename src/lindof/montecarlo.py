"""Seeded Monte Carlo estimation of the delivered fraction per user.

Each trial draws an erasure pattern from a seed derived from (point seed,
trial index), schedules it, and records the delivered count; the draws
come a slab at a time from `network.sample_trials`. Sums are
kept as exact integers, so results are bit-identical no matter how the
trial range is split across workers, and probability-zero/one endpoints
come out exact.

A sweep computes each grid point whole, every assignment in order, in
this process or in one process pool per sweep; an estimate's trial
blocks run the same way. With shared realizations the sweep draws a
point's trials once per network size, holds them as the list of
realizations drawn, and every assignment of that size counts them; the
list is dropped when the point is done.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .assignment import (
    MessageAssignment,
    assignment_label,
    build_assignment,
    remove_transmitter,
)
from .network import MAX_K, NetworkRealization, _check_k_p, derive_seed, sample_trials
from .scheduler import schedule_network

CSV_HEADER = (
    "p",
    "assignment",
    "k",
    "f_num",
    "f_den",
    "trials",
    "seed",
    "pudof_mean",
    "pudof_stderr",
)


@dataclass(frozen=True)
class AssignmentSpec:
    """(network size, helper fraction) naming one family member."""

    k: int
    f: Fraction

    @functools.cached_property
    def label(self) -> str:
        # one string per spec, shared by every row of the spec
        return assignment_label(self.k, self.f)

    def build(self) -> MessageAssignment:
        return build_assignment(self.k, self.f)


# p_grid rounds its points to P_DECIMALS places, so a smaller p step
# would repeat them, and `.{P_DECIMALS}g` prints each point exactly.
P_DECIMALS = 10
# Largest p grid a sweep accepts: a step of 1e-6 over [0, 1].
MAX_P_POINTS = 1_000_001
# Most bytes the shared draws of one grid point may hold, each trial
# charged `held_bytes_per_trial` of its network size.
MAX_DRAW_BYTES = 256 * 2**20


def held_bytes_per_trial(k: int) -> int:
    """Bytes charged for one held trial of size k: its NetworkRealization,
    the two link tuples (8 bytes a link) and its list slot. tracemalloc
    measured 8 * (2k - 1) + 201 at k = 3, 4, 5 and 100."""
    return 8 * (2 * k - 1) + 256


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: an erasure-probability grid crossed with assignments.

    Each AssignmentSpec carries its own size, so one sweep can mix sizes.
    With `share_realizations` all assignments at a grid point reuse the
    same trial seeds (common random numbers), sharpening comparisons
    between them. The trials are then drawn once per point and network
    size and held, `held_bytes_per_trial(K)` each and MAX_DRAW_BYTES at
    most a point, while every assignment of that size counts them.
    `workers` spreads the grid points over that many processes, capped
    at os.cpu_count() and the number of points.
    """

    assignments: tuple[AssignmentSpec, ...]
    p_start: float = 0.0
    p_end: float = 1.0
    p_step: float = 0.01
    trials: int = 6000
    master_seed: int = 0
    deactivate_last: bool = True
    share_realizations: bool = False
    workers: int = 1

    def __post_init__(self):
        if not 0.0 <= self.p_start <= self.p_end <= 1.0:
            raise ValueError(
                f"p grid must lie in [0, 1] with start <= end, got [{self.p_start}, {self.p_end}]"
            )
        if not (math.isfinite(self.p_step) and self.p_step >= 10.0**-P_DECIMALS):
            raise ValueError(f"p step must be finite and at least 1e-{P_DECIMALS}, got {self.p_step}")
        if self.p_count() > MAX_P_POINTS:
            raise ValueError(
                f"p grid has {self.p_count()} points, more than the {MAX_P_POINTS} a sweep accepts"
            )
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be at least 0, got {self.master_seed}")
        if not self.assignments:
            raise ValueError("at least one assignment is required")
        seen = set()
        for spec in self.assignments:
            if spec in seen:
                raise ValueError(f"assignment {spec.label} is listed more than once")
            seen.add(spec)
        if (k := max(spec.k for spec in self.assignments)) > MAX_K:
            raise ValueError(f"k must be at most {MAX_K}, got {k}")
        held = self.trials * sum(held_bytes_per_trial(k) for k in {spec.k for spec in self.assignments})
        if self.share_realizations and held > MAX_DRAW_BYTES:
            raise ValueError(f"shared draws need {held} bytes a point, over the {MAX_DRAW_BYTES} allowed")
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")

    def p_count(self) -> int:
        """Number of points in `p_grid`, computed without building it."""
        return int(math.floor((self.p_end - self.p_start) / self.p_step + 1e-9)) + 1

    def p_grid(self) -> tuple[float, ...]:
        return tuple(
            round(self.p_start + i * self.p_step, P_DECIMALS) for i in range(self.p_count())
        )


@dataclass(frozen=True, slots=True)
class SweepRow:
    p: float
    label: str
    k: int
    f: Fraction
    trials: int
    seed: int
    mean: float
    stderr: float


def _dof_sums(realizations, assignment: MessageAssignment) -> tuple[int, int]:
    """Sum and sum-of-squares of delivered counts over some realizations."""
    total = 0
    total_sq = 0
    for r in realizations:
        d = len(schedule_network(r, assignment).delivered)
        total += d
        total_sq += d * d
    return total, total_sq


def _block_sums(k, p, assignment, master_seed, trials: range):
    """Delivered-count sums over the given trials."""
    return _dof_sums(sample_trials(k, p, master_seed, trials), assignment)


def _in_order(fn, jobs, size: int, chunksize: int = 1):
    """Yield fn(job) for every job, in order: here when `size` is 1,
    else from one process pool of `size` workers. If the consumer raises
    or stops, the jobs not yet started are cancelled. The pool module
    is imported only here, so a serial run never loads it."""
    if size == 1:
        yield from map(fn, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        try:
            yield from pool.map(fn, jobs, chunksize=chunksize)
        finally:
            # before the pool's own exit, which would wait for every queued job
            pool.shutdown(cancel_futures=True)


def estimate_pudof(
    k: int,
    p: float,
    assignment: MessageAssignment,
    trials: int,
    master_seed: int,
    deactivate_last: bool = True,
    workers: int = 1,
    *,
    draw: Sequence[NetworkRealization] | None = None,
) -> tuple[float, float]:
    """Sample mean and standard error of the delivered fraction.

    Trial t draws its realization from derive_seed(master_seed, t);
    `deactivate_last` silences the last transmitter (dropped from every
    transmit set) so the measured value survives concatenating copies of
    the network. Integer accumulation makes the result independent of
    `workers`. The trials are split into blocks, run here or by one
    process pool of min(workers, os.cpu_count(), blocks); if a block
    raises, the blocks not yet started are cancelled.

    `draw`, which `sweep` passes under shared realizations, holds the
    trials of this (k, p, trials, master_seed) already drawn. They are
    counted here, whatever `workers` says, and only read: the result is
    the one drawing them gives.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    _check_k_p(k, p)  # before a pool is built, not in a worker
    if k != assignment.k:
        raise ValueError(f"assignment has k={assignment.k}, expected {k}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if master_seed < 0:
        raise ValueError(f"master seed must be at least 0, got {master_seed}")
    if draw is not None and len(draw) != trials:
        raise ValueError(f"draw holds {len(draw)} trials, expected {trials}")
    if deactivate_last:
        assignment = remove_transmitter(assignment, k)
    if draw is not None:
        total, total_sq = _dof_sums(draw, assignment)
    else:
        size = min(workers, os.cpu_count() or 1)
        chunk = math.ceil(trials / (size * 4))
        blocks = [range(t0, min(t0 + chunk, trials)) for t0 in range(0, trials, chunk)]
        sums = functools.partial(_block_sums, k, p, assignment, master_seed)
        results = list(_in_order(sums, blocks, min(size, len(blocks))))
        total = sum(s for s, _ in results)
        total_sq = sum(q for _, q in results)
    mean = total / (trials * k)
    if trials > 1:
        dof_var = (total_sq - total * total / trials) / (trials - 1)
        stderr = math.sqrt(max(0.0, dof_var) / trials) / k
    else:
        stderr = 0.0
    return mean, stderr


def _point_rows(cfg: SweepConfig, specs, point):
    """Yield the rows of grid point `point` = (index, p), one assignment
    at a time, in order. Under shared realizations the point's trials
    are drawn the first time a member of a network size needs them, and
    every member of that size counts the same list."""
    pi, p = point
    draws: dict[int, list[NetworkRealization]] = {}
    if cfg.share_realizations:
        seed = derive_seed(cfg.master_seed, pi)  # once a point, for every member
    for ai, (spec, assignment) in enumerate(specs):
        if cfg.share_realizations:
            if spec.k not in draws:
                draws[spec.k] = list(sample_trials(spec.k, p, seed, range(cfg.trials)))
            draw = draws[spec.k]
        else:
            seed = derive_seed(cfg.master_seed, pi, ai)
            draw = None
        mean, stderr = estimate_pudof(
            spec.k,
            p,
            assignment,
            cfg.trials,
            seed,
            deactivate_last=cfg.deactivate_last,
            draw=draw,
        )
        yield SweepRow(p, spec.label, spec.k, spec.f, cfg.trials, seed, mean, stderr)


def _point_list(cfg: SweepConfig, specs, point) -> list[SweepRow]:
    return list(_point_rows(cfg, specs, point))


def sweep(
    cfg: SweepConfig,
    progress: Callable[[SweepRow], None] | None = None,
) -> tuple[SweepRow, ...]:
    """Estimate every grid point for every assignment, reproducibly.

    Point seeds derive from (master seed, grid index, assignment index),
    or from (master seed, grid index) alone under shared realizations,
    where the sweep holds each point's draw of a network size while the
    point runs. Each grid point is computed whole, every assignment in
    order, so a shared draw never leaves the process that drew it. With
    one worker, or one point, the points run here and `progress` sees
    each row as it is done. Otherwise one process pool of min(workers,
    os.cpu_count(), points) runs them, `progress` sees a point's rows
    when it is done, and rows keep grid order; if anything raises, the
    points not yet started are cancelled.
    """
    specs = [(spec, spec.build()) for spec in cfg.assignments]
    grid = cfg.p_grid()
    size = min(cfg.workers, os.cpu_count() or 1, len(grid))
    # A generator of rows here; a picklable list from a worker. At most
    # 64 chunks a worker, so a long grid does not queue a future per
    # point before any point is done.
    point = functools.partial(_point_rows if size == 1 else _point_list, cfg, specs)
    chunk = math.ceil(len(grid) / (64 * size))
    rows = []
    for point_rows in _in_order(point, enumerate(grid), size, chunk):
        for row in point_rows:
            rows.append(row)
            if progress is not None:
                progress(row)
    return tuple(rows)


@contextlib.contextmanager
def open_atomic(path, newline=None):
    """Text handle on a temporary file beside `path` that os.replace
    moves over `path` once the block succeeds; if the block raises, the
    temporary file is removed and `path` keeps its old bytes."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def write_csv(path, header, records) -> None:
    """Write `header` and then each record as one CSV row, atomically.
    `csv.writer` writes a float as its repr, the shortest text that
    reads back to the same float, so every value round-trips exactly."""
    with open_atomic(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(records)


def write_sweep_csv(rows, path) -> None:
    """Write sweep rows under CSV_HEADER; `read_sweep_csv` reads them back equal."""
    records = (
        (r.p, r.label, r.k, r.f.numerator, r.f.denominator, r.trials, r.seed, r.mean, r.stderr)
        for r in rows
    )
    write_csv(path, CSV_HEADER, records)


def _check_row_ranges(row: SweepRow) -> None:
    """Reject a value no sweep writes, naming its CSV field. The
    comparisons are false for nan, so nan fails each of them."""
    if not 0.0 <= row.p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {row.p}")
    if row.trials < 1:
        raise ValueError(f"trials must be at least 1, got {row.trials}")
    if not 0.0 <= row.mean <= 1.0:
        raise ValueError(f"pudof_mean must lie in [0, 1], got {row.mean}")
    if not 0.0 <= row.stderr < math.inf:
        raise ValueError(f"pudof_stderr must be finite and non-negative, got {row.stderr}")
    if row.k < 3:
        raise ValueError(f"k must be at least 3, got {row.k}")
    if not 0 <= row.f <= 1:
        raise ValueError(f"f must lie in [0, 1], got {row.f}")
    if row.seed < 0:
        raise ValueError(f"seed must be at least 0, got {row.seed}")
    if row.label != assignment_label(row.k, row.f):
        raise ValueError(f"assignment must be {assignment_label(row.k, row.f)}, got {row.label}")


def read_sweep_csv(path) -> tuple[SweepRow, ...]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_HEADER):
            raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}, got {header}")
        for lineno, rec in enumerate(reader, start=2):
            if len(rec) != len(CSV_HEADER):
                raise ValueError(
                    f"{path} row {lineno}: expected {len(CSV_HEADER)} fields, got {len(rec)}"
                )
            try:
                row = SweepRow(
                    p=float(rec[0]),
                    label=rec[1],
                    k=int(rec[2]),
                    f=Fraction(int(rec[3]), int(rec[4])),
                    trials=int(rec[5]),
                    seed=int(rec[6]),
                    mean=float(rec[7]),
                    stderr=float(rec[8]),
                )
                _check_row_ranges(row)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path} row {lineno}: {exc}") from None
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return tuple(rows)


@dataclass(frozen=True, slots=True)
class TableRow:
    p: float
    best: str
    mean: float
    stderr: float
    ties: tuple[str, ...]


def best_assignment_table(rows) -> tuple[TableRow, ...]:
    """Winning assignment per erasure probability.

    Assignments must cover a common p grid. Runners-up whose mean lies
    within two combined standard errors of the winner are reported as
    statistical ties.
    """
    rows = tuple(rows)
    if not rows:
        raise ValueError("no sweep rows given")
    by_label: dict[str, dict[float, SweepRow]] = {}
    for row in rows:
        per_p = by_label.setdefault(row.label, {})
        if row.p in per_p:
            raise ValueError(f"duplicate row for p={row.p}, assignment {row.label}")
        per_p[row.p] = row
    grids = {label: frozenset(per_p) for label, per_p in by_label.items()}
    common = next(iter(grids.values()))
    if any(grid != common for grid in grids.values()):
        raise ValueError("assignments cover different p grids")
    table = []
    for p in sorted(common):
        candidates = [by_label[label][p] for label in sorted(by_label)]
        best = max(candidates, key=lambda r: r.mean)
        ties = tuple(
            r.label
            for r in candidates
            if r is not best and best.mean - r.mean <= 2.0 * math.hypot(best.stderr, r.stderr)
        )
        table.append(TableRow(p, best.label, best.mean, best.stderr, ties))
    return tuple(table)
