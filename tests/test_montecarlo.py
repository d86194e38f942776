import concurrent.futures
import math
import pickle
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from lindof import montecarlo
from lindof.assignment import MessageAssignment, build_assignment, remove_transmitter
from lindof.cli import write_manifest
from lindof.montecarlo import (
    MAX_DRAW_BYTES,
    AssignmentSpec,
    SweepConfig,
    best_assignment_table,
    estimate_pudof,
    held_bytes_per_trial,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from lindof.network import MAX_K, derive_seed, sample_realization, sample_trials
from lindof.oracle import exact_expected_dof
from lindof.scheduler import decision_pass


@pytest.fixture
def no_pool(monkeypatch):
    def no_pool(max_workers):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)


@pytest.fixture
def serial_pool(monkeypatch):
    """Stand-in for ProcessPoolExecutor that starts no process. As with
    the real one, `map` queues every chunk at once, a cancelling
    shutdown drops the queued ones, and leaving the `with` block runs
    whatever is still queued. The log holds each pool's size, each map's
    chunk count and every job started, in order."""
    log = SimpleNamespace(sizes=[], chunks=[], started=[])

    class SerialPool:
        def __init__(self, max_workers):
            log.sizes.append(max_workers)
            self.queued = []

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.shutdown()

        def map(self, fn, items, chunksize=1):
            items = list(items)
            self.queued = [(fn, items[i : i + chunksize]) for i in range(0, len(items), chunksize)]
            log.chunks.append(len(self.queued))

            def results():
                while self.queued:
                    yield from self._run_next()

            return results()

        def _run_next(self):
            fn, chunk = self.queued.pop(0)
            log.started.extend(chunk)
            return [fn(item) for item in chunk]

        def shutdown(self, wait=True, *, cancel_futures=False):
            if cancel_futures:
                self.queued.clear()
            while self.queued:
                self._run_next()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return log


class TestEstimate:
    def test_p0_endpoint_exact(self):
        a = build_assignment(5, Fraction(3, 5))
        mean, stderr = estimate_pudof(5, 0.0, a, 7, 123)
        assert mean == 0.8 and stderr == 0.0

    def test_p1_zero(self):
        a = build_assignment(5, Fraction(3, 5))
        mean, stderr = estimate_pudof(5, 1.0, a, 5, 123)
        assert mean == 0.0 and stderr == 0.0

    def test_consistent_with_exact_enumeration(self):
        a = build_assignment(5, Fraction(3, 5))
        for p in (0.2, 0.6):
            mean, stderr = estimate_pudof(5, p, a, 6000, 10)
            exact = exact_expected_dof(5, p, a, deactivate_last=True) / 5
            assert abs(mean - exact) <= 4 * stderr

    def test_matches_exact_dp_at_k100(self):
        a = build_assignment(100, Fraction(1, 2))
        mean, stderr = estimate_pudof(100, 0.4, a, 4000, 100)
        exact = exact_expected_dof(100, 0.4, a, deactivate_last=True) / 100
        assert stderr > 0
        assert abs(mean - exact) <= 5 * stderr

    @pytest.mark.parametrize(
        "k, f", [(100, Fraction(1, 2)), (5, Fraction(3, 5))], ids=["k100", "k5"]
    )
    def test_equals_decision_pass_reference(self, k, f):
        # Trials count schedule_network's delivered sets; the mean and
        # stderr are exactly those of the bare pass's delivered users on
        # the same draws, counted without building a Schedule.
        p, trials, seed = 0.35, 200, 31
        a = build_assignment(k, f)
        silenced = remove_transmitter(a, k)
        draws = [sample_realization(k, p, derive_seed(seed, t)) for t in range(trials)]
        counts = [len(decision_pass(r.direct, (False, *r.cross), silenced.shape)[0]) for r in draws]
        total, total_sq = sum(counts), sum(d * d for d in counts)
        variance = (total_sq - total * total / trials) / (trials - 1)
        expected = (total / (trials * k), math.sqrt(max(0.0, variance) / trials) / k)
        assert estimate_pudof(k, p, a, trials, seed, deactivate_last=True) == expected

    def test_zero_trials_rejected(self):
        a = build_assignment(5, 0)
        with pytest.raises(ValueError):
            estimate_pudof(5, 0.5, a, 0, 1)

    def test_assignment_of_another_size_rejected(self):
        with pytest.raises(ValueError, match="^assignment has k=4, expected 5$"):
            estimate_pudof(5, 0.5, build_assignment(4, 0), 10, 1)

    def test_draw_of_another_size_rejected(self):
        # a draw is only read: a tuple counts as drawing the same trials does
        a = build_assignment(5, 0)
        draw = tuple(sample_realization(5, 0.5, derive_seed(1, t)) for t in range(10))
        assert estimate_pudof(5, 0.5, a, 10, 1, draw=draw) == estimate_pudof(5, 0.5, a, 10, 1)
        with pytest.raises(ValueError, match="draw holds 9 trials, expected 10"):
            estimate_pudof(5, 0.5, a, 10, 1, draw=draw[:9])

    @pytest.mark.parametrize("k", [3, 5, 100])
    def test_draw_charge_covers_held_bytes(self, monkeypatch, k):
        # MAX_DRAW_BYTES bounds what the draw a shared sweep holds really
        # takes, measured as the sweep hands it to its first member
        handed = []

        def held(*args, draw, **kwargs):
            handed.append((tracemalloc.get_traced_memory()[0], draw))
            return 0.0, 0.0

        monkeypatch.setattr(montecarlo, "estimate_pudof", held)
        cfg = SweepConfig(assignments=(AssignmentSpec(k, Fraction(0)),), trials=500, share_realizations=True)
        specs = [(spec, spec.build()) for spec in cfg.assignments]
        warm = SweepConfig(assignments=cfg.assignments, trials=10, share_realizations=True)
        next(montecarlo._point_rows(warm, specs, (0, 0.5)))  # any first-call allocation
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            next(montecarlo._point_rows(cfg, specs, (0, 0.5)))
        finally:
            tracemalloc.stop()
        after, draw = handed[-1]
        assert len(draw) == cfg.trials
        assert 0 < after - before <= cfg.trials * held_bytes_per_trial(k)

    @pytest.mark.usefixtures("no_pool")
    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        a = build_assignment(5, 0)
        with pytest.raises(ValueError, match=f"need at least one worker, got {workers}"):
            estimate_pudof(5, 0.5, a, 10, 1, workers=workers)

    @pytest.mark.usefixtures("no_pool")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_negative_master_seed_rejected_before_pool(self, workers):
        a = build_assignment(5, 0)
        with pytest.raises(ValueError, match="master seed must be at least 0, got -1"):
            estimate_pudof(5, 0.5, a, 10, -1, workers=workers)

    @pytest.mark.usefixtures("no_pool")
    @pytest.mark.parametrize("p", [1.5, -0.1, math.nan])
    def test_bad_p_rejected_before_pool(self, p):
        a = build_assignment(5, 0)
        match = re.escape(f"erasure probability must lie in [0, 1], got {p}")
        with pytest.raises(ValueError, match=match):
            estimate_pudof(5, p, a, 10, 1, workers=2)

    @pytest.mark.usefixtures("no_pool")
    def test_too_many_users_rejected_before_pool(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        k = MAX_K + 1
        a = MessageAssignment(k, tuple(frozenset({i}) for i in range(1, k + 1)))
        with pytest.raises(ValueError, match=f"need 1 to {MAX_K} users, got k={k}"):
            estimate_pudof(k, 0.5, a, 10, 1, workers=2)

    def test_deterministic_and_worker_invariant(self):
        a = build_assignment(8, 0)
        one = estimate_pudof(8, 0.4, a, 400, 9, workers=1)
        again = estimate_pudof(8, 0.4, a, 400, 9, workers=1)
        two = estimate_pudof(8, 0.4, a, 400, 9, workers=2)
        assert one == again == two

    def test_pool_never_exceeds_cpu_count(self, monkeypatch, serial_pool):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        a = build_assignment(8, 0)
        clamped = estimate_pudof(8, 0.4, a, 50, 9, workers=100_000)
        assert serial_pool.sizes == [3]
        blocks = list(serial_pool.started)
        assert clamped == estimate_pudof(8, 0.4, a, 50, 9, workers=1)
        # blocks are sized for the 3 workers that run, not the 100,000 asked for
        assert estimate_pudof(8, 0.4, a, 50, 9, workers=3) == clamped
        assert serial_pool.sizes == [3, 3]
        assert len(blocks) == 10 and serial_pool.started == blocks + blocks

    def test_pool_capped_at_blocks(self, monkeypatch, serial_pool):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        a = build_assignment(8, 0)
        assert estimate_pudof(8, 0.4, a, 2, 9, workers=3) == estimate_pudof(8, 0.4, a, 2, 9)
        assert serial_pool.sizes == [2] and serial_pool.started == [range(0, 1), range(1, 2)]
        # a single block runs here
        estimate_pudof(8, 0.4, a, 1, 9, workers=3)
        assert serial_pool.sizes == [2]

    def test_failing_block_cancels_blocks_not_started(self, monkeypatch, serial_pool):
        def failing(k, p, master_seed, trials):
            raise RuntimeError("draw failed")

        monkeypatch.setattr(montecarlo, "sample_trials", failing)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        a = build_assignment(5, 0)
        with pytest.raises(RuntimeError, match="draw failed"):
            estimate_pudof(5, 0.5, a, 40, 1, workers=2)
        assert serial_pool.sizes == [2] and serial_pool.started == [range(0, 5)]

    def test_estimator_unbiased_across_reruns(self):
        # deterministic given the seeds; 4-sigma misses are ~1e-4 likely
        a = build_assignment(4, 0)
        exact = exact_expected_dof(4, 0.3, a, deactivate_last=True) / 4
        hits = 0
        runs = 50
        for seed in range(runs):
            mean, stderr = estimate_pudof(4, 0.3, a, 400, seed)
            if abs(mean - exact) <= 4 * stderr:
                hits += 1
        assert hits >= int(0.99 * runs)

    def test_deactivation_removes_last_self_delivery(self):
        # self-only sets on a full network deliver messages 1 and 3; with
        # the last transmitter silenced only message 1 survives
        a = MessageAssignment(3, (frozenset({1}), frozenset({2}), frozenset({3})))
        mean_on, _ = estimate_pudof(3, 0.0, a, 4, 0, deactivate_last=False)
        assert mean_on == pytest.approx(2 / 3)
        mean_off, _ = estimate_pudof(3, 0.0, a, 4, 0, deactivate_last=True)
        assert mean_off == pytest.approx(1 / 3)


class TestSweep:
    def _cfg(self, **kw):
        base = dict(
            assignments=(AssignmentSpec(5, Fraction(3, 5)),),
            p_start=0.0,
            p_end=1.0,
            p_step=1.0,
            trials=4,
            master_seed=3,
        )
        base.update(kw)
        return SweepConfig(**base)

    def test_endpoint_rows(self):
        rows = sweep(self._cfg())
        assert [r.p for r in rows] == [0.0, 1.0]
        assert rows[0].mean == 0.8 and rows[0].stderr == 0.0
        assert rows[1].mean == 0.0

    def test_grid_construction(self):
        cfg = self._cfg(p_start=0.0, p_end=1.0, p_step=0.01, trials=1)
        grid = cfg.p_grid()
        assert len(grid) == 101
        assert grid[0] == 0.0 and grid[-1] == 1.0 and grid[5] == 0.05
        finest = self._cfg(p_start=0.0, p_end=1e-9, p_step=1e-10).p_grid()
        assert len(set(finest)) == len(finest) == 11

    def test_csv_round_trip_identical(self, tmp_path):
        ordinary = dict(
            assignments=(AssignmentSpec(5, Fraction(3, 5)), AssignmentSpec(5, Fraction(0))),
            p_step=0.1,
            trials=50,
            master_seed=4,
        )
        for kw in ({}, ordinary):
            rows = sweep(self._cfg(**kw))
            path = tmp_path / "out.csv"
            write_sweep_csv(rows, path)
            first = path.read_bytes()
            assert read_sweep_csv(path) == rows
            assert best_assignment_table(read_sweep_csv(path)) == best_assignment_table(rows)
            write_sweep_csv(sweep(self._cfg(**kw)), path)
            assert path.read_bytes() == first

    def test_failed_write_keeps_previous_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("write interrupted")

        def rows_then_failure():
            yield from sweep(self._cfg())
            raise RuntimeError("write interrupted")

        path = tmp_path / "out.csv"
        write_sweep_csv(sweep(self._cfg(trials=2)), path)
        write_manifest(str(path) + ".manifest", {"seed": 1})
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(RuntimeError):
            write_sweep_csv(rows_then_failure(), path)
        with pytest.raises(RuntimeError):
            write_manifest(str(path) + ".manifest", {"seed": 2, "bad": Unprintable()})
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    # two K=8 members share one draw; K=5 and K=7 draw their own
    MIXED_SIZES = (
        AssignmentSpec(8, Fraction(1, 2)),
        AssignmentSpec(5, Fraction(3, 5)),
        AssignmentSpec(8, Fraction(0)),
        AssignmentSpec(7, Fraction(1, 3)),
    )

    def test_shared_realizations_share_seeds(self):
        for workers in (1, 2):
            cfg = self._cfg(
                assignments=self.MIXED_SIZES,
                p_step=0.5,
                trials=60,
                share_realizations=True,
                workers=workers,
            )
            rows = sweep(cfg)
            by_p = {}
            for row in rows:
                by_p.setdefault(row.p, set()).add(row.seed)
            assert all(len(seeds) == 1 for seeds in by_p.values())
            # counting a shared draw gives what drawing the same seeds gives
            for row in rows:
                a = build_assignment(row.k, row.f)
                expected = estimate_pudof(row.k, row.p, a, cfg.trials, row.seed)
                assert (row.mean, row.stderr) == expected

    @pytest.mark.parametrize("share, draws_per_point", [(True, 3), (False, 4)])
    def test_one_draw_per_point_and_size(self, monkeypatch, share, draws_per_point):
        calls = []

        def counted(*args):
            for r in sample_trials(*args):  # one entry a trial drawn
                calls.append(args)
                yield r

        monkeypatch.setattr(montecarlo, "sample_trials", counted)
        cfg = self._cfg(
            assignments=self.MIXED_SIZES, p_step=0.5, trials=20, share_realizations=share
        )
        sweep(cfg)
        assert len(calls) == cfg.p_count() * cfg.trials * draws_per_point

    @pytest.mark.parametrize("share, seeds_per_point", [(True, 1), (False, 4)])
    def test_one_seed_per_point_when_shared(self, monkeypatch, share, seeds_per_point):
        # a shared point derives its one seed once, not once per member,
        # and no trial seed is derived here
        calls = []

        def counted(*args):
            calls.append(args)
            return derive_seed(*args)

        monkeypatch.setattr(montecarlo, "derive_seed", counted)
        cfg = self._cfg(assignments=self.MIXED_SIZES, p_step=0.5, trials=5, share_realizations=share)
        sweep(cfg)
        assert len(calls) == cfg.p_count() * seeds_per_point

    def test_one_pool_per_sweep(self, monkeypatch, serial_pool):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        for share in (False, True):
            kw = dict(assignments=self.MIXED_SIZES, p_step=0.25, trials=6, share_realizations=share)
            assert sweep(self._cfg(workers=100, **kw)) == sweep(self._cfg(workers=1, **kw))
        assert serial_pool.sizes == [3, 3]
        # no more workers than points
        sweep(self._cfg(p_step=1.0, workers=100))
        assert serial_pool.sizes == [3, 3, 2]
        # a long grid is queued in at most 64 chunks a worker
        sweep(self._cfg(p_step=0.001, trials=1, workers=2))
        assert serial_pool.sizes[-1] == 2 and serial_pool.chunks[-1] <= 2 * 64

    @pytest.mark.usefixtures("no_pool")
    def test_no_pool_for_one_worker_or_one_point(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        assert len(sweep(self._cfg(p_step=0.5, workers=1))) == 3
        assert len(sweep(self._cfg(p_start=0.3, p_end=0.3, workers=3))) == 1

    def test_failing_progress_cancels_points_not_started(self, monkeypatch, serial_pool):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)

        def progress(row):
            raise RuntimeError("progress failed")

        with pytest.raises(RuntimeError, match="progress failed"):
            sweep(self._cfg(p_step=0.2, workers=2), progress=progress)
        assert serial_pool.sizes == [2] and serial_pool.started == [(0, 0.0)]

    def test_serial_progress_sees_each_row_when_done(self, monkeypatch):
        # Two members of one size count one shared draw; each row is
        # reported once its own trials are scheduled, not its point's.
        scheduled = []
        schedule_network = montecarlo.schedule_network

        def counted(*args):
            scheduled.append(args)
            return schedule_network(*args)

        monkeypatch.setattr(montecarlo, "schedule_network", counted)
        cfg = self._cfg(
            assignments=self.MIXED_SIZES[::2], p_step=0.5, trials=7, share_realizations=True
        )
        seen = []
        rows = sweep(cfg, progress=lambda row: seen.append(len(scheduled)))
        assert len(rows) == 6
        assert seen == [(j + 1) * cfg.trials for j in range(len(rows))]

    def test_rows_share_their_label_and_pickle_equal(self):
        # a row holds its spec's one label string, and rows and winner
        # rows, which have slots, come back equal from a pool's pickling
        cfg = self._cfg(assignments=self.MIXED_SIZES, p_step=0.5, trials=3)
        rows = sweep(cfg)
        labels = {spec.label: spec.label for spec in cfg.assignments}
        assert all(row.label is labels[row.label] for row in rows)
        table = best_assignment_table(rows)
        assert pickle.loads(pickle.dumps(rows)) == rows
        assert pickle.loads(pickle.dumps(table)) == table

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            self._cfg(p_start=0.5, p_end=0.2)
        with pytest.raises(ValueError):
            self._cfg(p_step=0.0)
        with pytest.raises(ValueError):
            self._cfg(trials=0)
        with pytest.raises(ValueError):
            self._cfg(assignments=())
        for p_step in (math.inf, math.nan, 1e-11):
            with pytest.raises(ValueError, match="p step"):
                self._cfg(p_step=p_step)
        with pytest.raises(ValueError, match="master seed must be at least 0, got -1"):
            self._cfg(master_seed=-1)
        # rejected from the count alone, before any of its points is built
        with pytest.raises(ValueError, match="p grid has 10000000001 points"):
            self._cfg(p_step=1e-10)
        assert self._cfg(p_step=1e-6).p_count() == 1_000_001
        # any member's size, checked before a single transmit set is built
        self._cfg(assignments=(AssignmentSpec(MAX_K, Fraction(0)),))
        with pytest.raises(ValueError, match=f"k must be at most {MAX_K}, got {MAX_K + 1}"):
            self._cfg(assignments=(AssignmentSpec(5, Fraction(0)), AssignmentSpec(MAX_K + 1, Fraction(0))))
        # a repeated member would write rows that `read_sweep_csv` rejects
        with pytest.raises(ValueError, match="assignment K=5,f=0/1 is listed more than once"):
            self._cfg(assignments=(AssignmentSpec(5, Fraction(0)), AssignmentSpec(5, Fraction(0, 3))))
        self._cfg(assignments=(AssignmentSpec(5, Fraction(0)), AssignmentSpec(6, Fraction(0))))

    def test_shared_draw_bounded(self):
        # Only a shared sweep holds its draw: 328 + 344 bytes a trial
        # here, the two K=5 members counting one draw between them.
        specs = (
            AssignmentSpec(5, Fraction(3, 5)), AssignmentSpec(5, Fraction(0)),
            AssignmentSpec(6, Fraction(0)),
        )
        assert held_bytes_per_trial(5) + held_bytes_per_trial(6) == 672
        most = MAX_DRAW_BYTES // 672
        self._cfg(assignments=specs, trials=most, share_realizations=True)
        self._cfg(assignments=specs, trials=10**12)
        with pytest.raises(ValueError, match=f"need {672 * (most + 1)} bytes a point"):
            self._cfg(assignments=specs, trials=most + 1, share_realizations=True)
        with pytest.raises(ValueError, match="need 672000000000000 bytes a point"):
            self._cfg(assignments=specs, trials=10**12, share_realizations=True)


class TestBestAssignmentTable:
    def test_single_assignment_wins_everywhere(self):
        rows = sweep(
            SweepConfig(
                assignments=(AssignmentSpec(5, Fraction(3, 5)),),
                p_step=0.5,
                trials=3,
                master_seed=1,
            )
        )
        table = best_assignment_table(rows)
        assert [t.p for t in table] == [0.0, 0.5, 1.0]
        assert all(t.best == "K=5,f=3/5" for t in table)

    def test_winner_and_ties(self):
        from lindof.montecarlo import SweepRow

        rows = (
            SweepRow(0.1, "a", 5, Fraction(0), 10, 1, 0.80, 0.01),
            SweepRow(0.1, "b", 5, Fraction(1, 2), 10, 1, 0.79, 0.01),
            SweepRow(0.1, "c", 5, Fraction(1, 5), 10, 1, 0.40, 0.01),
        )
        table = best_assignment_table(rows)
        assert table[0].best == "a"
        assert table[0].ties == ("b",)

    def test_empty_and_mismatched_grids_rejected(self):
        from lindof.montecarlo import SweepRow

        with pytest.raises(ValueError):
            best_assignment_table(())
        rows = (
            SweepRow(0.1, "a", 5, Fraction(0), 10, 1, 0.8, 0.01),
            SweepRow(0.2, "b", 5, Fraction(1, 2), 10, 1, 0.7, 0.01),
        )
        with pytest.raises(ValueError):
            best_assignment_table(rows)
