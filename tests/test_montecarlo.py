import contextlib
import math
import re
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
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from lindof.network import MAX_K, derive_seed, sample_realization
from lindof.oracle import exact_expected_dof
from lindof.scheduler import decision_pass


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
        # stderr are exactly those of the bare pass's count on the same
        # draws, the path that builds no schedule.
        p, trials, seed = 0.35, 200, 31
        a = build_assignment(k, f)
        silenced = remove_transmitter(a, k)
        draws = [sample_realization(k, p, derive_seed(seed, t)) for t in range(trials)]
        counts = [decision_pass(r.direct, r.cross, silenced.transmit_sets)[0] for r in draws]
        total, total_sq = sum(counts), sum(d * d for d in counts)
        variance = (total_sq - total * total / trials) / (trials - 1)
        expected = (total / (trials * k), math.sqrt(max(0.0, variance) / trials) / k)
        assert estimate_pudof(k, p, a, trials, seed, deactivate_last=True) == expected

    def test_zero_trials_rejected(self):
        a = build_assignment(5, 0)
        with pytest.raises(ValueError):
            estimate_pudof(5, 0.5, a, 0, 1)

    def test_draw_of_another_size_rejected(self):
        a = build_assignment(5, 0)
        with pytest.raises(ValueError, match="draw holds 9 bytes, expected 90"):
            estimate_pudof(5, 0.5, a, 10, 1, draw=bytearray(9))

    @pytest.fixture
    def no_pool(self, monkeypatch):
        def no_pool(max_workers):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)

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

    def test_pool_never_exceeds_cpu_count(self, monkeypatch):
        # the fake pool records its size and the trial range of every job
        # it maps, and maps serially: no process starts
        sizes = []
        ranges = []

        def serial_map(fn, jobs):
            jobs = list(jobs)
            ranges.append([(job[4], job[5]) for job in jobs])
            return map(fn, jobs)

        def serial_pool(max_workers):
            sizes.append(max_workers)
            return contextlib.nullcontext(SimpleNamespace(map=serial_map))

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", serial_pool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        a = build_assignment(8, 0)
        clamped = estimate_pudof(8, 0.4, a, 50, 9, workers=100_000)
        assert sizes == [3]
        assert clamped == estimate_pudof(8, 0.4, a, 50, 9, workers=1)
        # blocks are sized for the 3 workers that run, not the 100,000 asked for
        assert estimate_pudof(8, 0.4, a, 50, 9, workers=3) == clamped
        assert sizes == [3, 3]
        assert len(ranges[0]) == 10 and ranges[0] == ranges[1]

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
            calls.append(args)
            return sample_realization(*args)

        monkeypatch.setattr(montecarlo, "sample_realization", counted)
        cfg = self._cfg(
            assignments=self.MIXED_SIZES, p_step=0.5, trials=20, share_realizations=share
        )
        sweep(cfg)
        assert len(calls) == cfg.p_count() * cfg.trials * draws_per_point

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
        # Only a shared sweep holds its draw: 9 + 11 bytes a trial here,
        # the two K=5 members counting one draw between them.
        specs = (
            AssignmentSpec(5, Fraction(3, 5)), AssignmentSpec(5, Fraction(0)),
            AssignmentSpec(6, Fraction(0)),
        )
        most = MAX_DRAW_BYTES // 20
        self._cfg(assignments=specs, trials=most, share_realizations=True)
        self._cfg(assignments=specs, trials=10**12)
        with pytest.raises(ValueError, match=f"need {20 * (most + 1)} bytes a point"):
            self._cfg(assignments=specs, trials=most + 1, share_realizations=True)
        with pytest.raises(ValueError, match="need 20000000000000 bytes a point"):
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
