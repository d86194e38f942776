from fractions import Fraction

import pytest

from lindof import __version__
from lindof.cli import (
    EXIT_IO,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    MAX_RANDOM_ASSIGNMENTS,
    MAX_VERIFY_TRIALS,
    main,
)
from lindof.montecarlo import AssignmentSpec, SweepConfig, read_sweep_csv
from lindof.network import MAX_K
from lindof.scheduler import Schedule


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweepCommand:
    def test_single_point_endpoint(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--k", "5", "--f", "3/5", "--p-start", "0", "--p-end", "0",
            "--trials", "1", "--quiet", "--out", str(out),
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "p,assignment,k,f_num,f_den,trials,seed,pudof_mean,pudof_stderr"
        assert len(lines) == 2
        assert lines[1].startswith('0.0,"K=5,f=3/5",5,3,5,1,')
        assert lines[1].endswith(",0.8,0.0")
        manifest = (tmp_path / "sweep.csv.manifest").read_text().splitlines()
        assert "command=sweep" in manifest and "master_seed=0" in manifest

    def test_repeat_invocation_identical_bytes(self, tmp_path, capsys):
        args = [
            "sweep", "--k", "4", "--f", "1/2", "--f", "0", "--p-start", "0",
            "--p-end", "1", "--p-step", "0.5", "--trials", "30", "--seed", "7",
            "--quiet",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(a))[0] == EXIT_OK
        assert run(capsys, *args, "--out", str(b))[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "grid",
        [
            ("--f", "1/3", "--p-start", "0.3", "--p-end", "0.3"),
            ("--f", "1/3", "--f", "0", "--p-step", "0.25", "--share-realizations"),
        ],
        ids=["one-point", "shared-two-members"],
    )
    def test_worker_count_does_not_change_bytes(self, tmp_path, capsys, grid):
        base = ["sweep", "--k", "6", *grid, "--trials", "64", "--seed", "5", "--quiet"]
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert run(capsys, *base, "--workers", "1", "--out", str(a))[0] == EXIT_OK
        assert run(capsys, *base, "--workers", "2", "--out", str(b))[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_fraction_above_one_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "sweep", "--k", "5", "--f", "5/3", "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE
        assert "outside [0, 1]" in err

    def test_decimal_fraction_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "sweep", "--k", "5", "--f", "0.6", "--out", str(tmp_path / "x.csv"),
        )
        assert code == EXIT_USAGE

    def test_network_size_above_bound_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, stdout, err = run(
            capsys, "sweep", "--k", str(MAX_K + 1), "--f", "0", "--out", str(out),
        )
        assert code == EXIT_USAGE
        assert err == f"error: k must be at most {MAX_K}, got {MAX_K + 1}\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_repeated_assignment_writes_nothing(self, tmp_path, capsys):
        # f=0/3 names the same member as f=0, so the CSV would repeat its
        # rows and `table` would reject it.
        out = tmp_path / "d.csv"
        code, stdout, err = run(
            capsys, "sweep", "--k", "5", "--f", "0", "--f", "0/3", "--p-step", "0.5",
            "--trials", "3", "--out", str(out),
        )
        assert code == EXIT_USAGE
        assert err == "error: assignment K=5,f=0/1 is listed more than once\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "sweep", "--k", "5")
        assert code == EXIT_USAGE

    def test_manifest_lists_every_config_field(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--k", "6", "--f", "1/3", "--f", "0", "--p-step", "0.5",
            "--trials", "2", "--seed", "5", "--quiet", "--out", str(out),
        )
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv.manifest").read_text().splitlines()
        assert lines == [
            "command=sweep",
            f"version={__version__}",
            "assignments=K=6,f=1/3 K=6,f=0/1",
            "p_start=0.0",
            "p_end=1.0",
            "p_step=0.5",
            "trials=2",
            "master_seed=5",
            "deactivate_last=True",
            "share_realizations=False",
            "workers=1",
            f"out={out}",
        ]

    def test_infinite_p_step_names_p_step(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, stdout, err = run(
            capsys, "sweep", "--k", "5", "--f", "0", "--p-step", "inf", "--out", str(out),
        )
        assert code == EXIT_USAGE
        assert err == "error: p step must be finite and at least 1e-10, got inf\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_fine_step_sweep_keeps_distinct_points(self, tmp_path, capsys):
        out = tmp_path / "fine.csv"
        code, _, _ = run(
            capsys,
            "sweep", "--k", "5", "--f", "3/5", "--p-start", "0.1", "--p-end", "0.1000005",
            "--p-step", "1e-7", "--trials", "5", "--quiet", "--out", str(out),
        )
        assert code == EXIT_OK
        code, stdout, _ = run(capsys, "table", "--in", str(out))
        assert code == EXIT_OK
        points = [line.split()[0] for line in stdout.splitlines()[1:]]
        assert len(set(points)) == len(points) == 6
        # the p column widens to its longest p, so every field stays under its header
        header, *lines = stdout.splitlines()
        for line in lines:
            p, best, mean, ties = line.split()
            assert line.index(p) + len(p) == header.index("p") + 1
            assert line.index(best) == header.index("best")
            assert line.index(mean, line.index(best) + len(best)) + len(mean) == header.index("mean") + 4
            assert line.rindex(ties) == header.index("ties")
        assert max(map(len, points)) == len("0.1000005")
        manifest = dict(
            line.split("=", 1)
            for line in (tmp_path / "fine.csv.manifest").read_text().splitlines()
        )
        replay = SweepConfig(
            assignments=(AssignmentSpec(5, Fraction(3, 5)),),
            p_start=float(manifest["p_start"]),
            p_end=float(manifest["p_end"]),
            p_step=float(manifest["p_step"]),
        )
        assert replay.p_grid() == tuple(row.p for row in read_sweep_csv(out))

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(
            capsys,
            "sweep", "--k", "4", "--f", "0", "--p-start", "0", "--p-end", "0",
            "--trials", "1", "--quiet", "--out", str(tmp_path / "nodir" / "x.csv"),
        )
        assert code == EXIT_IO


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sweep", "--k", "5", "--f", "0", "--seed", "-1", "--out", "x.csv"),
         "master seed must be at least 0, got -1"),
        (("verify", "--seed", "-3"), "--seed must be at least 0, got -3"),
        (("trace", "--k", "5", "--p", "0.3", "--f", "0", "--seed", "-2"),
         "--seed must be at least 0, got -2"),
        (("trace", "--f", "0", "--coeff-seed", "-1", "5;11111;1111"),
         "--coeff-seed must be at least 0, got -1"),
    ],
    ids=["sweep-seed", "verify-seed", "trace-seed", "trace-coeff-seed"],
)
def test_negative_seed_rejected(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert err == f"error: {message}\n"
    assert out == ""
    assert list(tmp_path.iterdir()) == []


class TestVerifyCommand:
    def test_family_exhaustive_clean(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--k-max", "4", "--mode", "exhaustive",
            "--random-assignments", "0",
        )
        assert code == EXIT_OK
        assert "0 mismatches" in out

    def test_random_mode_reports_optimality_gap(self, capsys):
        # seed chosen to hit a known greedy-vs-optimum gap instance
        code, out, _ = run(
            capsys,
            "verify", "--mode", "random", "--k-max", "5", "--trials", "400",
            "--seed", "0",
        )
        assert code == EXIT_MISMATCH
        assert "mismatch" in out and "greedy=" in out

    def test_k_max_guard(self, capsys):
        code, _, err = run(capsys, "verify", "--k-max", "20")
        assert code == EXIT_USAGE
        assert "k-max" in err

    def test_random_assignments_bounded(self, capsys, monkeypatch):
        # Rejected before any assignment is drawn.
        def refuse(*args):
            raise AssertionError("drew an assignment")

        monkeypatch.setattr("lindof.cli.random_assignment", refuse)
        code, out, err = run(
            capsys, "verify", "--mode", "exhaustive", "--k-max", "3",
            "--random-assignments", str(MAX_RANDOM_ASSIGNMENTS + 1),
        )
        assert code == EXIT_USAGE
        assert err == (
            f"error: --random-assignments must be at most {MAX_RANDOM_ASSIGNMENTS}, "
            f"got {MAX_RANDOM_ASSIGNMENTS + 1}\n"
        )
        assert out == ""

    def test_trials_bounded(self, capsys, monkeypatch):
        # Rejected before any instance is drawn.
        def refuse(*args):
            raise AssertionError("drew an instance")

        monkeypatch.setattr("lindof.cli.sample_realization", refuse)
        code, out, err = run(
            capsys, "verify", "--mode", "random", "--trials", str(MAX_VERIFY_TRIALS + 1),
        )
        assert code == EXIT_USAGE
        assert err == (
            f"error: --trials must be at most {MAX_VERIFY_TRIALS}, got {MAX_VERIFY_TRIALS + 1}\n"
        )
        assert out == ""

    @pytest.mark.parametrize(
        "flag, value", [("--trials", "0"), ("--trials", "-5"), ("--random-assignments", "-1")]
    )
    def test_count_guards(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "--mode", "random", flag, value)
        assert code == EXIT_USAGE
        assert err.startswith(f"error: {flag} must be at least")
        assert out == ""


class TestTraceCommand:
    def test_full_network_trace(self, capsys):
        code, out, err = run(capsys, "trace", "--k", "5", "--f", "3/5", "5;11111;1111")
        assert code == EXIT_OK
        assert err == ""
        assert out.splitlines() == [
            "realization: 5;11111;1111",
            "assignment:",
            "1: 1,2",
            "2: 1,2",
            "3: 3,4",
            "4: 3,4",
            "5: 3,4",
            "cluster 1..5",
            "  decisions: (1,1) (1,2) (2,2) (4,3) (5,3) (5,4)",
            "  delivered: 1 2 4 5",
            "  tx 1: W1 x 1+0j",
            "  tx 2: W1 x 0.9375-0.2181j, W2 x 1+0j",
            "  tx 3: W4 x 1+0j, W5 x 1.11+0.1078j",
            "  tx 4: W5 x 1+0j",
            "  tx 5: (silent)",
            "  rx 1: desired 1.290e-01, interference ratio 0.000e+00",
            "  rx 2: desired 4.589e-01, interference ratio 0.000e+00",
            "  rx 4: desired 1.022e+00, interference ratio 1.536e-16",
            "  rx 5: desired 4.451e-01, interference ratio 0.000e+00",
            "summary: delivered 4/5, zero-forcing check PASS",
        ]

    def test_all_erased(self, capsys):
        code, out, _ = run(capsys, "trace", "--f", "3/5", "5;00000;0000")
        assert code == EXIT_OK
        assert "no active receivers" in out

    def test_bad_bits_parse_error(self, capsys):
        code, _, err = run(capsys, "trace", "--f", "3/5", "5;111;1111")
        assert code == EXIT_USAGE
        assert "direct-bits" in err

    def test_k_conflict_rejected(self, capsys):
        code, _, err = run(capsys, "trace", "--k", "4", "--f", "0", "5;11111;1111")
        assert code == EXIT_USAGE

    def test_p_with_realization_rejected(self, capsys):
        code, out, err = run(capsys, "trace", "--p", "0.3", "--f", "0", "5;11111;1111")
        assert code == EXIT_USAGE
        assert err == "error: --p 0.3 cannot be used with a realization string\n"
        assert out == ""

    def test_schedule_needing_erased_links_is_mismatch(self, capsys, monkeypatch):
        def refuse(s, r):
            raise RuntimeError("transmitter 2: cancelling message 1 needs links that are erased")

        monkeypatch.setattr("lindof.cli.build_transmit_signals", refuse)
        code, out, err = run(capsys, "trace", "--f", "3/5", "5;11111;1111")
        assert code == EXIT_MISMATCH
        assert err == "error: transmitter 2: cancelling message 1 needs links that are erased\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((), "either a realization string or --k with --p is required"),
            (("--k", "5"), "--p is required when no realization string is given"),
        ],
        ids=["no-network", "k-without-p"],
    )
    def test_sampled_network_needs_k_and_p(self, capsys, argv, message):
        code, out, err = run(capsys, "trace", "--f", "0", *argv)
        assert code == EXIT_USAGE
        assert err == f"error: {message}\n"
        assert out == ""

    def test_helper_over_erased_link_is_mismatch(self, capsys, monkeypatch):
        # transmitter 2 nulls message 4 at receiver 3 over direct link 3,
        # which is erased: `build_transmit_signals` itself refuses the entry
        erased = Schedule(5, frozenset({(4, 2)}), frozenset())
        monkeypatch.setattr("lindof.cli.schedule_network", lambda r, a: erased)
        code, out, err = run(capsys, "trace", "--f", "3/5", "5;11011;1111")
        assert code == EXIT_MISMATCH
        assert err == "error: transmitter 2: cancelling message 4 needs links that are erased\n"
        assert out == ""

    def test_sampled_network_size_bounded(self, capsys):
        code, out, err = run(capsys, "trace", "--k", str(MAX_K + 1), "--p", "0.5", "--f", "0")
        assert code == EXIT_USAGE
        assert err == f"error: need 1 to {MAX_K} users, got k={MAX_K + 1}\n"
        assert out == ""

    def test_sampled_realization(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--k", "6", "--f", "1/2", "--p", "0.4", "--seed", "3"
        )
        assert code == EXIT_OK
        assert "summary: delivered" in out


class TestTableCommand:
    def _sweep(self, tmp_path, capsys, name, *fs, k="5"):
        out = tmp_path / name
        args = ["sweep", "--k", k, "--p-start", "0", "--p-end", "1", "--p-step",
                "0.5", "--trials", "40", "--seed", "2", "--quiet", "--out", str(out)]
        for f in fs:
            args += ["--f", f]
        assert run(capsys, *args)[0] == EXIT_OK
        return out

    def test_round_trip_from_sweep(self, tmp_path, capsys):
        csv_a = self._sweep(tmp_path, capsys, "a.csv", "3/5", "0")
        code, out, _ = run(capsys, "table", "--in", str(csv_a))
        assert code == EXIT_OK
        assert "K=5,f=3/5" in out

    def test_merges_multiple_inputs(self, tmp_path, capsys):
        csv_a = self._sweep(tmp_path, capsys, "a.csv", "3/5")
        csv_b = self._sweep(tmp_path, capsys, "b.csv", "0", k="7")
        out_csv = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "table", "--in", str(csv_a), "--in", str(csv_b),
            "--out", str(out_csv),
        )
        assert code == EXIT_OK
        header = out_csv.read_text().splitlines()[0]
        assert header == "p,best,mean,stderr,ties"

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("0.1,x,5,1,2,10,1,not-a-number,0", "could not convert string to float"),
            ("nan,x,5,1,2,10,1,0.5,0", "p must lie in [0, 1], got nan"),
            ("7,x,5,1,2,10,1,0.5,0", "p must lie in [0, 1], got 7.0"),
            ("0.1,x,5,1,2,-10,1,0.5,0", "trials must be at least 1, got -10"),
            ("0.1,x,5,1,2,10,1,5.0,0", "pudof_mean must lie in [0, 1], got 5.0"),
            ("0.1,x,5,1,2,10,1,nan,0", "pudof_mean must lie in [0, 1], got nan"),
            ("0.1,x,5,1,2,10,1,0.5,-0.01",
             "pudof_stderr must be finite and non-negative, got -0.01"),
            ("0.1,x,5,1,2,10,1,0.5,inf",
             "pudof_stderr must be finite and non-negative, got inf"),
            ('0.1,"K=-5,f=1/2",-5,1,2,10,1,0.5,0', "k must be at least 3, got -5"),
            ('0.1,"K=5,f=7/2",5,7,2,10,1,0.5,0', "f must lie in [0, 1], got 7/2"),
            ('0.1,"K=5,f=1/2",5,1,2,10,-1,0.5,0', "seed must be at least 0, got -1"),
            ("0.1,x,5,1,2,10,1,0.5,0", "assignment must be K=5,f=1/2, got x"),
            ("0.1,x,5,1,2,10,1,0.5", "expected 9 fields, got 8"),
        ],
        ids=["mean-text", "p-nan", "p-7", "trials-neg", "mean-5", "mean-nan",
             "stderr-neg", "stderr-inf", "k-neg", "f-7/2", "seed-neg", "label-mismatch",
             "field-count"],
    )
    def test_schema_violation_names_row(self, tmp_path, capsys, row, reason):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "p,assignment,k,f_num,f_den,trials,seed,pudof_mean,pudof_stderr\n"
            f"{row}\n"
        )
        code, out, err = run(capsys, "table", "--in", str(bad))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith(f"error: {bad} row 2: {reason}")

    def test_wrong_header_names_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("p,assignment,k\n0.1,x,5\n")
        code, out, err = run(capsys, "table", "--in", str(bad))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            f"error: {bad}: expected header p,assignment,k,f_num,f_den,trials,seed,"
            "pudof_mean,pudof_stderr, got ['p', 'assignment', 'k']\n"
        )

    def test_same_input_twice_is_duplicate(self, tmp_path, capsys):
        csv_a = self._sweep(tmp_path, capsys, "a.csv", "3/5")
        code, out, err = run(capsys, "table", "--in", str(csv_a), "--in", str(csv_a))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: duplicate row for p=0.0, assignment K=5,f=3/5\n"

    def test_empty_csv_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("p,assignment,k,f_num,f_den,trials,seed,pudof_mean,pudof_stderr\n")
        code, _, err = run(capsys, "table", "--in", str(empty))
        assert code == EXIT_USAGE
        assert "no data rows" in err


def test_unknown_command_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == EXIT_USAGE
