import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lindof import network
from lindof.cli import main
from lindof.network import (
    MIN_GAIN_MAGNITUDE,
    Cluster,
    NetworkRealization,
    all_realizations,
    attach_generic_coefficients,
    derive_seed,
    parse_realization,
    partition_into_clusters,
    realization_to_string,
    sample_realization,
    sample_trials,
)


def realizations(max_k=12):
    return st.integers(1, max_k).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.tuples(*[st.booleans()] * k),
            st.tuples(*[st.booleans()] * (k - 1)),
        )
    ).map(lambda t: NetworkRealization(*t))


def per_pair_gains(r, trial_seed):
    """Reference gains: one two-normal draw per attempt, link by link,
    redone while below the floor. Returns the direct gains, the cross
    gains and the number of rejected draws."""
    rng = np.random.default_rng(trial_seed)
    scale = 1.0 / np.sqrt(2.0)
    rejected = 0

    def draw() -> complex:
        nonlocal rejected
        while True:
            re, im = rng.normal(size=2) * scale
            gain = complex(re, im)
            if abs(gain) >= network.MIN_GAIN_MAGNITUDE:
                return gain
            rejected += 1

    direct = tuple(draw() if present else 0j for present in r.direct)
    cross = tuple(draw() if present else 0j for present in r.cross)
    return direct, cross, rejected


class TestSampling:
    def test_p_zero_all_links_present(self):
        r = sample_realization(5, 0.0, 123)
        assert all(r.direct) and all(r.cross)
        assert len(r.direct) + len(r.cross) == 9

    def test_p_one_all_links_absent(self):
        r = sample_realization(5, 1.0, 123)
        assert not any(r.direct) and not any(r.cross)

    def test_deterministic_in_seed(self):
        assert sample_realization(20, 0.5, 42) == sample_realization(20, 0.5, 42)

    def test_different_seeds_differ(self):
        assert sample_realization(20, 0.5, 42) != sample_realization(20, 0.5, 43)

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.inf])
    def test_invalid_p_rejected(self, p):
        with pytest.raises(ValueError):
            sample_realization(5, p, 0)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            sample_realization(0, 0.5, 0)

    @pytest.mark.parametrize("k", [1, 5, 100])
    @pytest.mark.parametrize("p", [0.0, 0.35, 1.0])
    def test_links_are_python_bools_of_the_draw(self, k, p):
        # The decision pass's plain boolean logic reads Python bools: each
        # link is exactly bool() of its element of the same draw.
        for t in range(6):
            trial_seed = derive_seed(5, k, t)
            draw = np.random.default_rng(trial_seed).random(2 * k - 1) >= p
            r = sample_realization(k, p, trial_seed)
            links = r.direct + r.cross
            assert all(type(x) is bool for x in links)
            assert links == tuple(bool(x) for x in draw)

    def test_absence_frequency_matches_p(self):
        # binomial check at 4 standard errors
        p, k, trials = 0.3, 10, 2000
        links = 2 * k - 1
        absent = 0
        for t in range(trials):
            r = sample_realization(k, p, derive_seed(7, t))
            absent += sum(not x for x in r.direct) + sum(not x for x in r.cross)
        n = trials * links
        stderr = math.sqrt(p * (1 - p) / n)
        assert abs(absent / n - p) <= 4 * stderr


def per_trial(k, p, master_seed, trials):
    return [sample_realization(k, p, derive_seed(master_seed, t)) for t in trials]


class TestSlabSampling:
    # 2**100 + 3 has four 32-bit words, so with the trial index its
    # entropy runs past SeedSequence's pool of four
    @pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 3])
    @pytest.mark.parametrize("k, p", [(5, 0.35), (1, 0.5), (3, 0.0), (3, 1.0)])
    def test_equals_per_trial_draws(self, master_seed, k, p):
        trials = range(3, 40)
        assert list(sample_trials(k, p, master_seed, trials)) == per_trial(k, p, master_seed, trials)
        seeds = network._trial_seeds(master_seed, trials)
        assert seeds.tolist() == [derive_seed(master_seed, t) for t in trials]

    @pytest.mark.parametrize("master_seed", [0, 2**64 - 1, 2**100 + 3])
    def test_trial_index_of_one_and_two_words(self, master_seed):
        # the index takes a second 32-bit word from 2**32 on, and the
        # last index a uint64 holds is drawn too
        for trials in (range(2**32 - 20, 2**32 + 20), range(2**64 - 5, 2**64)):
            assert list(sample_trials(5, 0.4, master_seed, trials)) == per_trial(5, 0.4, master_seed, trials)

    def test_generator_states_of_one_and_two_word_seeds(self):
        # a derived trial seed below 2**32 is rare, so the hashed words
        # are checked on explicit seeds; numpy reads 0 as the word [0] and
        # `_seed_sequence_state` pads it to [0, 0], which hashes the same
        seeds = [0, 1, 7, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        words = network._seed_sequence_state([], np.array(seeds, dtype=np.uint64), 4)
        for seed, row in zip(seeds, words):
            state = np.random.PCG64(network._HashedSeed(row)).state
            assert state == np.random.default_rng(seed).bit_generator.state

    # (4,) asks for generate_state's default dtype, uint32
    @pytest.mark.parametrize(
        "request_args",
        [(3, np.uint64), (5, np.uint64), (4, np.uint32), (8, np.uint32), (4, np.int64), (4,)],
    )
    def test_hashed_seed_refuses_any_other_request(self, request_args):
        # a numpy that seeded PCG64 from other words would draw another
        # stream; the hashed seed raises instead
        words = network._seed_sequence_state([], np.array([7], dtype=np.uint64), 4)[0]
        seed = network._HashedSeed(words)
        assert seed.generate_state(4, np.uint64) is words
        with pytest.raises(ValueError, match="hashed seed holds 4 uint64 words, asked for"):
            seed.generate_state(*request_args)

    def test_first_trial_of_a_huge_range_comes_at_once(self):
        # the index check reads the range's two ends and the slabs step
        # by their first index, so neither walks the range nor takes its
        # len(), which fails from 2**63 on; run in a subprocess, so a walk
        # fails on the timeout instead of hanging the suite
        src = str(Path(network.__file__).resolve().parent.parent)
        code = (
            "from lindof.network import realization_to_string, sample_trials\n"
            "for n in (2**62, 2**64):\n"
            "    print(realization_to_string(next(sample_trials(5, 0.3, 1, range(n)))))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        first = realization_to_string(sample_realization(5, 0.3, derive_seed(1, 0)))
        assert proc.stdout.splitlines() == [first, first]

    def test_range_longer_than_one_slab(self, monkeypatch):
        # at k=5 a slab of 50 links holds 5 trials: four whole slabs and a part
        monkeypatch.setattr(network, "SLAB_LINKS", 50)
        for trials in (range(7, 30), range(40, 3, -3)):
            assert list(sample_trials(5, 0.3, 11, trials)) == per_trial(5, 0.3, 11, trials)
        # at the module's own slab, k=1000 holds 32 trials a slab
        monkeypatch.undo()
        trials = range(70)
        assert list(sample_trials(1000, 0.3, 11, trials)) == per_trial(1000, 0.3, 11, trials)

    def test_empty_range_draws_nothing(self):
        assert list(sample_trials(5, 0.3, 1, range(4, 4))) == []

    @pytest.mark.parametrize(
        "k, p, master_seed, trials, match",
        [
            (0, 0.5, 1, range(3), "need 1 to"),
            (network.MAX_K + 1, 0.5, 1, range(3), "need 1 to"),
            (5, 1.5, 1, range(3), "erasure probability"),
            (5, math.nan, 1, range(3), "erasure probability"),
            (5, 0.5, -1, range(3), "master seed must be at least 0, got -1"),
            (5, 0.5, 1, range(-1, 3), "trial indices"),
            (5, 0.5, 1, range(2**64 - 1, 2**64 + 1), "trial indices"),
        ],
    )
    def test_bad_arguments_rejected_before_drawing(self, k, p, master_seed, trials, match):
        with pytest.raises(ValueError, match=match):
            next(sample_trials(k, p, master_seed, trials))

    def test_memory_held_is_one_slab_whatever_the_trial_count(self):
        # the peak while a long range is drawn and dropped trial by trial
        # is that of one slab: its floats, then its bools or its seeds
        k = 5
        per_slab = network.SLAB_LINKS // (2 * k - 1)
        list(sample_trials(k, 0.3, 2, range(3)))  # any first-call allocation

        def peak(n):
            tracemalloc.start()
            try:
                for _ in sample_trials(k, 0.3, 2, range(n)):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(per_slab), peak(4 * per_slab)
        assert one <= 64 * network.SLAB_LINKS
        assert four <= 1.1 * one


class TestPinnedStream:
    # What given seeds draw, frozen: a change to the random stream fails
    # here even where the slab path and `sample_realization` share it
    @pytest.mark.parametrize(
        "master_seed, expected",
        [
            (0, ["5;10111;0011", "5;11010;1101", "5;01101;0110", "5;11100;1100"]),
            (2**32, ["5;11010;1101", "5;11111;0110", "5;01101;0011", "5;10101;1100"]),
            (2**64 - 1, ["5;00111;0101", "5;01011;0011", "5;10010;1010", "5;00001;0110"]),
            (2**100 + 3, ["5;11101;1111", "5;00001;0111", "5;11010;1100", "5;11101;1001"]),
        ],
    )
    def test_sampled_trials(self, master_seed, expected):
        drawn = sample_trials(5, 0.35, master_seed, range(4))
        assert [realization_to_string(r) for r in drawn] == expected

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                "--k 6 --f 1/3 --f 0 --p-step 0.1 --trials 200 --seed 5",
                "8b90c30864a81efdbd1b8591bb72d4774d374db9d31b9c7dd464b06b5d01b5e6",
            ),
            (
                "--k 100 --f 1/2 --f 3/4 --p-step 0.25 --trials 300"
                " --seed 18446744073709551615 --share-realizations",
                "9937522bfbf580ecc98ccd8462ea4bdc69a7b5bd1f18a98ce4aeca9df13dc3b7",
            ),
        ],
        ids=["k6", "k100-shared"],
    )
    def test_sweep_csv_bytes(self, tmp_path, argv, digest):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv.split(), "--quiet", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("v", [0, 1, 2**32 - 1])
def test_seed_sequence_pads_a_short_last_value(v):
    # The slab hash enters every value as two 32-bit words. numpy reads
    # one below 2**32, but hashes each word missing from its pool of four
    # as 0: the layouts agree while at most two words come before v. A
    # master seed from 2**64 up has three, so it takes `derive_seed`.
    def state(entropy):
        return np.random.SeedSequence(entropy).generate_state(8).tolist()

    split = [v & 0xFFFFFFFF, v >> 32]
    for prefix in ([], [7], [2**40 + 5]):
        assert state(prefix + [v]) == state(prefix + split)
    assert state([2**64 + 3, v]) != state([2**64 + 3] + split)


class TestCoefficients:
    def test_all_absent_gives_zero_gains(self):
        r = NetworkRealization(4, (False,) * 4, (False,) * 3)
        assert attach_generic_coefficients(r, 5) == ((0j,) * 4, (0j,) * 3)

    def test_deterministic(self):
        r = sample_realization(8, 0.4, 11)
        assert attach_generic_coefficients(r, 3) == attach_generic_coefficients(r, 3)

    def test_magnitude_floor(self):
        for t in range(50):
            r = sample_realization(6, 0.3, derive_seed(1, t))
            direct_gain, cross_gain = attach_generic_coefficients(r, t)
            assert (len(direct_gain), len(cross_gain)) == (len(r.direct), len(r.cross))
            for present, gain in zip(r.direct + r.cross, direct_gain + cross_gain):
                if present:
                    assert abs(gain) >= MIN_GAIN_MAGNITUDE
                else:
                    assert gain == 0

    @pytest.mark.parametrize("floor", [MIN_GAIN_MAGNITUDE, 0.7])
    def test_equals_per_pair_reference(self, monkeypatch, floor):
        monkeypatch.setattr(network, "MIN_GAIN_MAGNITUDE", floor)
        rejected = 0
        for k in range(1, 6):
            for r in all_realizations(k):
                for seed in (0, 7, derive_seed(5, k)):
                    direct, cross, misses = per_pair_gains(r, seed)
                    assert attach_generic_coefficients(r, seed) == (direct, cross)
                    rejected += misses
        # at 0.7 about two draws in five are redone, so the draw is
        # topped up on most patterns with several surviving links
        assert (rejected > 1000) == (floor == 0.7)


def test_link_counts_checked():
    with pytest.raises(ValueError, match="^need at least one user, got k=0$"):
        NetworkRealization(0, (), ())
    with pytest.raises(ValueError, match="^expected 3 cross links, got 2$"):
        NetworkRealization(4, (True,) * 4, (True,) * 2)


class TestClusters:
    def test_all_cross_present_single_cluster(self):
        r = NetworkRealization(5, (True,) * 5, (True,) * 4)
        assert partition_into_clusters(r) == [Cluster(1, 5)]

    def test_one_missing_cross_splits(self):
        # cross link 3 (transmitter 3 -> receiver 4) erased
        r = NetworkRealization(6, (True,) * 6, (True, True, False, True, True))
        assert partition_into_clusters(r) == [Cluster(1, 3), Cluster(4, 6)]

    def test_all_cross_absent_singletons(self):
        r = NetworkRealization(4, (True,) * 4, (False,) * 3)
        assert partition_into_clusters(r) == [Cluster(i, i) for i in range(1, 5)]

    @given(realizations())
    def test_partition_covers_and_counts(self, r):
        clusters = partition_into_clusters(r)
        covered = [i for c in clusters for i in range(c.start, c.end + 1)]
        assert covered == list(range(1, r.k + 1))
        assert len(clusters) == 1 + sum(not x for x in r.cross)
        for c in clusters:
            assert all(r.cross[c.start - 1 : c.end - 1])
            assert c.end == r.k or not r.cross[c.end - 1]


class TestSerialization:
    @given(realizations())
    def test_round_trip(self, r):
        assert parse_realization(realization_to_string(r)) == r

    def test_example(self):
        r = parse_realization("5;11111;1111")
        assert r.k == 5 and all(r.direct) and all(r.cross)

    @pytest.mark.parametrize(
        "text,field",
        [
            ("5;11111", "fields"),
            ("x;11111;1111", "k field"),
            ("0;;", "k field"),
            ("5;111;1111", "direct-bits"),
            ("5;11111;111", "cross-bits"),
            ("5;11121;1111", "direct-bits"),
        ],
    )
    def test_parse_errors_name_field(self, text, field):
        with pytest.raises(ValueError, match=field):
            parse_realization(text)


@pytest.mark.parametrize("k", range(1, 8))
def test_all_realizations_in_bit_order(k):
    # bit i-1 is direct link i, bit k+j-1 is cross link j
    patterns = [
        sum(x << b for b, x in enumerate(r.direct + r.cross))
        for r in all_realizations(k)
    ]
    assert patterns == list(range(2 ** (2 * k - 1)))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(1, 2) != derive_seed(2, 2)
    assert 0 <= derive_seed(123456789, 10**6) < 2**64
