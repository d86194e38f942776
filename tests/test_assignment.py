import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lindof.assignment import (
    MessageAssignment,
    assignment_label,
    build_assignment,
    format_assignment,
    random_assignment,
    remove_transmitter,
)
from lindof.network import Cluster
from reference import helper_fraction, restrict_to_cluster

# the (K, f) pairs exercised in the experiment tables
TABLE_SET = [
    (5, Fraction(3, 5)),
    (100, Fraction(1, 2)),
    (100, Fraction(49, 100)),
    (100, Fraction(12, 25)),
    (100, Fraction(1, 50)),
    (99, Fraction(0)),
]


def fractions_in_unit_interval():
    return st.integers(1, 20).flatmap(
        lambda den: st.integers(0, den).map(lambda num: Fraction(num, den))
    )


class TestBuildAssignment:
    def test_k5_f35(self):
        a = build_assignment(5, Fraction(3, 5))
        assert [set(ts) for ts in a.transmit_sets] == [
            {1, 2}, {1, 2}, {3, 4}, {3, 4}, {3, 4},
        ]

    def test_k6_f0(self):
        a = build_assignment(6, 0)
        assert [set(ts) for ts in a.transmit_sets] == [
            {1, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {4, 5},
        ]

    def test_k100_f_half(self):
        a = build_assignment(100, Fraction(1, 2))
        for i in range(1, 101):
            ts = set(a.transmit_sets[i - 1])
            if i == 1:
                assert ts == {1, 2}
            elif i == 100:
                assert ts == {98, 99}
            elif i % 2 == 1 and 3 <= i <= 97:
                assert ts == {i, i + 1}
            else:
                assert ts == {i - 1, i}

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            build_assignment(2, 0)

    @pytest.mark.parametrize("f", [Fraction(-1, 5), Fraction(6, 5)])
    def test_f_outside_unit_interval_rejected(self, f):
        with pytest.raises(ValueError):
            build_assignment(10, f)

    @given(st.integers(3, 60), fractions_in_unit_interval())
    def test_budget_and_bounds(self, k, f):
        a = build_assignment(k, f)
        for ts in a.transmit_sets:
            assert 1 <= len(ts) <= 2
            assert all(1 <= t <= k for t in ts)

    @given(st.integers(3, 60), fractions_in_unit_interval())
    def test_rules_never_overlap_for_valid_f(self, k, f):
        # every row either forward rule names is its own: the interior
        # forward sets number exactly the two rules' row counts
        a = build_assignment(k, f)
        forward = sum(a.transmit_sets[i - 1] == {i, i + 1} for i in range(2, k))
        stride_rows = max(0, math.floor(min(f * k - 2, k // 2 - 1)))
        even_rows = max(0, math.ceil((f - Fraction(1, 2)) * k) - 1)
        assert forward == stride_rows + even_rows

    def test_f0_interior_is_backward_pairs(self):
        a = build_assignment(9, 0)
        for i in range(2, 9):
            assert set(a.transmit_sets[i - 1]) == {i - 1, i}

    @pytest.mark.parametrize("k,f", TABLE_SET)
    def test_table_set_avoids_last_transmitter(self, k, f):
        a = build_assignment(k, f)
        assert all(k not in ts for ts in a.transmit_sets)


class TestHelperFraction:
    def test_matches_f_on_k5(self):
        assert helper_fraction(build_assignment(5, Fraction(3, 5))) == Fraction(3, 5)

    def test_boundary_helpers_at_f0(self):
        assert helper_fraction(build_assignment(6, 0)) == Fraction(2, 6)

    def test_self_only_sets_have_no_helpers(self):
        a = MessageAssignment(4, tuple(frozenset({i}) for i in range(1, 5)))
        assert helper_fraction(a) == 0

    @pytest.mark.parametrize("k,f", [(k, f) for k, f in TABLE_SET if f * k >= 2])
    def test_family_realizes_requested_fraction(self, k, f):
        assert helper_fraction(build_assignment(k, f)) == f


class TestRestrictToCluster:
    def test_drops_outside_and_reindexes(self):
        a = build_assignment(6, 0)
        local = restrict_to_cluster(a, Cluster(4, 6))
        # T_4={3,4} loses transmitter 3; 4 becomes local 1
        assert set(local.transmit_sets[0]) == {1}
        assert set(local.transmit_sets[1]) == {1, 2}
        assert set(local.transmit_sets[2]) == {1, 2}

    def test_full_cluster_is_identity(self):
        a = build_assignment(5, Fraction(3, 5))
        local = restrict_to_cluster(a, Cluster(1, 5))
        assert local == a

    def test_fully_outside_set_becomes_empty(self):
        a = MessageAssignment(5, (
            frozenset({1}), frozenset({5}), frozenset({4, 5}),
            frozenset({4}), frozenset({5}),
        ))
        local = restrict_to_cluster(a, Cluster(1, 3))
        assert local.transmit_sets[1] == frozenset()


def test_remove_transmitter_strips_everywhere():
    a = MessageAssignment(3, (frozenset({1, 3}), frozenset({3}), frozenset({2, 3})))
    b = remove_transmitter(a, 3)
    assert [set(ts) for ts in b.transmit_sets] == [{1}, set(), {2}]


def test_validation_rejects_bad_sets():
    with pytest.raises(ValueError):
        MessageAssignment(3, (frozenset({1, 2, 3}), frozenset(), frozenset()))
    with pytest.raises(ValueError):
        MessageAssignment(3, (frozenset({0}), frozenset(), frozenset()))
    with pytest.raises(ValueError):
        MessageAssignment(3, (frozenset({4}), frozenset(), frozenset()))


def test_random_assignment_respects_budget():
    rng = np.random.default_rng(0)
    for k in (1, 2, 5, 12):
        for _ in range(20):
            a = random_assignment(k, rng)
            assert all(len(ts) <= 2 for ts in a.transmit_sets)
            assert all(1 <= t <= k for ts in a.transmit_sets for t in ts)


def test_label_and_serialization():
    assert assignment_label(5, Fraction(3, 5)) == "K=5,f=3/5"
    a = MessageAssignment(3, (frozenset({1, 2}), frozenset(), frozenset({3})))
    assert format_assignment(a).splitlines() == ["1: 1,2", "2:", "3: 3"]
