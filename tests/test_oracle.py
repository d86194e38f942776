import math
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations

import numpy as np
import pytest

from lindof.assignment import (
    MessageAssignment,
    build_assignment,
    random_assignment,
    remove_transmitter,
)
from lindof.network import (
    all_realizations,
    derive_seed,
    parse_realization,
    sample_realization,
)
from lindof.oracle import MAX_EXACT_K, exact_expected_dof, optimal_zero_forcing_dof
from lindof.scheduler import schedule_network
from reference import CarrierConfig, feasible

# Frozen by running the 2^9-pattern enumeration once; the oracle's
# per-pattern sum returns the identical value (see
# test_equals_optimum_sum_on_family).
EXACT_K5_F35_P05 = 2.50390625
# Pinned with == at p=0.35 so the exact DP stays bit-identical at K=100 and
# K=8, plain and deactivated.
EXACT_P035 = {
    (100, Fraction(1, 2)): 61.895875432375604,
    (100, Fraction(0)): 62.59017040601478,
    (8, Fraction(3, 5)): 4.830241402297653,
    (8, Fraction(0)): 4.883120651803907,
}
# Pinned with == at K = MAX_EXACT_K, where the packed counts are largest,
# keyed by (f, p, deactivate_last). Frozen from an earlier DP that kept
# every (erased links, delivered) count, so they also check the sums.
EXACT_K200 = {
    (Fraction(3, 5), 0.35, False): 122.13341160658437,
    (Fraction(3, 5), 0.35, True): 122.13341160658437,
    (Fraction(3, 5), 0.5, True): 103.57368829884895,
    (Fraction(0), 0.35, True): 125.31634652181694,
    (Fraction(0), 0.5, True): 114.0204081632653,
}


def brute_force_over_configs(r, a):
    """Literal maximization over every CarrierConfig, no shortcuts."""
    best = 0
    messages = list(range(1, r.k + 1))
    for size in range(r.k, 0, -1):
        if size <= best:
            break
        for delivered in combinations(messages, size):
            choice_lists = []
            for m in delivered:
                ts = sorted(a.transmit_sets[m - 1])
                subsets = [frozenset({t}) for t in ts]
                if len(ts) == 2:
                    subsets.append(frozenset(ts))
                choice_lists.append(subsets)

            def configs(idx, acc):
                if idx == len(delivered):
                    yield acc
                    return
                for c in choice_lists[idx]:
                    yield from configs(idx + 1, acc + [c])

            for picks in configs(0, []):
                carriers = [frozenset()] * r.k
                for m, c in zip(delivered, picks):
                    carriers[m - 1] = c
                cfg = CarrierConfig(r.k, tuple(carriers), frozenset(delivered))
                if feasible(cfg, r):
                    best = max(best, size)
                    break
            if best == size:
                break
    return best


class TestFeasible:
    def test_lone_carriers_collide(self):
        r = parse_realization("2;11;1")
        cfg = CarrierConfig(
            2, (frozenset({1}), frozenset({2})), frozenset({1, 2})
        )
        assert not feasible(cfg, r)

    def test_empty_delivered_is_vacuous(self):
        r = parse_realization("2;00;0")
        cfg = CarrierConfig(2, (frozenset(), frozenset()), frozenset())
        assert feasible(cfg, r)

    def test_helper_family_config(self):
        r = parse_realization("5;11111;1111")
        cfg = CarrierConfig(
            5,
            (
                frozenset({1, 2}),
                frozenset({2}),
                frozenset(),
                frozenset({3}),
                frozenset({3, 4}),
            ),
            frozenset({1, 2, 4, 5}),
        )
        assert feasible(cfg, r)

    def test_carriers_without_delivery_rejected(self):
        r = parse_realization("3;111;11")
        cfg = CarrierConfig(
            3, (frozenset(), frozenset({1}), frozenset()), frozenset({2, 3})
        )
        assert not feasible(cfg, r)

    def test_undelivered_message_with_carriers_invalid(self):
        with pytest.raises(ValueError):
            CarrierConfig(2, (frozenset({1}), frozenset()), frozenset({2}))


class TestOptimalDof:
    def test_k5_helper_family(self):
        r = parse_realization("5;11111;1111")
        assert optimal_zero_forcing_dof(r, build_assignment(5, Fraction(3, 5))) == 4

    def test_all_absent_is_zero(self):
        r = parse_realization("3;000;00")
        assert optimal_zero_forcing_dof(r, build_assignment(3, 0)) == 0

    def test_k2_single_transmitters(self):
        r = parse_realization("2;11;1")
        a = MessageAssignment(2, (frozenset({1}), frozenset({2})))
        assert optimal_zero_forcing_dof(r, a) == 1

    def test_size_guard(self):
        r = sample_realization(11, 0.5, 0)
        a = MessageAssignment(11, tuple(frozenset({i}) for i in range(1, 12)))
        with pytest.raises(ValueError):
            optimal_zero_forcing_dof(r, a)

    def test_matches_literal_config_enumeration(self):
        rng = np.random.default_rng(31)
        for t in range(60):
            k = int(rng.integers(1, 5))
            r = sample_realization(k, float(rng.random()), derive_seed(77, t))
            a = random_assignment(k, rng)
            assert optimal_zero_forcing_dof(r, a) == brute_force_over_configs(r, a)

    def test_matches_literal_config_enumeration_on_every_pattern(self):
        for k in range(1, 5):
            rng = np.random.default_rng(derive_seed(71, k))
            family = [random_assignment(k, rng) for _ in range(4)]
            if k >= 3:
                family += [build_assignment(k, 0), build_assignment(k, Fraction(3, 5))]
            family += [remove_transmitter(a, k) for a in family]
            for r in all_realizations(k):
                for a in family:
                    assert optimal_zero_forcing_dof(r, a) == brute_force_over_configs(r, a)

    def test_never_below_greedy(self):
        rng = np.random.default_rng(13)
        for t in range(400):
            k = int(rng.integers(1, 9))
            r = sample_realization(k, float(rng.random()), derive_seed(88, t))
            a = random_assignment(k, rng)
            assert optimal_zero_forcing_dof(r, a) >= len(schedule_network(r, a).delivered)

    def test_equals_greedy_on_family(self):
        # Deactivated, as every sweep runs them, all seven fractions are
        # optimal. Plain members with f = 4/5 or 1 are left out: without
        # the dual send they can fall short.
        fractions = [Fraction(f) for f in ("0", "1/5", "2/5", "1/2", "3/5", "4/5", "1")]
        for k in (3, 4, 5, 6):
            family = [build_assignment(k, f) for f in fractions]
            family = family[:5] + [remove_transmitter(a, k) for a in family]
            for r in all_realizations(k):
                for a in family:
                    assert optimal_zero_forcing_dof(r, a) == len(schedule_network(r, a).delivered)

    def test_deactivated_direct_link_is_never_read(self):
        # Once transmitter k is in no transmit set, the survival of its
        # direct link changes neither the greedy schedule nor the optimum.
        for k in range(1, 7):
            rng = np.random.default_rng(derive_seed(61, k))
            family = [random_assignment(k, rng) for _ in range(4)]
            if k >= 3:
                family += [build_assignment(k, 0), build_assignment(k, Fraction(3, 5))]
            for a in family:
                a = remove_transmitter(a, k)
                for r in all_realizations(k):
                    dead = replace(r, direct=r.direct[:-1] + (False,))
                    assert schedule_network(r, a) == schedule_network(dead, a)
                    assert optimal_zero_forcing_dof(r, a) == optimal_zero_forcing_dof(dead, a)

    def test_monotone_under_enrichment(self):
        rng = np.random.default_rng(41)
        for t in range(150):
            k = int(rng.integers(2, 7))
            r = sample_realization(k, float(rng.random()), derive_seed(55, t))
            a = random_assignment(k, rng)
            base = optimal_zero_forcing_dof(r, a)
            # add one transmitter to a set with spare budget, if any
            for i, ts in enumerate(a.transmit_sets):
                if len(ts) < 2:
                    extra = int(rng.integers(1, k + 1))
                    if extra in ts:
                        continue
                    sets = list(a.transmit_sets)
                    sets[i] = ts | {extra}
                    richer = MessageAssignment(k, tuple(sets))
                    assert optimal_zero_forcing_dof(r, richer) >= base
                    break


def greedy_dof(r, a):
    return len(schedule_network(r, a).delivered)


def per_pattern_expected_dof(k, p, a, count=greedy_dof):
    """Small reference: count each pattern alone (greedy by default, or
    `optimal_zero_forcing_dof`), add the counts per number of erased links
    and sum like `exact_expected_dof`."""
    links = 2 * k - 1
    delivered = [0] * (links + 1)
    for r in all_realizations(k):
        delivered[r.direct.count(False) + r.cross.count(False)] += count(r, a)
    return math.fsum(
        n * p**e * (1.0 - p) ** (links - e) for e, n in enumerate(delivered)
    )


class TestExactExpectedDof:
    def test_equals_per_pattern_greedy_sum(self):
        for k in range(1, 8):
            rng = np.random.default_rng(derive_seed(63, k))
            family = [random_assignment(k, rng)]
            if k >= 3:
                family += [build_assignment(k, 0), build_assignment(k, Fraction(3, 5))]
            for a in family:
                for deactivate in (False, True):
                    run = remove_transmitter(a, k) if deactivate else a
                    for p in (0.0, 0.35, 1.0):
                        assert exact_expected_dof(
                            k, p, a, deactivate_last=deactivate
                        ) == per_pattern_expected_dof(k, p, run)

    def test_k1_single_link(self):
        a = MessageAssignment(1, (frozenset({1}),))
        for p in (0.0, 0.25, 0.5, 1.0):
            assert exact_expected_dof(1, p, a) == pytest.approx(1 - p, abs=1e-12)

    def test_p_endpoints(self):
        a = build_assignment(5, Fraction(3, 5))
        all_present = parse_realization("5;11111;1111")
        assert exact_expected_dof(5, 0.0, a) == len(schedule_network(all_present, a).delivered)
        assert exact_expected_dof(5, 1.0, a) == 0.0

    def test_frozen_regression_value(self):
        a = build_assignment(5, Fraction(3, 5))
        assert exact_expected_dof(5, 0.5, a) == pytest.approx(EXACT_K5_F35_P05, abs=1e-12)

    @pytest.mark.parametrize("k, f", list(EXACT_P035))
    def test_frozen_large_values(self, k, f):
        a = build_assignment(k, f)
        for deactivate in (False, True):
            assert exact_expected_dof(k, 0.35, a, deactivate_last=deactivate) == EXACT_P035[k, f]

    @pytest.mark.parametrize("f, p, deactivate", list(EXACT_K200))
    def test_frozen_values_at_size_bound(self, f, p, deactivate):
        k = MAX_EXACT_K
        a = build_assignment(k, f)
        got = exact_expected_dof(k, p, a, deactivate_last=deactivate)
        assert got == EXACT_K200[f, p, deactivate]

    def test_equals_optimum_sum_on_family(self):
        for k in (3, 5):
            for f in (Fraction(0), Fraction(3, 5)):
                a = build_assignment(k, f)
                for p in (0.2, 0.5, 0.8):
                    assert exact_expected_dof(k, p, a) == pytest.approx(
                        per_pattern_expected_dof(k, p, a, optimal_zero_forcing_dof),
                        abs=1e-12,
                    )

    def test_deactivation_noop_for_k5_family(self):
        # transmitter 5 is unused by this assignment
        a = build_assignment(5, Fraction(3, 5))
        assert exact_expected_dof(5, 0.5, a, deactivate_last=True) == pytest.approx(
            EXACT_K5_F35_P05, abs=1e-12
        )

    def test_limits_enforced(self):
        a = build_assignment(5, Fraction(3, 5))
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(ValueError, match="erasure probability"):
                exact_expected_dof(5, p, a)
        with pytest.raises(ValueError, match="assignment has k=5"):
            exact_expected_dof(6, 0.5, a)

    def test_network_size_bounded(self):
        k = MAX_EXACT_K + 1
        with pytest.raises(ValueError, match=f"k at most {MAX_EXACT_K}, got k={k}"):
            exact_expected_dof(k, 0.5, build_assignment(k, Fraction(1, 2)))
