import re
from fractions import Fraction

import numpy as np
import pytest

from lindof.assignment import (
    MessageAssignment,
    build_assignment,
    random_assignment,
    remove_transmitter,
)
from lindof.network import (
    NetworkRealization,
    all_realizations,
    attach_generic_coefficients,
    derive_seed,
    parse_realization,
    partition_into_clusters,
    sample_realization,
)
from lindof.scheduler import (
    LINE_START,
    Schedule,
    build_transmit_signals,
    decision_pass,
    schedule_network,
    verify_zero_forcing,
)
import reference
from reference import restrict_to_cluster, schedule_cluster


def random_case(t, max_k=20):
    rng = np.random.default_rng(derive_seed(2024, t))
    k = int(rng.integers(1, max_k + 1))
    p = float(rng.random())
    r = sample_realization(k, p, derive_seed(4048, t))
    a = random_assignment(k, rng)
    return r, a


class TestScheduleCluster:
    def test_k5_helper_family_trace(self):
        a = build_assignment(5, Fraction(3, 5))
        s = schedule_cluster(5, (True,) * 5, a.transmit_sets)
        assert s.entries == frozenset({(1, 1), (1, 2), (2, 2), (4, 3), (5, 3), (5, 4)})
        assert s.delivered == frozenset({1, 2, 4, 5})

    def test_single_user(self):
        s = schedule_cluster(1, (True,), (frozenset({1}),))
        assert s.delivered == frozenset({1})

    def test_cross_delivery_when_first_direct_dead(self):
        s = schedule_cluster(
            2, (False, True), (frozenset({1, 2}), frozenset({1, 2}))
        )
        assert (2, 1) in s.entries
        assert s.delivered == frozenset({2})

    def test_rejects_malformed_sets(self):
        with pytest.raises(ValueError):
            schedule_cluster(2, (True, True), (frozenset({1, 2, 3}),) * 2)
        with pytest.raises(ValueError):
            schedule_cluster(2, (True, True), (frozenset({3}),) * 2)
        with pytest.raises(ValueError):
            schedule_cluster(2, (True,), (frozenset(),) * 2)


class TestScheduleNetwork:
    def test_two_cluster_trace(self):
        r = NetworkRealization(6, (True,) * 6, (True, True, False, True, True))
        s = schedule_network(r, build_assignment(6, 0))
        assert s.delivered == frozenset({1, 2, 4, 6})
        assert len(s.delivered) == 4

    def test_all_links_absent(self):
        r = NetworkRealization(4, (False,) * 4, (False,) * 3)
        s = schedule_network(r, build_assignment(4, 0))
        assert s.delivered == frozenset()

    def test_equals_union_of_cluster_passes(self):
        # Each cluster scheduled on its own, in local indices, then shifted
        # back by c.start - 1: the union is the whole scan's entries and
        # delivered set, entry by entry, not only in count.
        split = 0
        for t in range(600):
            r, a = random_case(t, max_k=15)
            family = [a]
            if r.k >= 3:
                family += [build_assignment(r.k, 0), build_assignment(r.k, Fraction(3, 5))]
            clusters = partition_into_clusters(r)
            split += len(clusters) > 1
            for a in family:
                entries, delivered = set(), set()
                for c in clusters:
                    off = c.start - 1
                    local = restrict_to_cluster(a, c).transmit_sets
                    part = schedule_cluster(c.size, r.direct[off : c.end], local)
                    entries |= {(i + off, j + off) for i, j in part.entries}
                    delivered |= {i + off for i in part.delivered}
                s = schedule_network(r, a)
                assert (s.entries, s.delivered) == (entries, delivered)
        assert split > 300  # most cases have an erased cross link

    def test_size_mismatch_rejected(self):
        r = parse_realization("4;1111;111")
        with pytest.raises(ValueError):
            schedule_network(r, build_assignment(5, 0))


class TestDecisionPassCount:
    def test_count_matches_schedule_network(self):
        # The pass's count of users equals the size of the delivered set
        # that schedule_network builds from its lists, on every pattern.
        # Stepped one user per call it counts the same, and each state
        # names no transmit set: it is (i, own1, cancel1, busy1, busy2, near).
        for k in range(1, 7):
            rng = np.random.default_rng(derive_seed(62, k))
            family = [random_assignment(k, rng) for _ in range(4)]
            if k >= 3:
                family += [build_assignment(k, 0), build_assignment(k, Fraction(3, 5))]
            family += [remove_transmitter(a, k) for a in family]
            for r in all_realizations(k):
                links = (False, *r.cross)
                for a in family:
                    count = len(decision_pass(r.direct, links, a.shape)[0])
                    assert count == len(schedule_network(r, a).delivered)
                    total, state = 0, LINE_START
                    for i, (d0, link, code) in enumerate(zip(r.direct, links, a.shape), start=1):
                        users, _, state = decision_pass((d0,), (link,), (code,), state)
                        total += len(users)
                        assert tuple(map(type, state)) == (int, bool, bool, bool, bool, bool)
                        assert state[0] == i
                    assert total == count


class TestShapeDecides:
    def test_equal_shapes_schedule_alike(self):
        # The pass reads only the shape, so moving a transmitter that lies
        # outside i-2..i+1 within T_i, or dropping it, changes no schedule.
        compared = 0
        for k in range(1, 6):
            rng = np.random.default_rng(derive_seed(26, k))
            for _ in range(30):
                a = random_assignment(k, rng)
                sets = []
                for i, ts in enumerate(a.transmit_sets, start=1):
                    far = set(range(1, k + 1)) - set(range(i - 2, i + 2))
                    kept = {t for t in ts if t not in far}
                    moved = [int(rng.choice(sorted(far - ts))) for _ in ts & far if far - ts]
                    sets.append(frozenset(kept.union(moved)))
                b = MessageAssignment(k, tuple(sets))
                if b == a:
                    continue
                assert b.shape == a.shape
                compared += 1
                for r in all_realizations(k):
                    assert schedule_network(r, b) == schedule_network(r, a)
        assert compared >= 40


class TestResumedDecisionPass:
    def test_user_by_user_equals_one_pass(self):
        # One-user calls, each resuming from the state the last returned,
        # concatenate to the same users and entries, count and final state
        # as one uninterrupted scan.
        for t in range(300):
            r, a = random_case(t)
            links = (False, *r.cross)
            users, entries, end = decision_pass(r.direct, links, a.shape)
            count = len(users)
            steps = ([], [])
            total, state = 0, LINE_START
            for d0, link, code in zip(r.direct, links, a.shape):
                got, sent, state = decision_pass((d0,), (link,), (code,), state)
                steps[0].extend(got)
                steps[1].extend(sent)
                total += len(got)
            assert steps == (users, entries)
            assert (total, state) == (count, end)
            assert count == len(schedule_network(r, a).delivered)


class TestScheduleInvariants:
    N_CASES = 600

    def test_structural_invariants_hold(self):
        for t in range(self.N_CASES):
            r, a = random_case(t)
            s = schedule_network(r, a)
            for i, j in s.entries:
                assert j in a.transmit_sets[i - 1]
                assert i - 2 <= j <= i + 1
                assert 1 <= j <= r.k
            for i in range(1, r.k + 1):
                assert not (s.b(i, i - 1) and s.b(i, i))
                if s.b(i, i - 2):
                    assert s.b(i, i - 1)
                if s.b(i, i + 1):
                    assert s.b(i, i) and s.b(i + 1, i + 1)
            assert s.delivered == frozenset(
                i for i in range(1, r.k + 1) if s.b(i, i - 1) or s.b(i, i)
            )

    def test_cluster_additivity(self):
        for t in range(self.N_CASES):
            r, a = random_case(t)
            s = schedule_network(r, a)
            total = 0
            for c in partition_into_clusters(r):
                local = restrict_to_cluster(a, c)
                local_s = schedule_cluster(c.size, r.direct[c.start - 1 : c.end], local.transmit_sets)
                total += len(local_s.delivered)
            assert len(s.delivered) == total

    def test_prefix_stability(self):
        rng = np.random.default_rng(99)
        for t in range(self.N_CASES):
            n = int(rng.integers(1, 15))
            direct = tuple(bool(b) for b in rng.integers(0, 2, size=n))
            tsets = random_assignment(n, rng).transmit_sets
            m = int(rng.integers(1, n + 1))
            full = schedule_cluster(n, direct, tsets)
            prefix_sets = tuple(frozenset(x for x in ts if x <= m) for ts in tsets[:m])
            pref = schedule_cluster(m, direct[:m], prefix_sets)
            cutoff = m - 2
            assert {e for e in full.entries if e[0] <= cutoff} == {
                e for e in pref.entries if e[0] <= cutoff
            }


class TestBeamforming:
    def _k5_setup(self):
        a = build_assignment(5, Fraction(3, 5))
        r = parse_realization("5;11111;1111")
        gains = attach_generic_coefficients(r, 17)
        s = schedule_network(r, a)
        return gains, s, build_transmit_signals(s, gains)

    def test_k5_weights(self):
        (direct_gain, cross_gain), s, plan = self._k5_setup()
        assert plan[0] == {1: 1 + 0j}
        tx2 = plan[1]
        assert tx2[2] == 1 + 0j
        assert tx2[1] == -cross_gain[0] / direct_gain[1]
        tx3 = plan[2]
        assert tx3[4] == 1 + 0j
        assert tx3[5] == -direct_gain[3] / cross_gain[2]
        assert plan[3] == {5: 1 + 0j}
        assert plan[4] == {}

    def test_empty_schedule_all_silent(self):
        r = parse_realization("3;000;00")
        s = schedule_network(r, build_assignment(3, 0))
        plan = build_transmit_signals(s, attach_generic_coefficients(r, 1))
        assert plan == ({}, {}, {})

    def test_single_entry(self):
        gains = attach_generic_coefficients(parse_realization("3;100;00"), 1)
        s = Schedule(3, frozenset({(1, 1)}), frozenset({1}))
        plan = build_transmit_signals(s, gains)
        assert plan[0] == {1: 1 + 0j}
        assert plan[1] == {} and plan[2] == {}

    def test_requires_gains(self):
        # a bare realization cannot be unpacked as a gain pair
        r = parse_realization("3;111;11")
        s = schedule_network(r, build_assignment(3, 0))
        with pytest.raises(TypeError):
            build_transmit_signals(s, r)
        plan = build_transmit_signals(s, attach_generic_coefficients(r, 1))
        with pytest.raises(TypeError):
            verify_zero_forcing(plan, s, r)

    @pytest.mark.parametrize("entry", [(0, 1), (4, 3), (5, 3), (1, 3)])
    def test_entry_outside_the_line_or_reach_is_rejected(self, entry):
        # (0, 1) once read cross link 0 as cross[-1], (4, 3) weighted a
        # message the line lacks, (5, 3) and (1, 3) were dropped silently
        gains = attach_generic_coefficients(parse_realization("3;111;11"), 1)
        s = Schedule(3, frozenset({(1, 1), entry}), frozenset({1}))
        with pytest.raises(ValueError, match=re.escape(str(entry))):
            build_transmit_signals(s, gains)

    def test_cancellation_over_erased_link_is_invariant_violation(self):
        # hand-built schedule demanding a null through a dead link
        gains = attach_generic_coefficients(parse_realization("3;101;11"), 1)
        s = Schedule(3, frozenset({(2, 2), (1, 2)}), frozenset({2}))
        with pytest.raises(RuntimeError):
            build_transmit_signals(s, gains)


class TestVerifyZeroForcing:
    def test_scheduled_plans_pass(self):
        for t in range(300):
            r, a = random_case(t)
            gains = attach_generic_coefficients(r, derive_seed(5, t))
            s = schedule_network(r, a)
            plan = build_transmit_signals(s, gains)
            report = verify_zero_forcing(plan, s, gains)
            assert report.passed, report.failures

    def test_all_erased_vacuous_pass(self):
        r = parse_realization("4;0000;000")
        gains = attach_generic_coefficients(r, 2)
        s = schedule_network(r, build_assignment(4, 0))
        report = verify_zero_forcing(build_transmit_signals(s, gains), s, gains)
        assert report.passed and not report.checks

    def test_zeroed_delivery_weight_fails_with_receiver(self):
        a = build_assignment(5, Fraction(3, 5))
        r = parse_realization("5;11111;1111")
        gains = attach_generic_coefficients(r, 17)
        s = schedule_network(r, a)
        plan = build_transmit_signals(s, gains)
        broken = tuple(dict(w) for w in plan)
        broken[1][2] = 0j  # silence the delivery of message 2 at transmitter 2
        report = verify_zero_forcing(broken, s, gains)
        assert not report.passed
        assert any("receiver 2" in f for f in report.failures)

    @pytest.mark.parametrize("delivered", [{0, 1}, {3, 4}])
    def test_delivered_user_outside_the_line_is_rejected(self, delivered):
        gains = attach_generic_coefficients(parse_realization("3;111;11"), 1)
        s = Schedule(3, frozenset({(1, 1), (3, 3)}), frozenset(delivered))
        plan = build_transmit_signals(s, gains)
        bad = min(delivered) if min(delivered) < 1 else max(delivered)
        with pytest.raises(ValueError, match=f"delivered user {bad} lies outside 1..3"):
            verify_zero_forcing(plan, s, gains)


class TestAgainstReference:
    def test_plans_and_reports_equal_reference_on_every_pattern(self):
        # Random assignments for K=1..6, plus f=3/5 plain and f=0 with
        # the last transmitter removed from K=3. Each plan is checked
        # as built and with its cancellations dropped, so failing
        # reports are compared too.
        rng = np.random.default_rng(18)
        seed = failing = 0
        for k in range(1, 7):
            members = [random_assignment(k, rng) for _ in range(3)]
            if k >= 3:
                members += [
                    build_assignment(k, Fraction(3, 5)),
                    remove_transmitter(build_assignment(k, 0), k),
                ]
            for a in members:
                for r in all_realizations(k):
                    gains = attach_generic_coefficients(r, seed)
                    seed += 1
                    s = schedule_network(r, a)
                    plan = build_transmit_signals(s, gains)
                    assert plan == reference.build_transmit_signals(s, r, gains)
                    bare = tuple({m: w for m, w in ws.items() if w == 1} for ws in plan)
                    for p in (plan, bare):
                        report = verify_zero_forcing(p, s, gains)
                        assert report == reference.verify_zero_forcing(p, s, r, gains)
                        failing += not report.passed
        assert failing > 100
