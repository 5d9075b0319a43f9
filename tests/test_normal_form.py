import math
import random

import pytest

from zsindex import (
    ContentNotOne,
    NormalForm,
    NotLength4,
    NotMinimalZeroSum,
    RULE_ONE_SIDED,
    RULE_SUM_3N,
    RULE_SUM_N,
    Sequence,
    TrivialContent,
    UnbalancedSplit,
    content,
    enumerate_minimal,
    factorize,
    one_sided_witness,
    reduce_by_content,
    to_normal_form,
    verify_witness,
)

from oracles import (
    naive_index,
    naive_is_minimal,
    naive_transform_sum,
    naive_units,
)


def seq(n, terms):
    return Sequence.over(n, terms)


class TestContent:
    def test_shared_factor(self):
        assert content(seq(25, (5, 15, 15, 15))) == 5

    def test_coprime_term_forces_one(self):
        assert content(seq(35, (2, 3, 31, 34))) == 1

    def test_all_multiples(self):
        assert content(seq(35, (7, 14, 21, 28))) == 7


class TestReduceByContent:
    def test_prime_power_modulus(self):
        reduced = reduce_by_content(seq(25, (5, 15, 15, 15)))
        assert reduced.n == 5 and reduced.terms == (1, 3, 3, 3)

    def test_two_prime_modulus(self):
        reduced = reduce_by_content(seq(35, (7, 14, 21, 28)))
        assert reduced.n == 5 and reduced.terms == (1, 2, 3, 4)

    def test_even_modulus(self):
        reduced = reduce_by_content(seq(50, (10, 20, 30, 40)))
        assert reduced.n == 5 and reduced.terms == (1, 2, 3, 4)

    def test_trivial_content_rejected(self):
        with pytest.raises(TrivialContent):
            reduce_by_content(seq(35, (2, 3, 31, 34)))

    def test_preserves_minimality_and_index(self):
        rng = random.Random(7)
        checked = 0
        while checked < 40:
            n_small = rng.randint(3, 40)
            u = rng.choice((2, 3, 5))
            n = n_small * u
            terms = tuple(sorted(rng.randint(1, n_small - 1) for _ in range(3)))
            last = -sum(terms) % n_small
            if last == 0 or last < terms[-1]:
                continue
            small = terms + (last,)
            if not naive_is_minimal(small, n_small):
                continue
            g = n_small
            for t in small:
                g = math.gcd(g, t)
            if g != 1:
                continue  # scaling must introduce exactly the factor u
            big = seq(n, tuple(t * u for t in small))
            reduced = reduce_by_content(big)
            assert reduced.terms == small and reduced.n == n_small
            assert naive_is_minimal(big.terms, n)
            assert naive_index(big.terms, n)[0] == naive_index(small, n_small)[0]
            checked += 1


class TestOneSided:
    def test_hit_is_converted_to_direct_witness(self):
        w = one_sided_witness(seq(35, (2, 3, 31, 34)))
        assert w is not None and w.rule == RULE_ONE_SIDED
        assert w.m == 26  # first one-sided unit is 9; 35 - 9 certifies
        assert verify_witness(seq(35, (2, 3, 31, 34)), w)

    def test_no_hit_on_balanced_high_index_orbit(self):
        assert one_sided_witness(seq(10, (2, 5, 6, 7))) is None

    def test_hit_without_witness_returns_none(self):
        # (4,5,6,13)/14 is one-sided at m=1 but has index 2
        assert one_sided_witness(seq(14, (4, 5, 6, 13))) is None

    def test_matches_naive_scan_on_every_minimal_quadruple(self):
        def one_sided(terms, n, m):
            images = [(m * t) % n or n for t in terms]
            low = sum(1 for v in images if 2 * v <= n)
            high = sum(1 for v in images if 2 * v >= n)
            return low <= 1 or high <= 1

        for n in range(2, 41):
            naive = naive_units(n)
            for s in enumerate_minimal(factorize(n)):
                w = one_sided_witness(s)
                hits = [m for m in naive if one_sided(s.terms, n, m)]
                if not hits:
                    assert w is None, (s.terms, n)
                    continue
                certifying = [m for m in naive if naive_transform_sum(s.terms, n, m) == n]
                preferred = [m for m in (hits[0], n - hits[0]) if m in certifying]
                expected = (preferred or certifying or [None])[0]
                assert (w.m if w else None) == expected, (s.terms, n)
                if w is not None:
                    assert w.rule == RULE_ONE_SIDED and verify_witness(s, w)


class TestToNormalForm:
    def test_worked_complement_case(self):
        outcome = to_normal_form(seq(35, (2, 3, 31, 34)))
        nf = outcome.normal_form
        assert nf is not None
        assert (nf.e, nf.a, nf.b, nf.c) == (1, 2, 3, 4)
        assert outcome.trail.multipliers == (34,) and outcome.trail.complemented
        assert nf.represented_terms() == (1, 4, 32, 33)

    def test_sum_n_is_immediate_witness(self):
        outcome = to_normal_form(seq(25, (1, 1, 1, 22)))
        assert outcome.witness is not None
        assert outcome.witness.rule == RULE_SUM_N and outcome.witness.m == 1

    def test_sum_3n_uses_complement(self):
        outcome = to_normal_form(seq(5, (4, 4, 4, 3)))
        assert outcome.witness is not None
        assert outcome.witness.rule == RULE_SUM_3N and outcome.witness.m == 4

    def test_lopsided_split_resolved_by_unit_search(self):
        outcome = to_normal_form(seq(5, (4, 2, 2, 2)))
        w = outcome.witness
        assert w is not None and w.m == 3 and w.rule == RULE_ONE_SIDED

    def test_no_complement_when_outer_pair_is_small(self):
        outcome = to_normal_form(seq(9, (1, 4, 6, 7)))
        nf = outcome.normal_form
        assert nf is not None
        assert (nf.e, nf.a, nf.b, nf.c) == (1, 2, 3, 4)
        assert outcome.trail.multipliers == ()

    def test_lopsided_high_index_normalizes_through_another_unit(self):
        outcome = to_normal_form(seq(14, (4, 5, 6, 13)))
        nf = outcome.normal_form
        assert nf is not None
        assert outcome.trail.multipliers == (3,)
        assert (nf.e, nf.a, nf.b, nf.c) == (1, 2, 3, 4)

    def test_fence_term_cannot_split(self):
        with pytest.raises(UnbalancedSplit):
            to_normal_form(seq(10, (1, 5, 6, 8)))

    def test_validation_errors(self):
        with pytest.raises(NotLength4):
            to_normal_form(seq(10, (1, 9)))
        with pytest.raises(NotMinimalZeroSum):
            to_normal_form(seq(10, (2, 4, 6, 8)))
        with pytest.raises(ContentNotOne):
            to_normal_form(seq(25, (5, 15, 15, 15)))

    def test_trail_replay_reproduces_represented_sequence(self):
        for n, terms in ((35, (2, 3, 31, 34)), (9, (1, 4, 6, 7)), (14, (4, 5, 6, 13))):
            s = seq(n, terms)
            outcome = to_normal_form(s)
            assert outcome.normal_form is not None
            replayed = outcome.trail.replay(s)
            assert replayed.terms == outcome.normal_form.represented_terms()

    def test_outcome_soundness_random(self):
        rng = random.Random(20260810)
        checked = 0
        while checked < 300:
            n = rng.randint(7, 80)
            base = tuple(sorted(rng.randint(1, n - 1) for _ in range(3)))
            last = -sum(base) % n
            if last == 0:
                continue
            terms = tuple(sorted(base + (last,)))
            if not naive_is_minimal(terms, n):
                continue
            s = seq(n, terms)
            if content(s) != 1:
                continue
            checked += 1
            try:
                outcome = to_normal_form(s)
            except UnbalancedSplit:
                # must be genuinely impossible: no witness, no splitting unit
                for m in naive_units(n):
                    assert naive_transform_sum(terms, n, m) != n
                continue
            if outcome.witness is not None:
                assert verify_witness(s, outcome.witness)
            else:
                nf = outcome.normal_form
                rep = nf.represented_terms()
                assert nf.e + nf.c == nf.a + nf.b
                assert nf.e < nf.a <= nf.b < nf.c and 2 * nf.c < n
                assert sum(rep) == 2 * n
                assert naive_is_minimal(rep, n)
                assert naive_index(rep, n)[0] == naive_index(terms, n)[0]


class TestNormalFormType:
    def test_invariant_violations_rejected(self):
        group = factorize(35)
        with pytest.raises(ValueError):
            NormalForm(group, e=2, a=2, b=3, c=3)  # e not < a
        with pytest.raises(ValueError):
            NormalForm(group, e=1, a=2, b=3, c=5)  # e + c != a + b
        with pytest.raises(ValueError):
            NormalForm(group, e=10, a=12, b=16, c=18)  # c >= n/2

    def test_represented_sequence_is_minimal_sum_2n(self):
        nf = NormalForm(factorize(35), e=1, a=5, b=5, c=9)
        rep = nf.represented_terms()
        assert sum(rep) == 70
        assert naive_is_minimal(rep, 35)
