import math
import random

import pytest

from zsindex import (
    ContentNotOne,
    NormalForm,
    NotLength4,
    NotMinimalZeroSum,
    RULE_ONE_SIDED,
    RULE_SUM_N,
    Sequence,
    TrivialContent,
    UnbalancedSplit,
    Witness,
    apply_unit,
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
    naive_minimal_enumeration,
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
        assert w.m == 24  # the least unit whose transformed sum is 35
        assert verify_witness(seq(35, (2, 3, 31, 34)), w)

    def test_no_hit_on_balanced_high_index_orbit(self):
        assert one_sided_witness(seq(10, (2, 5, 6, 7))) is None

    def test_hit_without_witness_returns_none(self):
        # (4,5,6,13)/14 is one-sided at m=1 but has index 2
        assert one_sided_witness(seq(14, (4, 5, 6, 13))) is None

    def test_matches_naive_scan_on_every_minimal_quadruple(self):
        for n in range(2, 41):
            naive = naive_units(n)
            for s in enumerate_minimal(factorize(n)):
                w = one_sided_witness(s)
                certifying = [m for m in naive if naive_transform_sum(s.terms, n, m) == n]
                if not certifying:
                    assert w is None, (s.terms, n)
                    continue
                assert w is not None and w.m == certifying[0], (s.terms, n)
                assert w.rule == RULE_ONE_SIDED and verify_witness(s, w)

    def test_a_certifying_image_has_at_most_one_upper_term(self):
        # Two transformed terms v with 2v >= n already sum to n, so an image
        # summing to n is one-sided: one_sided_witness needs no predicate.
        images = 0
        for n in range(2, 41):
            naive = naive_units(n)
            for terms in naive_minimal_enumeration(n, 4):
                for m in naive:
                    if naive_transform_sum(terms, n, m) != n:
                        continue
                    images += 1
                    upper = [t for t in terms if 2 * ((m * t) % n or n) >= n]
                    assert len(upper) <= 1, (terms, n, m)
        assert images > 0


class TestToNormalForm:
    def test_worked_complement_case(self):
        nf = to_normal_form(seq(35, (2, 3, 31, 34)))
        assert isinstance(nf, NormalForm)
        assert (nf.e, nf.a, nf.b, nf.c) == (1, 2, 3, 4)
        assert nf.unit == 34 and nf.steps == ("complement",)
        assert nf.represented_terms() == (1, 4, 32, 33)

    def test_sum_n_is_immediate_witness(self):
        w = to_normal_form(seq(25, (1, 1, 1, 22)))
        assert isinstance(w, Witness)
        assert w.rule == RULE_SUM_N and w.m == 1

    def test_lopsided_split_resolved_by_unit_search(self):
        w = to_normal_form(seq(5, (4, 2, 2, 2)))
        assert isinstance(w, Witness) and w.m == 3 and w.rule == RULE_ONE_SIDED

    def test_no_complement_when_outer_pair_is_small(self):
        nf = to_normal_form(seq(9, (1, 4, 6, 7)))
        assert isinstance(nf, NormalForm)
        assert (nf.e, nf.a, nf.b, nf.c) == (1, 2, 3, 4)
        assert nf.unit == 1 and nf.steps == ()

    def test_lopsided_high_index_normalizes_through_another_unit(self):
        nf = to_normal_form(seq(14, (4, 5, 6, 13)))
        assert isinstance(nf, NormalForm)
        assert nf.unit == 3 and nf.steps == ("mul:3",)
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

    def test_move_reaches_the_represented_sequence(self):
        forms = 0
        for n in range(2, 41):
            for s in enumerate_minimal(factorize(n)):
                if content(s) != 1:
                    continue
                try:
                    nf = to_normal_form(s)
                except UnbalancedSplit:
                    continue
                if isinstance(nf, Witness):
                    continue
                forms += 1
                assert apply_unit(s, nf.unit).terms == nf.represented_terms(), (s, nf)
                # the unit each allowed step list names; a complement
                # multiplies the unit by n - 1
                names = {
                    (): 1,
                    ("complement",): n - 1,
                    (f"mul:{nf.unit}",): nf.unit,
                    (f"mul:{n - nf.unit}", "complement"): nf.unit,
                }
                assert names.get(nf.steps) == nf.unit, (s, nf)
        assert forms > 0

    def test_sum_3n_is_one_sided_at_the_least_certifying_unit(self):
        # The complement n - 1 always sums to n, so every such input is
        # certified, and most at a smaller unit.
        seen = below = 0
        for n in range(2, 41):
            naive = naive_units(n)
            for s in enumerate_minimal(factorize(n)):
                if sum(s.terms) != 3 * n or content(s) != 1:
                    continue
                seen += 1
                w = to_normal_form(s)
                least = next(m for m in naive if naive_transform_sum(s.terms, n, m) == n)
                assert isinstance(w, Witness), s
                assert (w.rule, w.m) == (RULE_ONE_SIDED, least), (s, w)
                assert verify_witness(s, w)
                below += least < n - 1
        assert (seen, below) == (4665, 4402)

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
                nf = to_normal_form(s)
            except UnbalancedSplit:
                # must be genuinely impossible: no witness, no splitting unit
                for m in naive_units(n):
                    assert naive_transform_sum(terms, n, m) != n
                continue
            if isinstance(nf, Witness):
                assert verify_witness(s, nf)
            else:
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
