import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsindex import (
    NotAUnit,
    Sequence,
    apply_unit,
    factorize,
    is_minimal_zero_sum,
    is_zero_sum,
    sequence_index,
)
from zsindex.residues import units
from zsindex.sequences import min_transform_sum

from oracles import naive_index, naive_is_minimal, naive_transform_sum, naive_units


def seq(n, terms):
    return Sequence.over(n, terms)


def norm_at(s, m):
    """(sum of |m*t|_n over the terms) / n, through the scan kernel at one unit."""
    total, _ = min_transform_sum(s.terms, s.n, (m,))
    return Fraction(total, s.n)


class TestSequenceType:
    def test_terms_are_sorted_canonically(self):
        assert seq(35, (31, 2, 34, 3)).terms == (2, 3, 31, 34)

    def test_rejects_out_of_range_terms(self):
        with pytest.raises(ValueError):
            seq(10, (0, 1))
        with pytest.raises(ValueError):
            seq(10, (1, 11))

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", [-3, 0, 11, 25])
    def test_out_of_range_term_at_each_position(self, position, bad):
        # Only the sorted extremes are checked; wherever the bad term sits
        # in the input, sorting moves it to one of them.
        terms = [3, 10, 1, 7]
        assert seq(10, terms).terms == (1, 3, 7, 10)
        terms[position] = bad
        with pytest.raises(ValueError, match=f"term {bad} outside"):
            seq(10, terms)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            seq(10, ())


class TestZeroSum:
    def test_sum_n(self):
        assert is_zero_sum(seq(5, (1, 1, 1, 2)))

    def test_sum_2n(self):
        assert is_zero_sum(seq(10, (2, 5, 6, 7)))

    def test_not_zero_sum(self):
        assert not is_zero_sum(seq(7, (1, 2, 3)))


class TestMinimality:
    def test_minimal_quadruple(self):
        assert is_minimal_zero_sum(seq(35, (2, 3, 31, 34)))

    def test_zero_sum_pair_breaks_minimality(self):
        assert not is_minimal_zero_sum(seq(10, (2, 4, 6, 8)))  # 2 + 8 = 10

    def test_zero_sum_pair_at_n(self):
        assert not is_minimal_zero_sum(seq(35, (5, 30, 21, 14)))  # 5 + 30 = 35

    def test_zero_element_alone_is_minimal(self):
        assert is_minimal_zero_sum(seq(7, (7,)))

    def test_zero_element_in_longer_sequence_is_not(self):
        assert not is_minimal_zero_sum(seq(7, (7, 3, 4)))

    def test_agrees_with_oracle_small(self):
        # The check skips the subsets holding the last term; this covers
        # every length it is used at, zero terms included.
        for n in range(2, 15):
            for k in range(1, 7):
                for combo in combinations_with_replacement(range(1, n + 1), k):
                    assert is_minimal_zero_sum(seq(n, combo)) == naive_is_minimal(combo, n), (
                        combo, n,
                    )

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 30), st.data())
    def test_agrees_with_oracle_on_longer_lengths(self, n, data):
        # Lengths 7 to 12, with the last term closing the sum to 0 so that
        # most draws reach the subset walk.
        k = data.draw(st.integers(7, 12))
        head = data.draw(st.lists(st.integers(1, n), min_size=k - 1, max_size=k - 1))
        combo = (*head, -sum(head) % n or n)
        assert is_minimal_zero_sum(seq(n, combo)) == naive_is_minimal(combo, n), (combo, n)

    def test_long_sequences(self):
        # 2^39 subsets of the first 39 terms, but at most 40 residues they reach.
        assert is_minimal_zero_sum(seq(40, (1,) * 40))
        assert is_minimal_zero_sum(seq(40, (1,) * 37 + (3,)))
        assert not is_minimal_zero_sum(seq(40, (1,) * 36 + (6, 38)))  # 1 + 1 + 38 = 40
        assert not is_minimal_zero_sum(seq(41, (1,) * 40 + (2, 40)))  # 1 + 40 = 41


class TestApplyUnit:
    def test_worked_example(self):
        assert apply_unit(seq(35, (2, 3, 31, 34)), 24).terms == (2, 9, 11, 13)

    def test_identity(self):
        s = seq(10, (2, 5, 6, 7))
        assert apply_unit(s, 1).terms == s.terms

    def test_complement_style_unit(self):
        assert apply_unit(seq(10, (2, 5, 6, 7)), 9).terms == (3, 4, 5, 8)

    def test_rejects_non_unit(self):
        with pytest.raises(NotAUnit):
            apply_unit(seq(10, (1, 2)), 5)

    @given(st.integers(2, 100), st.data())
    def test_preserves_zero_sum_and_minimality(self, n, data):
        terms = tuple(
            data.draw(st.integers(1, n - 1)) for _ in range(4)
        )
        s = seq(n, terms)
        units = [m for m in range(1, n) if math.gcd(m, n) == 1]
        m = data.draw(st.sampled_from(units))
        t = apply_unit(s, m)
        assert is_zero_sum(s) == is_zero_sum(t)
        assert is_minimal_zero_sum(s) == is_minimal_zero_sum(t)


class TestNormUnder:
    def test_identity_norm_is_plain_sum(self):
        assert norm_at(seq(35, (2, 3, 31, 34)), 1) == Fraction(70, 35) == 2

    def test_witness_norm(self):
        assert norm_at(seq(35, (2, 3, 31, 34)), 24) == 1

    def test_triple_norm(self):
        assert norm_at(seq(35, (2, 3, 31, 34)), 9) == 3

    def test_non_zero_sum_is_fractional(self):
        assert norm_at(seq(7, (1, 2, 3)), 1) == Fraction(6, 7)


class TestIndex:
    def test_sum_n_gives_index_one_at_unit_one(self):
        result = sequence_index(seq(25, (1, 1, 1, 22)))
        assert result.value == 1 and result.argmin_unit == 1

    def test_high_index_example(self):
        result = sequence_index(seq(10, (2, 5, 6, 7)))
        assert result.value == 2
        assert result.numerator == 20 and result.denominator == 10

    def test_worked_argmin(self):
        result = sequence_index(seq(35, (2, 3, 31, 34)))
        assert result.value == 1 and result.argmin_unit == 24

    def test_non_zero_sum_index_is_fraction(self):
        result = sequence_index(seq(7, (1, 2, 3)))
        assert result.value == Fraction(6, 7)
        assert result.value.denominator != 1

    def test_integrality_iff_zero_sum_exhaustive(self):
        for n in (5, 7):
            for combo in combinations_with_replacement(range(1, n + 1), 4):
                s = seq(n, combo)
                assert (sequence_index(s).value.denominator == 1) == is_zero_sum(s)

    def test_range_of_zero_sum_quadruple_index(self):
        # no term equal to n: each transform stays in [1, n-1], so the sum
        # is a multiple of n strictly inside (0, 4n)
        for n in (9, 10, 14):
            for combo in combinations_with_replacement(range(1, n), 4):
                if sum(combo) % n == 0:
                    assert sequence_index(seq(n, combo)).value in (1, 2, 3)

    @given(st.integers(2, 100), st.data())
    @settings(max_examples=60)
    def test_unit_orbit_invariance(self, n, data):
        terms = tuple(data.draw(st.integers(1, n)) for _ in range(4))
        s = seq(n, terms)
        units = [m for m in range(1, n) if math.gcd(m, n) == 1]
        m = data.draw(st.sampled_from(units))
        assert sequence_index(apply_unit(s, m)).value == sequence_index(s).value

    @given(st.integers(2, 60), st.data())
    @settings(max_examples=40)
    def test_matches_naive_oracle(self, n, data):
        terms = tuple(data.draw(st.integers(1, n)) for _ in range(4))
        s = seq(n, terms)
        expected_value, expected_m = naive_index(s.terms, n)
        result = sequence_index(s)
        assert result.value == expected_value
        assert result.argmin_unit == expected_m

    def test_kernel_matches_oracle_exhaustive(self):
        # Every sorted k-multiset over [1, n], zero term included.
        for n in range(2, 17):
            unit_list = units(factorize(n))
            naive = naive_units(n)
            for k in range(1, 6):
                for combo in combinations_with_replacement(range(1, n + 1), k):
                    expected_value, expected_m = naive_index(combo, n)
                    total, m = min_transform_sum(combo, n, unit_list)
                    assert (Fraction(total, n), m) == (expected_value, expected_m), (combo, n)
                    hits = [u for u in naive if naive_transform_sum(combo, n, u) == n]
                    stopped = min_transform_sum(combo, n, unit_list, stop_at=n)
                    if hits:
                        assert stopped == (n, hits[0]), (combo, n)
                    else:
                        assert stopped == (total, m), (combo, n)

    def test_short_minimal_sequences_have_index_one(self):
        from zsindex import enumerate_minimal, factorize

        for n in range(2, 31):
            group = factorize(n)
            for k in (2, 3):
                for s in enumerate_minimal(group, k):
                    assert sequence_index(s).value == 1
