import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zsindex import (
    GroupOrder,
    InvalidModulus,
    factorize,
    units,
)
from zsindex.residues import lift_table, reduce_value
from zsindex.witness import _unit_lift

from oracles import naive_units


class TestReduceMod:
    def test_negative_input(self):
        assert reduce_value(-3, 10) == 7

    def test_zero_element_maps_to_n(self):
        assert reduce_value(70, 35) == 35

    def test_long_division(self):
        # 744 - 21 * 35 = 9
        assert reduce_value(744, 35) == 9

    def test_exhaustive_window_and_congruence(self):
        for n in range(2, 101):
            for x in range(-10 * n, 10 * n + 1):
                r = reduce_value(x, n)
                assert 1 <= r <= n
                assert (r - x) % n == 0

    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9), st.integers(2, 500))
    def test_additivity(self, x, y, n):
        lhs = reduce_value(x + y, n)
        rhs = reduce_value(reduce_value(x, n) + reduce_value(y, n), n)
        assert lhs == rhs


class TestUnits:
    def test_units_of_10(self):
        assert list(units(factorize(10))) == [1, 3, 7, 9]

    def test_units_of_2(self):
        assert list(units(factorize(2))) == [1]

    def test_unit_count_is_totient(self):
        group = factorize(35)
        stream = list(units(group))
        assert len(stream) == 24
        assert stream == sorted(stream)

    def test_totient_matches_gcd_count(self):
        for n in range(2, 200):
            group = factorize(n)
            phi = 1
            for p, alpha in group.factors:
                phi *= (p - 1) * p ** (alpha - 1)
            assert len(units(group)) == phi == sum(
                1 for m in range(1, n + 1) if math.gcd(m, n) == 1
            )

    def test_closure_under_inverse_and_product(self):
        for n in (9, 10, 24, 35):
            group = factorize(n)
            members = set(units(group))
            for m in members:
                assert pow(m, -1, n) in members
                for other in members:
                    assert reduce_value(m * other, n) in members


class TestLiftTable:
    def test_matches_brute_force(self):
        for n in range(2, 61):
            gcds, lifts = lift_table(n)
            assert len(gcds) == len(lifts) == n
            units_n = naive_units(n)
            for t in range(1, n):
                d = math.gcd(t, n)
                assert gcds[t] == d, (n, t)
                assert lifts[t] == tuple(u for u in units_n if u * t % n == d), (n, t)
                assert lifts[t][0] == _unit_lift(pow(t // d, -1, n // d), n, n // d), (n, t)


class TestFactorize:
    def test_two_primes(self):
        assert factorize(35).factors == ((5, 1), (7, 1))

    def test_prime_squares(self):
        assert factorize(1225).factors == ((5, 2), (7, 2))

    def test_prime(self):
        assert factorize(7).factors == ((7, 1),)

    @pytest.mark.parametrize("bad", [1, 0, -5])
    def test_invalid_modulus(self, bad):
        with pytest.raises(InvalidModulus):
            factorize(bad)

    def test_round_trip_small_exhaustive(self):
        for n in range(2, 5001):
            group = factorize(n)
            product = 1
            for p, alpha in group.factors:
                product *= p**alpha
            assert product == n

    @given(st.integers(2, 10**6))
    def test_round_trip_sampled(self, n):
        group = factorize(n)
        product = 1
        previous = 1
        for p, alpha in group.factors:
            assert p > previous and alpha >= 1
            previous = p
            product *= p**alpha
        assert product == n


class TestGroupOrderValidation:
    def test_rejects_wrong_product(self):
        with pytest.raises(InvalidModulus):
            GroupOrder(10, ((2, 1), (3, 1)))

    def test_rejects_unordered_primes(self):
        with pytest.raises(InvalidModulus):
            GroupOrder(35, ((7, 1), (5, 1)))

    def test_rejects_small_modulus(self):
        with pytest.raises(InvalidModulus):
            GroupOrder(1, ())
