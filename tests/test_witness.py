import hashlib
import math
import random
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

from zsindex import (
    HighIndexEvidence,
    NormalForm,
    NotMinimalZeroSum,
    RULE_EXHAUSTIVE,
    RULE_INTERVAL,
    RULE_ONE_SIDED,
    RULE_SUM_N,
    RULE_TWO_OF_THREE,
    Sequence,
    Witness,
    apply_unit,
    candidate_multipliers,
    certify,
    compute_k1,
    compute_l,
    factorize,
    find_witness,
    interval_integers,
    interval_witness,
    one_sided_witness,
    orbit_canonical,
    two_of_three_witness,
    verify_witness,
)

from zsindex import witness
from zsindex.harness import (
    _least_image,
    _minimal_tuples,
    _orbit_members,
    _orbit_reps,
    _scan_block_impl,
)
from zsindex.witness import FIXED_CANDIDATES, _pipeline, _unit_lift

from oracles import (
    naive_index,
    naive_interval_members,
    naive_is_minimal,
    naive_k1,
    naive_l,
    naive_orbit_canonical,
    naive_orbit_reps,
    naive_transform_sum,
    naive_units,
)


def seq(n, terms):
    return Sequence.over(n, terms)


def nf(n, e, a, b, c):
    return NormalForm(factorize(n), e=e, a=a, b=b, c=c)


def random_normal_form(rng, n_max=2000):
    while True:
        n = rng.randint(12, n_max)
        c = rng.randint(3, (n - 1) // 2)
        b = rng.randint(2, c - 1)
        a_lo = max(2, c - b + 1)
        if a_lo > b:
            continue
        a = rng.randint(a_lo, b)
        e = a + b - c
        if e < 1:
            continue
        return NormalForm(factorize(n), e=e, a=a, b=b, c=c)


class TestIntervalIntegers:
    def test_wide_interval(self):
        assert list(interval_integers(1, nf(35, 1, 2, 3, 4))) == [9, 10, 11]

    def test_single_member(self):
        assert list(interval_integers(1, nf(35, 1, 2, 8, 9))) == [4]

    def test_empty_interval(self):
        assert list(interval_integers(2, nf(35, 1, 2, 15, 16))) == []

    def test_half_open_excludes_upper_bound(self):
        form = nf(40, 1, 3, 8, 10)
        assert list(interval_integers(1, form)) == [4]  # 5 = 40/8 is excluded half-open

    def test_exact_arithmetic_against_cross_multiplication(self):
        rng = random.Random(11)
        for _ in range(300):
            form = random_normal_form(rng, n_max=600)
            n, b, c = form.modulus.n, form.b, form.c
            for k in (1, 2, 3, 5):
                members = interval_integers(k, form)
                assert list(members) == naive_interval_members(k, n, b, c)
                for m in members:
                    assert k * n <= m * c and m * b < k * n


class TestK1:
    def test_alignment_resumes_at_four(self):
        assert compute_k1(nf(35, 1, 2, 15, 16)) == 4

    def test_blocked_at_two_by_ceiling_mismatch(self):
        assert compute_k1(nf(35, 1, 2, 3, 4)) == 1

    def test_blocked_at_two_narrow(self):
        assert compute_k1(nf(35, 1, 2, 8, 9)) == 1

    def test_matches_oracle_random(self):
        rng = random.Random(23)
        for _ in range(300):
            form = random_normal_form(rng, n_max=800)
            expected = naive_k1(form.modulus.n, form.b, form.c)
            assert expected is not None
            assert compute_k1(form) == expected


class TestL:
    def test_three_integers_at_six(self):
        assert compute_l(nf(35, 1, 2, 8, 9)) == 6

    def test_immediate(self):
        assert compute_l(nf(35, 1, 2, 3, 4)) == 1

    def test_narrow_interval_takes_sixteen(self):
        assert compute_l(nf(35, 1, 2, 15, 16)) == 16

    def test_matches_oracle_random(self):
        rng = random.Random(37)
        for _ in range(300):
            form = random_normal_form(rng, n_max=800)
            expected = naive_l(form.modulus.n, form.b, form.c)
            assert expected is not None
            assert compute_l(form) == expected


class TestIntervalDiagnostics:
    def test_fields_are_consistent(self):
        form = nf(35, 1, 2, 8, 9)
        assert compute_k1(form) == 1 and compute_l(form) == 6
        per = {k: list(interval_integers(k, form)) for k in range(1, 7)}
        assert per[1] == [4]
        assert per[6] == [24, 25, 26]
        assert all(len(per[k]) <= 2 for k in range(1, 6))


def on_represented(form):
    """A stage's arguments for a form built directly: its own represented
    sequence, which the form's unit 1 leaves in place."""
    return Sequence(form.modulus, form.represented_terms()), form


class TestIntervalWitness:
    def test_hit_on_worked_form(self):
        w = interval_witness(*on_represented(nf(35, 1, 2, 3, 4)))
        assert w is not None
        assert w.m == 9 and w.k == 1 and w.rule == RULE_INTERVAL
        rep = seq(35, (1, 4, 32, 33))
        assert verify_witness(rep, w)

    def test_skips_non_units(self):
        # 10 sits in the k=1 interval but shares a factor with 35
        w = interval_witness(*on_represented(nf(35, 1, 2, 3, 4)))
        assert w.m != 10

    def test_respects_ma_bound(self):
        w = interval_witness(*on_represented(nf(35, 1, 2, 3, 4)))
        assert w.m * 2 < 35


def test_every_admissible_interval_unit_certifies():
    # interval_witness returns its first unit probe, on the proof in its
    # docstring; here every probe it could make certifies: each unit m in
    # [kn/c, kn/b) with m*a < n, for every k <= b, of every normal form a
    # content-1 minimal quadruple over n <= 60 reaches.
    from zsindex.normal_form import _oriented_form

    forms = set()
    for n in range(2, 61):
        for terms in _minimal_tuples(n, 4):
            if math.gcd(n, *terms) == 1:
                form = _oriented_form(seq(n, terms))
                if isinstance(form, NormalForm):
                    forms.add((n, form.e, form.a, form.b, form.c))
    probes = 0
    for n, e, a, b, c in forms:
        represented = (e, c, n - b, n - a)
        for k in range(1, b + 1):
            for m in naive_interval_members(k, n, b, c):
                if m * a < n and math.gcd(m, n) == 1:
                    probes += 1
                    assert naive_transform_sum(represented, n, m) == n, (n, e, a, b, c, k, m)
    assert probes  # 22,112 probes over 27,486 forms


class TestTwoOfThree:
    def test_first_qualifying_multiplier(self):
        w = two_of_three_witness(*on_represented(nf(35, 1, 2, 3, 4)))
        assert w is not None
        assert w.m == 9 and w.rule == RULE_TWO_OF_THREE
        assert verify_witness(seq(35, (1, 4, 32, 33)), w)

    def test_search_bound_respects_leading_term(self):
        # e = 1 over n = 35 allows M up to 17; all searched M stay in range
        form = nf(35, 1, 2, 3, 4)
        w = two_of_three_witness(*on_represented(form))
        assert w is not None and w.m <= 17


@pytest.mark.parametrize("stage", [interval_witness, two_of_three_witness])
def test_form_stage_answers_for_its_input(stage):
    """A stage given an input s and its form nf certifies on s exactly what it
    certifies on the represented sequence, moved by nf.unit and named by
    nf.steps.  Normalization reaches a form at unit 1 or, through the
    complement, at n - 1; the input v^-1 * s, whose form is reached through
    the further move mul:v, checks a unit that is neither."""
    from zsindex import enumerate_minimal
    from zsindex.normal_form import _oriented_form

    seen = {1: 0, -1: 0}
    for n in range(2, 41):
        v = next((u for u in range(2, n - 1) if math.gcd(u, n) == 1), None)
        for s in enumerate_minimal(factorize(n), 4):
            if math.gcd(n, *s.terms) != 1:
                continue
            form = _oriented_form(s)
            if not isinstance(form, NormalForm):
                continue
            assert form.unit in (1, n - 1), (n, s.terms, form)
            seen[1 if form.unit == 1 else -1] += 1
            plain = NormalForm(form.modulus, form.e, form.a, form.b, form.c)
            on_rep = stage(*on_represented(plain))
            inputs = [(s, form)]
            if v is not None:
                moved = apply_unit(s, pow(v, -1, n))
                steps = (f"mul:{v}",) + form.steps
                inputs.append((moved, replace(form, unit=form.unit * v % n, steps=steps)))
            for source, source_form in inputs:
                on_input = stage(source, source_form)
                if on_rep is None:
                    assert on_input is None, (n, source.terms, on_input)
                    continue
                assert on_input is not None, (n, source.terms, on_rep)
                assert (on_input.rule, on_input.k) == (on_rep.rule, on_rep.k), (n, source.terms)
                assert on_input.m == on_rep.m * source_form.unit % n, (n, source.terms, on_input)
                assert on_input.trail == source_form.steps, (n, source.terms, on_input)
                assert verify_witness(source, on_input), (n, source.terms, on_input)
    assert seen[1] and seen[-1], seen


class TestCandidatePool:
    def test_interval_members_filtered_to_units(self):
        pool = candidate_multipliers(nf(35, 1, 2, 3, 4))
        values = [m for m, _ in pool]
        tags = dict(pool)
        assert 9 in values and tags[9] == "interval"
        assert 11 in values
        assert 10 not in values  # gcd(10, 35) = 5

    def test_fixed_constant_present_when_unit(self):
        pool = dict(candidate_multipliers(nf(45, 1, 2, 3, 4)))
        assert 28 in pool  # reachable via an interval here, but present
        narrow = dict(candidate_multipliers(nf(45, 1, 2, 20, 21)))
        assert narrow.get(28) == "const"
        pool35 = dict(candidate_multipliers(nf(35, 1, 2, 3, 4)))
        assert 28 not in pool35  # gcd(28, 35) = 7

    def test_no_duplicate_multipliers(self):
        pool = candidate_multipliers(nf(35, 1, 2, 3, 4))
        values = [m for m, _ in pool]
        assert len(values) == len(set(values))
        assert all(math.gcd(m, 35) == 1 and 1 <= m < 35 for m in values)

    def test_matches_naive_build_random(self):
        rng = random.Random(41)
        for _ in range(300):
            form = random_normal_form(rng, n_max=800)
            n, b, c = form.modulus.n, form.b, form.c
            sources = [
                (m, "interval")
                for k in range(1, max(7, naive_k1(n, b, c)) + 1)
                for m in naive_interval_members(k, n, b, c)
            ] + [(m, "const") for m in FIXED_CANDIDATES]
            expected = []
            for value, tag in sources:
                m = value % n or n
                if math.gcd(m, n) == 1 and m not in [x for x, _ in expected]:
                    expected.append((m, tag))
            assert candidate_multipliers(form) == expected, (n, form)


class TestLeadImage:
    """The image a sequence T takes its certificate from: its orbit's least
    member R, which leads with d = min gcd(t, n), reached by the least unit u
    with u*T = R.  A full sweep walks them with ``_orbit_members``, and the
    ``witness`` command finds them with ``_least_image``, one walk over the
    units."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_oracle_on_every_minimal_tuple(self, k):
        for n in range(2, 41):
            tuples = list(_minimal_tuples(n, k))
            rep_of = naive_orbit_reps(n, tuples)
            units = naive_units(n)
            members = {}
            for rep, fixed in _orbit_reps(n, k):
                walk = _orbit_members(rep, n, fixed)
                # R first, with u = 1, which a full sweep settles before the
                # rest; then the u ascend.
                assert walk[0] == (rep, 1), (n, rep)
                assert all(a[1] < b[1] for a, b in zip(walk, walk[1:])), (n, rep)
                for terms, u in walk:
                    assert terms not in members, (n, terms)
                    members[terms] = rep, u
            assert set(members) == set(tuples), n
            # The units m with m * T = R, for every member T of every orbit:
            # m * T = R exactly when m^-1 * R = T.
            carriers = {}
            for rep in set(rep_of.values()):
                for v in units:
                    image = tuple(sorted(v * t % n for t in rep))
                    carriers.setdefault(image, []).append(pow(v, -1, n))
            for terms, (rep, u) in members.items():
                assert rep == rep_of[terms], (n, terms, rep)
                assert rep[0] == min(math.gcd(t, n) for t in terms), (n, terms, rep)
                assert u == min(carriers[terms]), (n, terms, u)
                assert (u == 1) == (terms == rep), (n, terms, u)

    def test_every_multiset_with_the_zero_element(self):
        # Sequences holding the zero element n are never minimal, but
        # orbit_canonical takes any terms in [1, n], and its unit walk must
        # keep n as n.
        for n in range(2, 17):
            for terms in combinations_with_replacement(range(1, n + 1), 4):
                assert orbit_canonical(seq(n, terms)).terms == naive_orbit_canonical(terms, n)

    def test_no_lead_image_sums_to_3n(self):
        # An orbit's least member leads with d = min gcd(t, n), and n - t has
        # the same gcd with n as t, so every term is at most n - d and the
        # sum at most 3n - 2d: a sweep never hands normalization a sum-3n
        # input, the one case it certifies at the complement n - 1 as
        # ONE_SIDED.
        for n in range(2, 61):
            for rep, _ in _orbit_reps(n, 4):
                d = rep[0]
                assert rep[-1] <= n - d and sum(rep) <= 3 * n - 2 * d, (n, rep)


class TestUnitLift:
    def test_matches_least_unit_in_the_class(self):
        for n in range(2, 61):
            units = naive_units(n)
            for step in (d for d in range(1, n + 1) if n % d == 0):
                for x in range(n):
                    if math.gcd(x, step) != 1:
                        continue
                    least = min(m for m in units if (m - x) % step == 0)
                    assert _unit_lift(x, n, step) == least, (x, n, step)


# SHA-256 of the repr of every result, one per line, over the minimal
# quadruples in enumeration order: what a full sweep gets from find_witness
# (its orbit representative's result, carried over), then the staged
# pipeline on the sequence itself.  Between them they pin content lifts,
# normalization moves through a complement, orbit transports, pool hits and
# scan hits with their whole provenance; the sweep reaches neither the pool
# nor the scan at these moduli, nor a complement trail.
GOLDEN_WITNESS_REPRS = {
    45: (
        "55c487fab809eb4936ef1271a18234c42a5c47ff813eac9d8c2d6be133d54bd6",
        "e7d4f0b4f10cfada7084e32bbd8aac84d5f44ad2f85716e48ad7f05caa2f0bf5",
    ),
    75: (
        "23c75ab161a7dac655f8164c45682a555c4d60a0dbec9db16c6bb8378b9d6730",
        "341a1478a3c694d595c310c9607da89d8bee47566a3805e6be08dc0cd12bd327",
    ),
}


@pytest.mark.parametrize("n", sorted(GOLDEN_WITNESS_REPRS))
def test_golden_witness_provenance(n, sweep_results):
    swept = dict(sweep_results(n))
    digests = (hashlib.sha256(), hashlib.sha256())
    for terms in _minimal_tuples(n, 4):
        s = seq(n, terms)
        for digest, result in zip(digests, (swept[terms], _pipeline(s))):
            digest.update((repr(result) + "\n").encode())
    assert len(swept) == sum(1 for _ in _minimal_tuples(n, 4))
    assert tuple(d.hexdigest() for d in digests) == GOLDEN_WITNESS_REPRS[n]


class TestFindWitness:
    def test_worked_pipeline_case(self):
        s = seq(35, (2, 3, 31, 34))
        w = _pipeline(s)
        assert isinstance(w, Witness)
        assert w.rule == RULE_INTERVAL and w.k == 1
        assert w.m == 26  # interval unit 9 pulled back through the complement
        assert verify_witness(s, w)

    def test_worked_transported_case(self):
        s = seq(35, (2, 3, 31, 34))
        # 18 = 2^-1 mod 35 sends the leading unit term 2 to 1
        assert apply_unit(s, 18).terms == (1, 17, 19, 33)
        image = find_witness(seq(35, (1, 17, 19, 33)))
        assert image == _pipeline(seq(35, (1, 17, 19, 33)))
        w = find_witness(s, image, 18)
        assert isinstance(w, Witness)
        assert (w.rule, w.k) == (image.rule, image.k) == (RULE_INTERVAL, 6)
        assert w.m == image.m * 18 % 35 == 24
        assert w.trail == ("orbit:18",) + image.trail
        assert verify_witness(s, w)
        assert find_witness(s, image, 1) is image  # u = 1: the result is s's own

    def test_high_index_evidence_is_the_inputs_own(self):
        # the unit 3 sends (2, 5, 6, 7) to (1, 5, 6, 8) over Z_10
        assert apply_unit(seq(10, (2, 5, 6, 7)), 3).terms == (1, 5, 6, 8)
        image = find_witness(seq(10, (1, 5, 6, 8)))
        assert image.argmin_unit == 1
        result = find_witness(seq(10, (2, 5, 6, 7)), image, 3)
        assert result == _pipeline(seq(10, (2, 5, 6, 7)))
        assert result.argmin_unit == 1 and result.min_sum == 20

    def test_high_index_evidence(self):
        result = find_witness(seq(10, (2, 5, 6, 7)))
        assert isinstance(result, HighIndexEvidence)
        assert result.index == 2
        assert result.argmin_unit == 1 and result.min_sum == 20

    def test_sum_n_shortcut(self):
        w = find_witness(seq(25, (1, 1, 1, 22)))
        assert isinstance(w, Witness)
        assert w.rule == RULE_SUM_N and w.m == 1

    def test_content_reduction_lifts_witness(self):
        s = seq(25, (5, 15, 15, 15))
        w = find_witness(s)
        assert isinstance(w, Witness)
        assert w.rule == RULE_ONE_SIDED and w.m == 2
        assert w.trail[0] == "content:5"
        assert verify_witness(s, w)

    def test_unbalanced_split_falls_back_to_exhaustive(self):
        result = find_witness(seq(10, (1, 5, 6, 8)))
        assert isinstance(result, HighIndexEvidence)
        assert result.index == 2

    def test_exhaustive_certificates_name_no_move(self):
        # The scan runs on the pipeline's input itself, so its certificate
        # names no normalization move: no complement, no mul:m.
        from zsindex import enumerate_minimal

        scanned = 0
        for n in range(2, 41):
            for s in enumerate_minimal(factorize(n), 4):
                w = _pipeline(s)
                if not isinstance(w, Witness) or w.rule != RULE_EXHAUSTIVE:
                    continue
                scanned += 1
                moves = [step for step in w.trail if step == "complement" or step.startswith("mul:")]
                assert not moves, (n, s.terms, w)
        assert scanned > 0

    def test_lopsided_input_skips_the_form_stages(self, monkeypatch):
        # A lopsided quadruple is settled by one ascending unit scan: index 1
        # gives ONE_SIDED at the least certifying unit, as one_sided_witness
        # finds it, and otherwise the scan's exact minimum is the evidence.
        from zsindex import enumerate_minimal

        def forbidden(*args):
            raise AssertionError("form stage reached on a lopsided input")

        for name in ("interval_witness", "two_of_three_witness", "candidate_multipliers"):
            monkeypatch.setattr(f"zsindex.witness.{name}", forbidden)
        scans = []
        scan = witness.min_transform_sum

        def counting(*args, **kwargs):
            scans.append(args)
            return scan(*args, **kwargs)

        for module in ("witness", "normal_form"):
            monkeypatch.setattr(f"zsindex.{module}.min_transform_sum", counting)
        high = 0
        for n in range(2, 41):
            for s in enumerate_minimal(factorize(n), 4):
                terms = s.terms
                below = sum(1 for t in terms if 2 * t < n)
                above = sum(1 for t in terms if 2 * t > n)
                if (below, above) == (2, 2) or sum(terms) == n or math.gcd(n, *terms) != 1:
                    continue
                scans.clear()
                result = _pipeline(s)
                assert len(scans) == 1, (n, terms)
                index, argmin = naive_index(terms, n)
                if index == 1:
                    assert isinstance(result, Witness) and result.rule == RULE_ONE_SIDED, (n, terms)
                    assert verify_witness(s, result)
                    assert result == one_sided_witness(s), (n, terms)
                else:
                    high += 1
                    expected = HighIndexEvidence(int(index), argmin, int(index) * n)
                    assert result == expected, (n, terms)
        assert high > 0

    def test_precondition_errors(self):
        """Every length is served; off length 4 the stages are the unit scan."""
        for n, terms in ((10, (3, 7)), (10, (4, 7, 9)), (11, (1, 1, 4, 8, 8)),
                         (11, (1, 1, 5, 7, 8))):
            s = seq(n, terms)
            assert find_witness(s) == witness._exhaustive(s), s
        assert find_witness(seq(10, (4, 7, 9))).m == 3
        assert isinstance(find_witness(seq(11, (1, 1, 5, 7, 8))), HighIndexEvidence)
        with pytest.raises(NotMinimalZeroSum):
            find_witness(seq(10, (2, 4, 6, 8)))
        with pytest.raises(NotMinimalZeroSum):
            find_witness(seq(10, (1, 2, 3, 5, 9)))

    def test_precondition_errors_with_a_carried_result(self):
        # the unit 8 sends (1, 1, 6, 7, 7) to (1, 1, 4, 8, 8) over Z_11
        s, image = seq(11, (1, 1, 6, 7, 7)), seq(11, (1, 1, 4, 8, 8))
        assert apply_unit(s, 8) == image
        found = find_witness(image)
        assert found.m == 3  # m * 8 = 24 = 2 mod 11 certifies s, and 3 does not
        carried = find_witness(s, found, 8)
        assert carried == certify(s, 3 * 8, found.rule, trail=("orbit:8",))
        assert carried.m == 2 and verify_witness(s, carried)
        found = find_witness(seq(10, (1, 1, 3, 5)))
        for u in (1, 3):
            with pytest.raises(NotMinimalZeroSum):
                find_witness(seq(10, (2, 4, 6, 8)), found, u)

    def test_a_carried_result_keeps_the_minimality_precondition(self):
        """Handed another orbit member's result, find_witness still tests its
        own input: every 4-multiset over [1, n], n <= 24, against the oracle,
        each with its orbit's least member's result and the least unit that
        sends it there, which ``_least_image`` finds as the command does."""
        for n in range(2, 25):
            units = naive_units(n)
            for terms in combinations_with_replacement(range(1, n + 1), 4):
                s = seq(n, terms)
                rep = orbit_canonical(s)
                u = next(
                    m for m in units if tuple(sorted(m * t % n or n for t in terms)) == rep.terms
                )
                assert _least_image(terms, n) == (rep.terms, u), s
                if not naive_is_minimal(terms, n):
                    bogus = Witness(m=1, achieved_sum=n, rule=RULE_SUM_N)
                    with pytest.raises(NotMinimalZeroSum):
                        find_witness(s, bogus, u)
                    continue
                result = find_witness(s, find_witness(rep), u)
                own = find_witness(s)  # the stages on s itself
                if isinstance(own, Witness):
                    assert isinstance(result, Witness) and verify_witness(s, result), s
                else:
                    assert result == own, s

    def test_a_carried_hit_is_certified_on_its_own_terms(self, monkeypatch):
        """A handed-in result whose m does not certify its image is never
        passed on: the carry recomputes the sum on the sequence's terms, and
        the sweep's recheck stands behind it, on the representative too."""
        s = seq(35, (2, 3, 31, 34))
        image = seq(35, (1, 17, 19, 33))
        assert apply_unit(s, 18) == image and sum(image.terms) == 70  # m = 1 does not certify it
        bogus = Witness(m=1, achieved_sum=35, rule=RULE_INTERVAL, k=1)
        try:
            result = find_witness(s, bogus, 18)
        except AssertionError:
            pass
        else:
            assert isinstance(result, Witness) and verify_witness(s, result)
        pipeline = witness._pipeline
        monkeypatch.setattr(witness, "_pipeline", lambda s: bogus if s.n == 35 else pipeline(s))
        with pytest.raises((AssertionError, RuntimeError)):
            _scan_block_impl(35, 4, 1, False)

    @pytest.mark.parametrize("n", [9, 10, 25, 35])
    def test_oracle_agreement_exhaustive(self, n):
        from zsindex import enumerate_minimal

        group = factorize(n)
        for s in enumerate_minimal(group, 4):
            result = find_witness(s)
            expected, _ = naive_index(s.terms, n)
            if expected == 1:
                assert isinstance(result, Witness), s.terms
                assert verify_witness(s, result)
            else:
                assert isinstance(result, HighIndexEvidence), s.terms
                assert result.index == expected

    def test_oracle_agreement_full_range_to_60(self):
        # The stages on every sequence, where a sweep runs them on orbit
        # representatives only, which would leave some stages unexercised;
        # test_a_full_sweep_gives_every_sequence_once checks the sweep's own
        # results against the same oracle.
        for n in range(4, 61):
            units = naive_units(n)
            for terms in _minimal_tuples(n, 4):
                s = seq(n, terms)
                best = min(
                    sum((m * t - 1) % n + 1 for t in s.terms) for m in units
                )
                result = find_witness(s)
                if best == n:
                    assert isinstance(result, Witness), (n, s.terms)
                    assert verify_witness(s, result), (n, s.terms)
                else:
                    assert isinstance(result, HighIndexEvidence), (n, s.terms)
                    assert result.min_sum == best, (n, s.terms)

    def test_oracle_agreement_random_large_moduli(self):
        rng = random.Random(1225)
        checked = 0
        while checked < 60:
            n = rng.randint(100, 1225)
            base = tuple(sorted(rng.randint(1, n - 1) for _ in range(3)))
            last = -sum(base) % n
            if last == 0:
                continue
            terms = tuple(sorted(base + (last,)))
            if not naive_is_minimal(terms, n):
                continue
            checked += 1
            s = seq(n, terms)
            result = find_witness(s)
            expected, _ = naive_index(terms, n)
            if expected == 1:
                assert isinstance(result, Witness) and verify_witness(s, result)
            else:
                assert isinstance(result, HighIndexEvidence)
                assert result.index == expected

    def test_every_emitted_witness_is_sound_random(self):
        rng = random.Random(4057)
        checked = 0
        while checked < 400:
            n = rng.randint(7, 120)
            base = tuple(sorted(rng.randint(1, n - 1) for _ in range(3)))
            last = -sum(base) % n
            if last == 0:
                continue
            terms = tuple(sorted(base + (last,)))
            if not naive_is_minimal(terms, n):
                continue
            checked += 1
            s = seq(n, terms)
            result = find_witness(s)
            if isinstance(result, Witness):
                assert verify_witness(s, result)
                assert result.achieved_sum == n
            else:
                for m in naive_units(n):
                    total = sum((m * t - 1) % n + 1 for t in terms)
                    assert total != n


class TestVerifyWitness:
    def test_valid_certificate(self):
        w = Witness(m=24, achieved_sum=35, rule="EXHAUSTIVE")
        assert verify_witness(seq(35, (2, 3, 31, 34)), w)

    def test_wrong_sum_rejected(self):
        w = Witness(m=9, achieved_sum=35, rule="EXHAUSTIVE")
        assert not verify_witness(seq(35, (2, 3, 31, 34)), w)

    def test_high_index_unit_rejected(self):
        w = Witness(m=3, achieved_sum=10, rule="EXHAUSTIVE")
        assert not verify_witness(seq(10, (2, 5, 6, 7)), w)

    def test_non_unit_rejected(self):
        w = Witness(m=5, achieved_sum=35, rule="EXHAUSTIVE")
        assert not verify_witness(seq(35, (2, 3, 31, 34)), w)
