"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live; they
also appear in captured output.  Every tolerance here is exact.
"""

import math
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

from zsindex import (
    HighIndexEvidence,
    Sequence,
    UnbalancedSplit,
    VerifyOptions,
    Witness,
    apply_unit,
    compute_k1,
    compute_l,
    enumerate_minimal,
    factorize,
    find_witness,
    orbit_canonical,
    search_high_index,
    sequence_index,
    to_normal_form,
    verify_conjecture,
    verify_moduli,
    verify_witness,
)
from zsindex.normal_form import NormalForm, content

from oracles import (
    naive_k1,
    naive_l,
    naive_minimal_enumeration,
    naive_transform_sum,
    naive_units,
)

JOBS = 4


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {label}")
        raise
    print(f"ACCEPTANCE PASS: {label}")


def _sample_minimal_quadruple(rng, n):
    """Rejection-sample a sorted minimal zero-sum quadruple over [1, n-1]."""
    while True:
        t1 = rng.randint(1, n - 1)
        t2 = rng.randint(1, n - 1)
        t3 = rng.randint(1, n - 1)
        t4 = -(t1 + t2 + t3) % n
        if t4 == 0:
            continue
        terms = tuple(sorted((t1, t2, t3, t4)))
        if (
            terms[0] + terms[1] == n
            or terms[0] + terms[2] == n
            or terms[0] + terms[3] == n
            or terms[1] + terms[2] == n
            or terms[1] + terms[3] == n
            or terms[2] + terms[3] == n
        ):
            continue
        return terms


def test_criterion_1_desk_scale_conjecture_sweep():
    moduli = [n for n in range(7, 201) if math.gcd(n, 6) == 1]
    with criterion("1 desk-scale sweep: no high-index sequences for gcd(n,6)=1, n in [7,200]"):
        reports = verify_moduli(map(factorize, moduli), VerifyOptions(jobs=JOBS))
        for n, report in zip(moduli, reports, strict=True):
            assert report.n == n and report.complete, f"sweep incomplete at n={n}"
            assert report.sequences_total > 0, f"empty enumeration at n={n}"
            assert not report.high_index, f"high-index sequence found at n={n}"


def test_criterion_2_witness_oracle_equivalence():
    with criterion("2 witness/oracle equivalence on n in {25,35,49,55,65,77}"):
        for n in (25, 35, 49, 55, 65, 77):
            group = factorize(n)
            units = naive_units(n)
            for s in enumerate_minimal(group, 4):
                exhaustive_min = min(
                    naive_transform_sum(s.terms, n, m) for m in units
                )
                result = find_witness(s)
                if exhaustive_min == n:
                    assert isinstance(result, Witness), s.terms
                    assert verify_witness(s, result), s.terms
                else:
                    assert isinstance(result, HighIndexEvidence), s.terms
                    assert result.index == exhaustive_min // n, s.terms


def test_criterion_3_contrast_case():
    with criterion("3 contrast case: high-index findings for n in {8,9,10,12}"):
        for n in (8, 9, 10, 12):
            findings = search_high_index(factorize(n), k=4)
            assert findings, f"no high-index sequence found at n={n}"
        n10 = {
            (s.terms, index) for s, index in search_high_index(factorize(10), k=4)
        }
        assert ((2, 5, 6, 7), 2) in n10


def test_criterion_4_short_sequences_have_index_one():
    with criterion("4 short sequences: k <= 3 minimal implies index 1, n <= 60"):
        for n in range(2, 61):
            group = factorize(n)
            for k in (1, 2, 3):
                for s in enumerate_minimal(group, k):
                    assert sequence_index(s).value == 1, (n, s.terms)


def test_criterion_5_enumeration_matches_naive_oracle():
    with criterion("5 enumeration oracle: quadruple-loop agreement for n <= 30"):
        for n in range(2, 31):
            mine = {s.terms for s in enumerate_minimal(factorize(n), 4)}
            assert mine == naive_minimal_enumeration(n, 4), n
        assert len({s.terms for s in enumerate_minimal(factorize(5), 4)}) == 4


def test_criterion_6_normal_form_soundness():
    rng = random.Random(6001)
    with criterion("6 normal-form soundness on 10^4 random content-1 inputs, n <= 200"):
        checked = 0
        while checked < 10_000:
            n = rng.randint(4, 200)
            terms = _sample_minimal_quadruple(rng, n)
            s = Sequence.over(n, terms)
            if content(s) != 1:
                continue
            checked += 1
            units = naive_units(n)
            try:
                nf = to_normal_form(s)
            except UnbalancedSplit:
                # allowed only when provably impossible: no witness and no
                # unit transform splitting two-and-two strictly around n/2
                for m in units:
                    assert naive_transform_sum(terms, n, m) != n, (n, terms, m)
                    moved = tuple(
                        (m * t) % n if (m * t) % n else n for t in terms
                    )
                    below = sum(1 for t in moved if 2 * t < n)
                    above = sum(1 for t in moved if 2 * t > n)
                    assert not (below == 2 and above == 2), (n, terms, m)
                continue
            if isinstance(nf, Witness):
                assert verify_witness(s, nf), (n, terms)
                continue
            assert nf.e < nf.a <= nf.b < nf.c and 2 * nf.c < n, (n, terms)
            assert nf.e + nf.c == nf.a + nf.b, (n, terms)
            rep = nf.represented_terms()
            rep_min = min(naive_transform_sum(rep, n, m) for m in units)
            in_min = min(naive_transform_sum(terms, n, m) for m in units)
            assert rep_min == in_min, (n, terms)


def _large_modulus_chunk(args):
    seed, count = args
    rng = random.Random(seed)
    n = 1225
    group = factorize(n)
    for _ in range(count):
        terms = _sample_minimal_quadruple(rng, n)
        s = Sequence(group, terms)
        result = find_witness(s)
        if not isinstance(result, Witness) or not verify_witness(s, result):
            return terms
    return None


def test_criterion_7_large_modulus_spot_check():
    chunks = [(7000 + i, 12_500) for i in range(8)]  # 10^5 samples total
    with criterion("7 large-modulus spot check: 10^5 samples at n=1225 all certified"):
        with ProcessPoolExecutor(max_workers=JOBS) as pool:
            for failure in pool.map(_large_modulus_chunk, chunks):
                assert failure is None, f"no witness for {failure} at n=1225"


def _random_normal_form(rng):
    while True:
        n = rng.randint(12, 2000)
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


def test_criterion_8_interval_diagnostics_oracle():
    rng = random.Random(8001)
    with criterion("8 diagnostics oracle: k1 and l agree with direct scans, 10^4 forms"):
        worked_k1 = compute_k1(NormalForm(factorize(35), e=1, a=2, b=15, c=16))
        assert worked_k1 == 4
        worked_l = compute_l(NormalForm(factorize(35), e=1, a=2, b=8, c=9))
        assert worked_l == 6
        for _ in range(10_000):
            form = _random_normal_form(rng)
            n, b, c = form.modulus.n, form.b, form.c
            assert compute_k1(form) == naive_k1(n, b, c), (n, b, c)
            assert compute_l(form) == naive_l(n, b, c), (n, b, c)


def test_criterion_9_orbit_invariance():
    rng = random.Random(9001)
    with criterion("9 orbit invariance: index and canonical form constant on 10^4 orbits"):
        for _ in range(10_000):
            n = rng.randint(5, 100)
            terms = tuple(rng.randint(1, n) for _ in range(4))
            s = Sequence.over(n, terms)
            units = [m for m in range(1, n) if math.gcd(m, n) == 1]
            m = rng.choice(units)
            moved = apply_unit(s, m)
            assert sequence_index(moved).value == sequence_index(s).value, (n, terms, m)
            assert orbit_canonical(moved).terms == orbit_canonical(s).terms, (n, terms, m)


def test_criterion_10_long_sequences_have_index_one():
    # Savchev-Chen (Discrete Math. 307, 2007) and Yuan (JCTA 114, 2007): a
    # minimal zero-sum sequence over Z_n of length >= n/2 + 2 has index 1.
    with criterion("10 long sequences: length floor(n/2) + 2 has index 1, n in 4..16"):
        for n in range(4, 17):
            options = VerifyOptions(k=n // 2 + 2, orbits=True)
            report = verify_conjecture(factorize(n), options)
            assert report.complete and report.high_index == (), n
            assert report.orbits_total > 0, n
