import dataclasses
import hashlib
import io
import json
import math
import multiprocessing
import random
from concurrent.futures import Future

import pytest

from zsindex import (
    HighIndexEvidence,
    Sequence,
    VerifyOptions,
    apply_unit,
    enumerate_minimal,
    factorize,
    orbit_canonical,
    search_high_index,
    sequence_index,
    verify_conjecture,
)
from zsindex import harness, witness
from zsindex.cli import run
from zsindex.harness import (
    HIGH_INDEX_KEY,
    VerificationReport,
    _block_one_quadruples,
    _leading_terms,
    _least_image,
    _minimal_tuples,
    _orbit_block,
    _orbit_members,
    _orbit_reps,
    _orbit_tests,
    _representative_stabilizer,
)
from zsindex.sequences import _presorted

from oracles import (
    closed_form_sequences_total,
    naive_floor_block,
    naive_index,
    naive_minimal_enumeration,
    naive_orbit_canonical,
    naive_orbit_reps,
    naive_stabilizer_size,
    naive_units,
)


SCHEMA = harness.CHECKPOINT_SCHEMA


def terms_of(n, k=4):
    return {s.terms for s in enumerate_minimal(factorize(n), k)}


def admitted(n, k, d):
    """Orbit block d's tuples that its admission test lets through."""
    keep, _ = _orbit_tests(n, d)
    return list(_minimal_tuples(n, k, (d,), keep))


def record_orbit_blocks(monkeypatch):
    """Patch the walks of the orbit blocks to log each as it starts.

    A block's entry is its leading terms and the name of its admission test,
    or "kernel" for block 1 at k = 4.
    """
    calls = []
    tuples, kernel = harness._minimal_tuples, harness._block_one_quadruples

    def walking(n, k, leading=None, keep=None):
        calls.append((list(leading), keep and keep.__name__))
        return tuples(n, k, leading, keep)

    def fused(n):
        calls.append(([1], "kernel"))
        return kernel(n)

    monkeypatch.setattr(harness, "_minimal_tuples", walking)
    monkeypatch.setattr(harness, "_block_one_quadruples", fused)
    return calls


class TestEnumerateMinimal:
    def test_n5_exact_set(self):
        expected = {(1, 1, 1, 2), (1, 3, 3, 3), (2, 2, 2, 4), (3, 4, 4, 4)}
        assert terms_of(5) == expected

    def test_singletons_are_excluded(self):
        assert terms_of(5, k=1) == set()

    def test_contains_high_index_example(self):
        assert (2, 5, 6, 7) in terms_of(10)

    def test_lexicographic_order(self):
        listed = [s.terms for s in enumerate_minimal(factorize(11), 4)]
        assert listed == sorted(listed)
        assert len(listed) == len(set(listed))

    @pytest.mark.parametrize("n", [5, 7, 9, 10, 12, 14])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_naive_oracle(self, n, k):
        assert terms_of(n, k) == naive_minimal_enumeration(n, k)

    def test_length_five_against_oracle(self):
        assert terms_of(8, k=5) == naive_minimal_enumeration(8, 5)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_every_block_matches_naive_oracle(self, k):
        for n in range(k, 17):
            expected = sorted(naive_minimal_enumeration(n, k))
            for n1 in range(1, n):
                block = list(_minimal_tuples(n, k, leading=(n1,)))
                assert block == [t for t in expected if t[0] == n1], (n, n1)

    def test_quadruples_match_naive_oracle_up_to_40(self):
        for n in range(2, 41):
            assert list(_minimal_tuples(n, 4)) == sorted(naive_minimal_enumeration(n, 4)), n

    @pytest.mark.parametrize("orbits", [False, True])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_presorted_sequences_equal_checked_ones(self, k, orbits):
        # A sweep builds each tuple's Sequence without sorting or a range
        # check, so every tuple it sweeps, each representative in orbit mode
        # and each member of its orbit in full mode, must be sorted and in
        # range.  Full mode at k = 5 stops at n = 40: its 1.2 million tuples
        # up to 60 take about 2.5 s to build twice.
        top = 40 if (k, orbits) == (5, False) else 60
        for n in range(2, top + 1):
            group = factorize(n)
            for d in _leading_terms(n):
                reps = list(_orbit_block(n, k, d))
                if orbits:
                    block = [rep for rep, _ in reps]
                else:
                    block = [
                        terms for rep, fixed in reps for terms, _ in _orbit_members(rep, n, fixed)
                    ]
                built = [_presorted(group, terms) for terms in block]
                assert built == [Sequence(group, terms) for terms in block], (n, d)

    def test_lengths_above_n_are_empty(self):
        # The Davenport constant of Z_n is n: longer sequences are never minimal.
        assert terms_of(4, k=5) == naive_minimal_enumeration(4, 5) == set()
        assert terms_of(5, k=5) == naive_minimal_enumeration(5, 5)
        assert terms_of(5, k=5) == {(g,) * 5 for g in range(1, 5)}


class TestOrbitCanonical:
    def test_worked_example(self):
        assert orbit_canonical(Sequence.over(5, (3, 4, 4, 4))).terms == (1, 1, 1, 2)

    def test_idempotent_fixed_point(self):
        s = Sequence.over(5, (1, 1, 1, 2))
        assert orbit_canonical(s).terms == s.terms

    def test_orbit_of_high_index_example(self):
        rep = orbit_canonical(Sequence.over(10, (2, 5, 6, 7)))
        assert rep.terms == (1, 5, 6, 8)

    def test_invariance_and_idempotence_random(self):
        rng = random.Random(99)
        for _ in range(150):
            n = rng.randint(3, 60)
            terms = tuple(rng.randint(1, n) for _ in range(4))
            s = Sequence.over(n, terms)
            rep = orbit_canonical(s)
            assert rep.terms == naive_orbit_canonical(terms, n)
            assert orbit_canonical(rep).terms == rep.terms
            units = [m for m in range(1, n) if math.gcd(m, n) == 1]
            m = rng.choice(units)
            assert orbit_canonical(apply_unit(s, m)).terms == rep.terms

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_kernel_matches_oracle_on_every_minimal_tuple(self, k):
        for n in range(2, 41):
            tuples = list(_minimal_tuples(n, k))
            rep_of = naive_orbit_reps(n, tuples)
            assert set(rep_of) == set(tuples)  # orbits stay inside the minimal set
            for terms in tuples:
                assert _least_image(terms, n)[0] == rep_of[terms], (n, terms)

    def test_kernel_matches_oracle_with_zero_term(self):
        rng = random.Random(7)
        for _ in range(3000):
            n = rng.randint(2, 90)
            terms = tuple(sorted([rng.randint(1, n) for _ in range(rng.randint(0, 5))] + [n]))
            expected = naive_orbit_canonical(terms, n)
            assert _least_image(terms, n)[0] == expected, (n, terms)
            assert orbit_canonical(Sequence.over(n, terms)).terms == expected

    @pytest.mark.parametrize("k, top", [(2, 60), (3, 60), (4, 60), (5, 30), (6, 30)])
    def test_stabilizer_size_matches_oracle(self, k, top):
        # Every tuple of every divisor block, unfloored, so tuples holding a
        # term of smaller gcd than their lead are offered too.
        for n in range(2, top + 1):
            tuples = [
                terms
                for d in _leading_terms(n)
                for terms in _minimal_tuples(n, k, (d,))
            ]
            rep_of = naive_orbit_reps(n, tuples)
            for terms in tuples:
                expected = naive_stabilizer_size(terms, n) if rep_of[terms] == terms else 0
                assert _representative_stabilizer(terms, n) == expected, (n, terms)

    @pytest.mark.parametrize("k, top", [(2, 60), (3, 60), (4, 60), (5, 60), (6, 40)])
    def test_floor_blocks_match_naive_oracle(self, k, top):
        # The admission test of the blocks led by d > 1 is the gcd floor.
        # Block 1's floor would admit every term, so its test is the unit
        # one, which test_block_one_prune_keeps_every_least_member checks.
        for n in range(2, top + 1):
            for d in _leading_terms(n)[1:]:
                assert admitted(n, k, d) == naive_floor_block(n, k, d), (n, d)

    @pytest.mark.parametrize("k, top", [(2, 60), (3, 60), (4, 60), (5, 60), (6, 40)])
    def test_block_one_prune_keeps_every_least_member(self, k, top):
        # The pruned block 1 is part of the full sweep's block 1, in order,
        # and the tuples of it that the block's leastness test accepts, with
        # their stabilizer sizes, are the naive least members of the full block.
        for n in range(2, top + 1):
            full = list(_minimal_tuples(n, k, (1,)))
            pruned = admitted(n, k, 1)
            _, least = _orbit_tests(n, 1)
            assert set(pruned) <= set(full) and pruned == sorted(pruned), n
            rep_of = naive_orbit_reps(n, full)
            expected = {
                terms: naive_stabilizer_size(terms, n)
                for terms in full
                if rep_of[terms] == terms
            }
            accepted = {}
            for terms in pruned:
                if fixed := least(terms):
                    accepted[terms] = fixed
            assert accepted == expected, n

    @pytest.mark.parametrize("k, top", [(2, 60), (3, 60), (4, 60), (5, 60), (6, 40)])
    def test_block_one_tie_test_matches_stabilizer(self, k, top):
        # Block 1's leastness test builds an image only where the admission
        # test left a tie; on every tuple the block offers it must return
        # what the generic test does, stabilizer sizes included.  At k = 2
        # the admission test is not consulted and (1, n - 1) is offered.
        for n in range(2, top + 1):
            _, least = _orbit_tests(n, 1)
            for terms in admitted(n, k, 1):
                assert least(terms) == _representative_stabilizer(terms, n), (n, terms)

    @pytest.mark.parametrize(
        "n, terms, fixed",
        [
            # b = 1: every unit term t ties, since t * b = t is a term.
            (5, (1, 1, 1, 2), 1),
            (8, (1, 1, 3, 3), 2),  # the unit 3 repeated; 3 * T = T
            (8, (1, 1, 4, 5, 5), 2),  # the unit 5 repeated; 5 * T = T
            (7, (1, 1, 4, 4, 4), 0),  # 4^-1 * T = (1, 1, 1, 2, 2)
            # b > 1: only the unit terms t with t * b a term tie.
            (6, (1, 3, 4, 4), 1),  # a repeated term that is no unit, no tie
            (13, (1, 2, 3, 7), 1),  # ties, and no tied image is smaller or equal
            (13, (1, 2, 4, 6), 0),  # 2^-1 * T = (1, 2, 3, 7) sorts below T
            (8, (1, 4, 5, 6), 2),  # 5 * 4 = 4: 5 * T = T
            (7, (1, 2, 4), 3),  # the subgroup {1, 2, 4} of Z_7 fixes T
            (13, (1, 3, 9), 3),  # the subgroup {1, 3, 9} of Z_13 fixes T
            # k = 2: the one tuple (1, n - 1), fixed by 1 and n - 1.
            (2, (1, 1), 1),
            (11, (1, 10), 2),
        ],
    )
    def test_block_one_tie_test_named_cases(self, n, terms, fixed):
        assert terms in admitted(n, len(terms), 1)
        assert _orbit_tests(n, 1)[1](terms) == fixed
        assert _representative_stabilizer(terms, n) == fixed
        if fixed:
            assert naive_stabilizer_size(terms, n) == fixed

    @pytest.mark.parametrize(
        "n, d, full, built, least",
        [
            (77, 1, 950, 331, 318),
            (997, 1, 165_170, 41_516, 41_417),
            (385, 1, 24_512, 9_940, 9_731),
            (385, 5, 23_754, 1_590, 432),
            (385, 7, 23_381, 537, 183),
            (385, 11, 22_647, 187, 76),
            (385, 35, 18_579, 15, 5),
            (385, 55, 15_629, 5, 2),
            (385, 77, 12_846, 2, 1),
        ],
    )
    def test_orbit_block_count(self, n, d, full, built, least):
        # Both cases of the admission test, pinned past the oracles' n <= 60:
        # block d holds `full` quadruples, its orbit block builds `built` and
        # `least` of those are least in their orbit.  A test that stops
        # acting, or a sound weakening of it, builds more and shows here.
        block = admitted(n, 4, d)
        assert sum(1 for _ in _minimal_tuples(n, 4, (d,))) == full
        assert len(block) == built
        assert sum(1 for terms in block if _representative_stabilizer(terms, n)) == least
        assert sum(1 for _ in _orbit_block(n, 4, d)) == least

    def test_orbit_reps_floor_each_divisor_block(self, monkeypatch):
        # At k = 4 block 1 runs its own kernel, and every other block walks
        # ``_minimal_tuples`` with the gcd floor.
        calls = record_orbit_blocks(monkeypatch)
        reps = [terms for terms, _ in _orbit_reps(77, 4)]
        assert calls == [([1], "kernel"), ([7], "floor"), ([11], "floor")]
        tuples = list(_minimal_tuples(77, 4))
        assert reps == sorted(set(naive_orbit_reps(77, tuples).values()))

    def test_orbit_reps_at_other_lengths_run_block_one_on_the_unit_pair(self, monkeypatch):
        calls = record_orbit_blocks(monkeypatch)
        reps = [terms for terms, _ in _orbit_reps(77, 3)]
        assert calls == [([1], "clear"), ([7], "floor"), ([11], "floor")]
        tuples = list(_minimal_tuples(77, 3))
        assert reps == sorted(set(naive_orbit_reps(77, tuples).values()))

    def test_block_one_kernel_matches_the_generic_pair(self):
        # What block 1 at k = 4 yields, against what its pair of tests keeps
        # of ``_minimal_tuples``, in order and with |Stab|.
        for n in [*range(2, 251), 997]:
            keep, least = _orbit_tests(n, 1)
            expected = [
                (terms, fixed)
                for terms in _minimal_tuples(n, 4, (1,), keep)
                if (fixed := least(terms))
            ]
            assert list(_block_one_quadruples(n)) == expected, n

    @pytest.mark.parametrize("terms", [(1, 1, 3, 3), (1, 4, 5, 6)])
    def test_block_one_kernel_counts_each_distinct_term_once(self, terms):
        # Each is fixed by one unit besides 1: 3, a term held twice in the
        # first, and 5 in the second, where 5 * 4 = 4 ties on b.  Each
        # distinct unit term counts once.
        assert (terms, 2) in list(_block_one_quadruples(8))
        assert naive_stabilizer_size(terms, 8) == 2

    @pytest.mark.parametrize("k, top", [(2, 60), (3, 60), (4, 60), (5, 60), (6, 40)])
    def test_orbit_reps_match_naive_oracle_block_by_block(self, k, top):
        # What the sweeps and search read: each orbit's least member with
        # |Stab|, from each block's own pair of tests, the tie test at k = 2
        # included.
        for n in range(2, top + 1):
            tuples = list(_minimal_tuples(n, k))
            expected = [
                (rep, naive_stabilizer_size(rep, n))
                for rep in sorted(set(naive_orbit_reps(n, tuples).values()))
            ]
            for d in _leading_terms(n):
                block = [pair for pair in expected if pair[0][0] == d]
                assert list(_orbit_block(n, k, d)) == block, (n, d)
            assert list(_orbit_reps(n, k)) == expected, n

    def test_orbits_total_counts_naive_classes(self, tmp_path):
        # Orbit sweeps count sequences from stabilizers, so the total is checked
        # against enumeration up to 100; the naive orbit classes up to 50.
        report = tmp_path / "orbits.jsonl"
        argv = ["verify", "--orbits", "--n-range", "2:100", "--all-moduli",
                "--report-path", str(report)]
        assert run(argv, out=io.StringIO()) == 0
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert [r["n"] for r in records] == list(range(2, 101))
        for r in records:
            tuples = list(_minimal_tuples(r["n"], 4))
            assert r["sequences_total"] == len(tuples), r["n"]
            if r["n"] <= 50:
                classes = set(naive_orbit_reps(r["n"], tuples).values())
                assert r["orbits_total"] == len(classes), r["n"]

    def test_closed_form_counts_every_quadruple(self):
        for n in range(2, 41):
            assert closed_form_sequences_total(n) == sum(1 for _ in _minimal_tuples(n, 4)), n

    @pytest.mark.parametrize("k", [3, 5])
    def test_closed_form_counts_every_triple_and_quintuple(self, k):
        for n in range(2, 41):
            total = sum(1 for _ in _minimal_tuples(n, k))
            assert closed_form_sequences_total(n, k) == total, (n, k)

    @pytest.mark.parametrize("n, total", [(385, 2_371_584), (455, 3_916_204)])
    def test_orbit_sweep_total_matches_closed_form(self, n, total):
        # No enumeration oracle reaches these moduli; the closed form guards
        # the orbit blocks' admission test and the stabilizer counts there.
        report = verify_conjecture(factorize(n), VerifyOptions(orbits=True))
        assert closed_form_sequences_total(n) == total
        assert report.sequences_total == total

    def test_prime_orbit_report_is_pinned(self):
        # 997 is prime, so its whole orbit sweep is block 1, far past the
        # oracles' n <= 60; the closed form guards the sequence count.
        report = verify_conjecture(factorize(997), VerifyOptions(orbits=True))
        assert report.sequences_total == closed_form_sequences_total(997) == 41_251_332
        assert report.orbits_total == 41_417
        assert report.rule_histogram == {"INTERVAL": 4_950, "ONE_SIDED": 11, "SUM_N": 36_456}
        assert report.high_index == ()

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_orbit_sweep_counts_every_sequence(self, k):
        for n in range(2, 31):
            report = verify_conjecture(factorize(n), VerifyOptions(k=k, orbits=True))
            assert report.sequences_total == sum(1 for _ in _minimal_tuples(n, k)), (n, k)

    def test_orbit_sweep_enumerates_only_divisor_led_blocks(self, monkeypatch, tmp_path):
        calls = record_orbit_blocks(monkeypatch)
        ckpt = tmp_path / "sweep.ckpt"
        argv = ["verify", "--orbits", "--n", "77", "--checkpoint-path", str(ckpt)]
        assert run(argv, out=io.StringIO()) == 0
        assert block_keys(tmp_path / "sweep.ckpt.blocks") == [(77, 4, 1), (77, 4, 7), (77, 4, 11)]
        # Each block is enumerated as an orbit block, led by its own divisor,
        # with its own admission test; block 1 at k = 4 by its kernel.
        assert sorted(calls) == [([1], "kernel"), ([7], "floor"), ([11], "floor")]



class TestVerifyConjecture:
    def test_n5_report(self):
        report = verify_conjecture(factorize(5))
        assert report.sequences_total == 4
        assert report.high_index == ()
        assert report.complete
        assert report.gcd6_class == 1
        assert sum(report.rule_histogram.values()) == 4
        assert not report.conjecture_violated()

    def test_n10_finds_high_index(self):
        report = verify_conjecture(factorize(10))
        found = {terms for terms, _ in report.high_index}
        assert (2, 5, 6, 7) in found
        assert all(index == 2 for _, index in report.high_index)
        assert report.gcd6_class == 2
        assert not report.conjecture_violated()  # conjecture does not apply
        assert HIGH_INDEX_KEY in report.rule_histogram

    def test_n35_is_clean(self):
        report = verify_conjecture(factorize(35))
        assert report.high_index == ()
        assert report.complete
        assert sum(report.rule_histogram.values()) == report.sequences_total

    def test_orbit_mode_counts(self):
        full = verify_conjecture(factorize(13))
        orbity = verify_conjecture(factorize(13), VerifyOptions(orbits=True))
        assert orbity.sequences_total == full.sequences_total
        assert 0 < orbity.orbits_total < orbity.sequences_total
        assert sum(orbity.rule_histogram.values()) == orbity.orbits_total
        assert full.orbits_total == 0  # not computed when dedup is off

    def test_reports_reproducible(self):
        a = verify_conjecture(factorize(25))
        b = verify_conjecture(factorize(25))
        assert (a.sequences_total, a.rule_histogram, a.high_index) == (
            b.sequences_total,
            b.rule_histogram,
            b.high_index,
        )

    def test_parallel_matches_serial(self):
        serial = verify_conjecture(factorize(21))
        parallel = verify_conjecture(factorize(21), VerifyOptions(jobs=2))
        assert serial.sequences_total == parallel.sequences_total
        assert serial.rule_histogram == parallel.rule_histogram
        assert serial.high_index == parallel.high_index

    def test_generic_k_path(self):
        report = verify_conjecture(factorize(12), VerifyOptions(k=3))
        assert report.complete
        assert report.high_index == ()  # short sequences always index 1
        assert report.sequences_total == len(naive_minimal_enumeration(12, 3))
        assert report.rule_histogram == {"EXHAUSTIVE": report.sequences_total}

    def test_generic_k_witness_comes_from_certify(self, monkeypatch):
        monkeypatch.setattr(witness, "certify", lambda *args, **kwargs: None)
        with pytest.raises(AssertionError):
            verify_conjecture(factorize(12), VerifyOptions(k=3))

    @pytest.mark.parametrize(
        "k, n",
        [pytest.param(5, n, id=str(n)) for n in range(6, 15)]
        + [pytest.param(k, n, id=f"k{k}-{n}") for k in (3, 6) for n in range(6, 15)],
    )
    def test_generic_k_high_index_branch(self, k, n):
        report = verify_conjecture(factorize(n), VerifyOptions(k=k))
        expected = []
        for terms in sorted(naive_minimal_enumeration(n, k)):
            index, _ = naive_index(terms, n)
            if index >= 2:
                expected.append((terms, int(index)))
        assert report.high_index == tuple(expected)
        assert set(report.rule_histogram) <= {"EXHAUSTIVE", HIGH_INDEX_KEY}
        assert report.rule_histogram.get(HIGH_INDEX_KEY, 0) == len(expected)
        assert sum(report.rule_histogram.values()) == report.sequences_total

    def test_generic_k_scans_once_per_orbit(self, monkeypatch):
        """A full k = 5 sweep scans each orbit representative, and rescans
        only the other members of high-index orbits: every certificate is
        carried over by its unit."""
        scan = witness._exhaustive
        calls = []

        def counting(s):
            calls.append(s.terms)
            return scan(s)

        monkeypatch.setattr(witness, "_exhaustive", counting)
        full = verify_conjecture(factorize(11), VerifyOptions(k=5))
        full_scans = len(calls)
        orbity = verify_conjecture(factorize(11), VerifyOptions(k=5, orbits=True))
        assert len(calls) - full_scans == orbity.orbits_total
        rescans = len(full.high_index) - len(orbity.high_index)
        assert full_scans == orbity.orbits_total + rescans < full.sequences_total


# Proof-rule labels as the staged pipeline produces them on every sequence.
# A hot-path change must not relabel a single sequence, and a change to the
# candidate pool may only move CANDIDATE:* tags.  Every sum-3n sequence is
# ONE_SIDED at the complement n - 1.  The index-2 findings of
# n = 30 (140) and n = 75 (32) are pinned by count and by the SHA-256 of
# their JSON list.
GOLDEN_HISTOGRAMS = {
    30: {
        "CANDIDATE:const": 6, "CANDIDATE:interval": 228, "HIGH_INDEX": 140,
        "INTERVAL": 76, "ONE_SIDED": 404, "SUM_N": 206,
        "TWO_OF_THREE": 22,
    },
    35: {
        "CANDIDATE:const": 32, "CANDIDATE:interval": 304, "EXHAUSTIVE": 12,
        "INTERVAL": 388, "ONE_SIDED": 669, "SUM_N": 321,
        "TWO_OF_THREE": 8,
    },
    49: {
        "CANDIDATE:const": 38, "CANDIDATE:interval": 786, "EXHAUSTIVE": 12,
        "INTERVAL": 1320, "ONE_SIDED": 1780, "SUM_N": 864,
    },
    55: {
        "CANDIDATE:const": 94, "CANDIDATE:interval": 1196, "EXHAUSTIVE": 72,
        "INTERVAL": 1722, "ONE_SIDED": 2495, "SUM_N": 1215,
        "TWO_OF_THREE": 10,
    },
    75: {
        "CANDIDATE:const": 444, "CANDIDATE:interval": 4250, "EXHAUSTIVE": 614,
        "HIGH_INDEX": 32, "INTERVAL": 2462, "ONE_SIDED": 6204, "SUM_N": 3042,
        "TWO_OF_THREE": 292,
    },
    77: {
        "CANDIDATE:const": 244, "CANDIDATE:interval": 3116, "EXHAUSTIVE": 230,
        "INTERVAL": 5186, "ONE_SIDED": 6705, "SUM_N": 3289,
        "TWO_OF_THREE": 2,
    },
}
GOLDEN_HIGH_INDEX = {
    30: (140, "9a807639115609a85c87bdbfdd0808c606f0dd01639dcc789eedc12ec8c722e3"),
    75: (32, "3ca8d210764946e0a217bcfd8637e85519dfc9c8fc68b9d5da68389102b775e3"),
}


# The same sweeps' rule_histogram, where the pipeline runs once per orbit
# representative R and every member of R's orbit carries R's label.
GOLDEN_TRANSPORTED = {
    30: {
        "CANDIDATE:interval": 52, "HIGH_INDEX": 140, "INTERVAL": 128,
        "ONE_SIDED": 52, "SUM_N": 670, "TWO_OF_THREE": 40,
    },
    35: {"INTERVAL": 270, "ONE_SIDED": 60, "SUM_N": 1404},
    49: {"INTERVAL": 504, "SUM_N": 4296},
    55: {"INTERVAL": 1200, "ONE_SIDED": 90, "SUM_N": 5514},
    75: {
        "HIGH_INDEX": 32, "INTERVAL": 3438, "ONE_SIDED": 432, "SUM_N": 13198,
        "TWO_OF_THREE": 240,
    },
    77: {"INTERVAL": 2840, "ONE_SIDED": 330, "SUM_N": 15602},
}
# verify --orbits: (orbits_total, rule_histogram), one count per representative.
GOLDEN_ORBITS = {
    35: (79, {"INTERVAL": 13, "ONE_SIDED": 3, "SUM_N": 63}),
    75: (476, {"HIGH_INDEX": 3, "INTERVAL": 91, "ONE_SIDED": 13, "SUM_N": 363,
               "TWO_OF_THREE": 6}),
    77: (325, {"INTERVAL": 49, "ONE_SIDED": 7, "SUM_N": 269}),
}


@pytest.mark.parametrize("n", sorted(GOLDEN_HISTOGRAMS))
def test_golden_rule_histogram(n):
    staged: dict[str, int] = {}
    for seq in enumerate_minimal(factorize(n)):
        result = witness._pipeline(seq)
        key = HIGH_INDEX_KEY if isinstance(result, HighIndexEvidence) else result.label
        staged[key] = staged.get(key, 0) + 1
    assert staged == GOLDEN_HISTOGRAMS[n]
    report = verify_conjecture(factorize(n))
    assert report.rule_histogram == GOLDEN_TRANSPORTED[n]
    if n not in GOLDEN_HIGH_INDEX:
        assert report.high_index == ()
        return
    listed = json.dumps([[list(terms), index] for terms, index in report.high_index])
    assert (len(report.high_index), hashlib.sha256(listed.encode()).hexdigest()) == (
        GOLDEN_HIGH_INDEX[n]
    )
    assert {index for _, index in report.high_index} == {2}


@pytest.mark.parametrize("n", sorted(GOLDEN_ORBITS))
def test_golden_orbit_histogram(n):
    report = verify_conjecture(factorize(n), VerifyOptions(orbits=True))
    assert (report.orbits_total, report.rule_histogram) == GOLDEN_ORBITS[n]


def test_golden_pool_sweep():
    # n = 36: nine representatives reach the pool, and it certifies none of
    # them, since each has index 2; their orbits hold the 84 findings.
    report = verify_conjecture(factorize(36))
    assert report.rule_histogram == {
        "HIGH_INDEX": 84, "INTERVAL": 304, "ONE_SIDED": 114, "SUM_N": 1328,
        "TWO_OF_THREE": 54,
    }
    assert len(report.high_index) == 84


def test_sweep_reaches_the_pool(monkeypatch):
    pools = []
    build = witness.candidate_multipliers

    def counting(nf):
        pools.append(nf)
        return build(nf)

    monkeypatch.setattr(witness, "candidate_multipliers", counting)
    report = verify_conjecture(factorize(30))
    assert pools
    assert report.rule_histogram == GOLDEN_TRANSPORTED[30]


def test_a_full_sweep_tests_minimality_once_per_sequence(monkeypatch, tmp_path):
    """find_witness tests every sequence it is given, and runs the stages once per orbit."""
    staged = []
    tested = []
    pipeline = witness._pipeline
    is_minimal = witness.is_minimal_zero_sum

    def counting_pipeline(s):
        if s.n == 35:  # content division recurses at smaller moduli
            staged.append(s.terms)
        return pipeline(s)

    def counting_is_minimal(s):
        tested.append(s.terms)
        return is_minimal(s)

    monkeypatch.setattr(witness, "_pipeline", counting_pipeline)
    monkeypatch.setattr(witness, "is_minimal_zero_sum", counting_is_minimal)
    report = tmp_path / "report.jsonl"
    assert run(["verify", "--n", "35", "--report-path", str(report)], out=io.StringIO()) == 0
    sequences = json.loads(report.read_text())["sequences_total"]
    assert len(tested) == len(set(tested)) == sequences == 1734
    assert staged == [terms for terms, _ in _orbit_reps(35, 4)] and len(staged) == 79


def test_a_full_sweep_gives_every_sequence_once(sweep_results):
    # What a full sweep hands find_witness is the minimal quadruples
    # themselves, each once: the orbit expansion against the naive oracle.
    # The sweep rechecks each result it gets back (verify_witness, or
    # sequence_index at high index) and raises on a mismatch.
    for n in range(2, 61):
        swept = [terms for terms, _ in sweep_results(n)]
        assert len(swept) == len(set(swept)), n
        assert set(swept) == naive_minimal_enumeration(n, 4), n


def test_full_histogram_weighs_each_representative_by_its_orbit():
    # The full rule_histogram is the sum of phi(n) / |Stab(R)| * label(R).
    for n in range(4, 81):
        group = factorize(n)
        phi = len(naive_units(n))
        expected: dict[str, int] = {}
        for rep, fixed in _orbit_reps(n, 4):
            result = witness.find_witness(_presorted(group, rep))
            label = HIGH_INDEX_KEY if isinstance(result, HighIndexEvidence) else result.label
            expected[label] = expected.get(label, 0) + phi // fixed
        report = verify_conjecture(group)
        assert report.rule_histogram == dict(sorted(expected.items())), n


@pytest.mark.parametrize("n", [30, 35, 48])
def test_the_witness_command_prints_what_the_sweep_counted(n, sweep_results, tmp_path):
    report = tmp_path / "w.jsonl"
    for terms, result in sweep_results(n):
        argv = ["witness", "--n", str(n), "--terms", ",".join(map(str, terms)),
                "--report-path", str(report)]
        assert run(argv, out=io.StringIO()) == 0
        record = json.loads(report.read_text())
        if isinstance(result, HighIndexEvidence):
            assert (record["index"], record["witness_m"]) == (result.index, None), terms
            continue
        assert (record["witness_m"], record["rule"], record["trail"]) == (
            result.m, result.label, list(result.trail)
        ), terms


class ReadFuture(Future):
    """A future that counts, on its pool, the reads of its result."""

    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        self.pool.read += 1
        return super().result(timeout)


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor`` and runs each task in-process as it is submitted.

    It keeps each task's arguments and the most tasks outstanding at once, a
    task being outstanding from its submission until its result is read.
    """

    def __init__(self, max_workers, initializer):
        self.max_workers = max_workers
        self.calls = []
        self.read = 0
        self.peak = 0

    @property
    def tasks(self):
        return len(self.calls)

    def submit(self, fn, *args):
        self.calls.append(args)
        self.peak = max(self.peak, len(self.calls) - self.read)
        future = ReadFuture(self)
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures):
        pass


@pytest.fixture
def pools(monkeypatch):
    """Every ``RecordingPool`` a run starts, with the cores fixed at 2 unless a test says otherwise."""
    started = []

    class Recording(RecordingPool):
        def __init__(self, max_workers, initializer):
            super().__init__(max_workers, initializer)
            started.append(self)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    return started


def fake_scan(n, k, n1, orbits):
    return harness.BlockResult(n1=n1, sequences=1, orbit_reps=1, histogram={}, high_index=[])


@pytest.mark.parametrize(
    "jobs, cpu_count, pending, expected",
    [
        (1, 8, 100, 1),
        (4, 2, 100, 2),
        (8, None, 100, 1),
        (8, 16, 3, 3),
        (2, 2, 1, 1),
        (2, 2, 0, 0),
        (10**6, 4, 1000, 4),
    ],
)
def test_pool_workers(monkeypatch, pools, jobs, cpu_count, pending, expected):
    """The pool gets at most ``jobs`` and the cores; its tasks, at most one per pending block.

    ``expected`` is how many processes the run can keep busy: at most 1 means
    the blocks run in-process and no pool starts.
    """
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpu_count)
    monkeypatch.setattr(harness, "_leading_terms", lambda n: list(range(1, pending + 1)))
    monkeypatch.setattr(harness, "_scan_block_impl", fake_scan)
    (report,) = harness.verify_moduli([factorize(7)], VerifyOptions(jobs=jobs))
    assert report.complete and report.sequences_total == pending
    if expected <= 1:
        assert pools == []
    else:
        (pool,) = pools
        assert pool.max_workers == min(jobs, cpu_count or 1)
        assert min(pool.max_workers, pool.tasks) == expected


@pytest.mark.parametrize("jobs, pending", [(2, 100), (2, 5), (3, 30), (4, 9)])
def test_a_lone_modulus_is_dealt_into_tasks_per_worker(monkeypatch, pools, jobs, pending):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: jobs)
    monkeypatch.setattr(harness, "_leading_terms", lambda n: list(range(1, pending + 1)))
    monkeypatch.setattr(harness, "_scan_block_impl", fake_scan)
    (report,) = harness.verify_moduli([factorize(7)], VerifyOptions(jobs=jobs))
    assert report.complete and report.sequences_total == pending
    (pool,) = pools
    tasks = min(pending, jobs * harness._TASKS_PER_WORKER)
    assert [blocks for _, _, blocks, _ in pool.calls] == [
        list(range(1 + i, pending + 1, tasks)) for i in range(tasks)
    ]


def test_a_range_run_deals_one_task_per_modulus(pools, tmp_path):
    """Each modulus goes to one worker whole, one task per modulus."""
    moduli = list(range(12, 25))
    ckpt = tmp_path / "sweep.ckpt"
    # A resumed first modulus: only its unlogged blocks are dealt, and no task for n = 13.
    partial = harness.verify_moduli(map(factorize, [12, 13]), VerifyOptions(checkpoint_path=ckpt))
    assert [r.complete for r in partial] == [True, True]
    blocks = tmp_path / "sweep.ckpt.blocks"
    blocks.write_text("".join(blocks.read_text().splitlines(keepends=True)[:3]))  # n = 12, blocks 1-3
    reports = list(harness.verify_moduli(
        map(factorize, moduli), VerifyOptions(jobs=2, checkpoint_path=ckpt)
    ))
    (pool,) = pools
    assert pool.calls == [(12, 4, [4, 6], False)] + [
        (n, 4, _leading_terms(n), False) for n in moduli[1:]
    ]
    assert pool.peak == 2 * harness._TASKS_PER_WORKER
    serial = list(harness.verify_moduli(map(factorize, moduli)))
    assert [r.n for r in reports] == moduli
    for resumed, fresh in zip(reports, serial):
        assert_same_report(resumed, fresh)


@pytest.mark.parametrize("count, tasks", [(3, 6), (20, 20)])  # 8 // 3 = 2 tasks per modulus
def test_a_pooled_run_keeps_at_most_tasks_per_worker_outstanding(monkeypatch, pools, count, tasks):
    monkeypatch.setattr(harness, "_scan_block_impl", fake_scan)
    moduli = list(range(8, 8 + count))  # 8, 9 and 10 have two blocks or more each
    reports = list(harness.verify_moduli(map(factorize, moduli), VerifyOptions(jobs=2)))
    assert [(r.n, r.complete, r.sequences_total) for r in reports] == [
        (n, True, len(_leading_terms(n))) for n in moduli
    ]
    (pool,) = pools
    assert pool.tasks == tasks
    assert pool.peak == min(tasks, 2 * harness._TASKS_PER_WORKER)


def test_an_orbit_run_over_primes_starts_the_pool(pools):
    primes = [11, 13, 17, 19, 23]
    opts = VerifyOptions(orbits=True, jobs=2)
    reports = list(harness.verify_moduli(map(factorize, primes), opts))
    (pool,) = pools
    assert pool.calls == [(n, 4, [1], True) for n in primes]
    serial = harness.verify_moduli(map(factorize, primes), VerifyOptions(orbits=True))
    for pooled, fresh in zip(reports, serial, strict=True):
        assert_same_report(pooled, fresh)


def deferred_pool(monkeypatch, pick):
    """Patch in a two-worker pool whose tasks run only as the run waits for one.

    ``pick`` gets the outstanding futures, in submission order, and returns
    the one to complete (or raises).  Returns every submitted future.
    """
    submitted = {}

    class DeferredPool:
        def __init__(self, max_workers, initializer):
            pass

        def submit(self, fn, *args):
            future = Future()
            submitted[future] = (fn, args)
            return future

        def shutdown(self, cancel_futures):
            pass

    def wait(futures, return_when):
        future = pick(list(futures))
        fn, args = submitted[future]
        future.set_result(fn(*args))
        return {future}, set(futures) - {future}

    monkeypatch.setattr(harness, "ProcessPoolExecutor", DeferredPool)
    monkeypatch.setattr(harness, "wait", wait)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    return submitted


def test_a_pooled_run_reports_the_serial_histogram_order(monkeypatch):
    """Blocks arrive in completion order, but a report's histogram keys never follow it."""
    moduli = list(map(factorize, range(7, 31)))
    serial = list(harness.verify_moduli(moduli))
    pooled = list(harness.verify_moduli(moduli, VerifyOptions(jobs=2)))
    assert [list(r.rule_histogram.items()) for r in pooled] == [
        list(r.rule_histogram.items()) for r in serial
    ]
    # A lone modulus is dealt into tasks; the last one dealt completes first.
    deferred_pool(monkeypatch, lambda futures: futures[-1])
    (report,) = harness.verify_moduli([factorize(30)], VerifyOptions(jobs=2))
    assert list(report.rule_histogram.items()) == list(serial[30 - 7].rule_histogram.items())


def test_a_pooled_run_refills_its_queue_as_each_task_completes(monkeypatch):
    """The queue is topped up after every completion, so it never drains at a modulus boundary."""
    outstanding = []

    def oldest(futures):
        outstanding.append(len(futures))
        return futures[0]

    deferred_pool(monkeypatch, oldest)
    monkeypatch.setattr(harness, "_scan_block_impl", fake_scan)
    moduli = list(range(7, 27))
    reports = list(harness.verify_moduli(map(factorize, moduli), VerifyOptions(jobs=2)))
    assert [(r.n, r.complete) for r in reports] == [(n, True) for n in moduli]
    limit = 2 * harness._TASKS_PER_WORKER
    assert outstanding == [min(limit, len(moduli) - i) for i in range(len(moduli))]


def test_an_interrupt_keeps_the_blocks_of_a_later_modulus(monkeypatch, tmp_path):
    """Ctrl-C after a later modulus's task completed: its blocks stay logged for the resume."""
    moduli = [7, 8, 9, 10, 11]

    def latest_then_interrupt(futures):
        if any(future.done() for future in submitted):
            raise KeyboardInterrupt  # while the run waits for its next task
        return futures[-1]  # n = 11's task completes first

    submitted = deferred_pool(monkeypatch, latest_then_interrupt)
    ckpt = tmp_path / "sweep.ckpt"
    reports = list(harness.verify_moduli(
        map(factorize, moduli), VerifyOptions(jobs=2, checkpoint_path=ckpt)
    ))
    assert [(r.n, r.complete) for r in reports] == [(7, False)]
    assert [future.cancelled() for future in submitted] == [True] * 4 + [False]
    blocks = tmp_path / "sweep.ckpt.blocks"
    assert block_keys(blocks) == [(11, 4, 1)]
    monkeypatch.undo()
    resumed = list(harness.verify_moduli(map(factorize, moduli), VerifyOptions(checkpoint_path=ckpt)))
    fresh = list(harness.verify_moduli(map(factorize, moduli)))
    for report, serial in zip(resumed, fresh, strict=True):
        assert report.complete
        assert_same_report(report, serial)
    assert sorted(block_keys(blocks)) == [(n, 4, d) for n in moduli for d in _leading_terms(n)]


def test_closing_a_run_early_stops_its_workers():
    run = harness.verify_moduli(map(factorize, [30, 31, 32]), VerifyOptions(jobs=2))
    assert next(run).complete
    run.close()
    assert multiprocessing.active_children() == []


def block_keys(blocks):
    """The (n, k, n1) of each checkpoint record, in file order."""
    return [(r["n"], r["k"], r["n1"]) for r in map(json.loads, blocks.read_text().splitlines())]


def assert_same_report(resumed, fresh):
    for field in dataclasses.fields(VerificationReport):
        if field.name != "elapsed":
            assert getattr(resumed, field.name) == getattr(fresh, field.name), field.name


def sweep_interrupted_at_block_6(monkeypatch, ckpt):
    """verify n = 30 with a checkpoint, stopped by Ctrl-C as block 6 starts.

    Its blocks are the divisors 1, 2, 3, 5, 6, 10 and 15, so four are logged.
    """
    scan = harness._scan_block_impl

    def interrupting(n, k, n1, orbits):
        if n1 == 6:
            raise KeyboardInterrupt
        return scan(n, k, n1, orbits)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_scan_block_impl", interrupting)
        return verify_conjecture(factorize(30), VerifyOptions(checkpoint_path=ckpt))


def test_an_interrupted_sweep_ends_the_run(monkeypatch):
    scan = harness._scan_block_impl

    def interrupting(n, k, n1, orbits):
        if (n, n1) == (12, 3):
            raise KeyboardInterrupt
        return scan(n, k, n1, orbits)

    monkeypatch.setattr(harness, "_scan_block_impl", interrupting)
    reports = list(harness.verify_moduli(map(factorize, [7, 12, 13])))
    assert [(r.n, r.complete) for r in reports] == [(7, True), (12, False)]


class TestCheckpointResume:
    def test_resume_reproduces_full_report(self, monkeypatch, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        blocks = tmp_path / "sweep.ckpt.blocks"
        partial = sweep_interrupted_at_block_6(monkeypatch, ckpt)
        assert not partial.complete
        assert not ckpt.exists()
        assert block_keys(blocks) == [(30, 4, d) for d in (1, 2, 3, 5)]
        resumed = verify_conjecture(factorize(30), VerifyOptions(checkpoint_path=ckpt))
        assert resumed.complete
        assert_same_report(resumed, verify_conjecture(factorize(30)))
        assert not ckpt.exists()
        assert block_keys(blocks) == [(30, 4, d) for d in _leading_terms(30)]

    def test_one_fsync_per_sweep_that_appends(self, monkeypatch, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        synced = []
        fsync = harness.os.fsync
        monkeypatch.setattr(harness.os, "fsync", lambda fd: synced.append(fd) or fsync(fd))
        sweep_interrupted_at_block_6(monkeypatch, ckpt)
        assert len(synced) == 1  # the interrupted sweep's four records
        opts = VerifyOptions(checkpoint_path=ckpt)
        verify_conjecture(factorize(30), opts)
        assert len(synced) == 2  # the remaining three
        verify_conjecture(factorize(30), opts)
        assert len(synced) == 2  # nothing left to append, nothing to sync

    def test_stale_marker_file_is_ignored(self, monkeypatch, tmp_path):
        # Older releases also wrote one "n k n1" line per block at FILE itself.
        ckpt = tmp_path / "sweep.ckpt"
        sweep_interrupted_at_block_6(monkeypatch, ckpt)
        markers = "".join(f"30 4 {d}\n" for d in (1, 2, 3, 5))
        ckpt.write_text(markers)
        resumed = verify_conjecture(factorize(30), VerifyOptions(checkpoint_path=ckpt))
        assert_same_report(resumed, verify_conjecture(factorize(30)))
        assert ckpt.read_text() == markers

    @pytest.mark.parametrize("cut", ["half", "no_newline", "garbled"])
    def test_torn_last_record_is_dropped(self, monkeypatch, tmp_path, cut):
        ckpt = tmp_path / "sweep.ckpt"
        sweep_interrupted_at_block_6(monkeypatch, ckpt)
        blocks = tmp_path / "sweep.ckpt.blocks"
        last = blocks.read_bytes().splitlines(keepends=True)[-1]
        torn = {
            "half": last[: len(last) // 2],
            "no_newline": last[:-1],
            "garbled": last[: len(last) // 2] + b"\n",
        }[cut]
        with open(blocks, "ab") as fh:
            fh.write(torn)
        resumed = verify_conjecture(factorize(30), VerifyOptions(checkpoint_path=ckpt))
        fresh = verify_conjecture(factorize(30))
        for field in dataclasses.fields(VerificationReport):
            if field.name != "elapsed":
                assert getattr(resumed, field.name) == getattr(fresh, field.name), field.name
        records = [json.loads(line) for line in blocks.read_text().splitlines()]
        assert [r["n1"] for r in records] == _leading_terms(30)

    def test_a_log_cut_at_any_byte_loads_its_complete_records(self, tmp_path):
        """A crash can tear the log's last append at any byte.  Cut a real
        log at every offset: ``load`` returns exactly the tallies of the
        records complete before the cut, and truncates the file to them."""
        ckpt = tmp_path / "sweep.ckpt"
        argv = ["verify", "--n-range", "7:14", "--all-moduli", "--checkpoint-path", str(ckpt)]
        assert run(argv, out=io.StringIO()) == 0
        data = ckpt.with_name("sweep.ckpt.blocks").read_bytes()
        lines = data.splitlines(keepends=True)
        assert len(lines) == 19

        def summary(records):
            # (blocks, sequences, orbit_reps, histogram, high_index) per sweep
            sweeps = {}
            for r in records:
                sweep = sweeps.setdefault((r["n"], r["k"], r["orbits"]), [set(), 0, 0, {}, []])
                sweep[0].add(r["n1"])
                sweep[1] += r["sequences"]
                sweep[2] += r["orbit_reps"]
                for key, count in r["histogram"].items():
                    sweep[3][key] = sweep[3].get(key, 0) + count
                sweep[4] += [(tuple(terms), index) for terms, index in r["high_index"]]
            return sweeps

        records = [json.loads(line) for line in lines]
        ends = [0]
        for line in lines:
            ends.append(ends[-1] + len(line))
        cut_log = tmp_path / "cut.ckpt.blocks"
        whole = 0  # complete records before the cut
        for cut in range(len(data) + 1):
            if whole < len(lines) and ends[whole + 1] <= cut:
                whole += 1
            cut_log.write_bytes(data[:cut])
            loaded = harness.Checkpoint(tmp_path / "cut.ckpt").load()
            got = {
                key: [t.done, t.sequences, t.orbit_reps, t.histogram, t.high_index]
                for key, t in loaded.items()
            }
            assert got == summary(records[:whole]), cut
            assert cut_log.read_bytes() == data[: ends[whole]], cut

    def test_corrupt_inner_record_raises(self, monkeypatch, tmp_path, capsys):
        ckpt = tmp_path / "sweep.ckpt"
        sweep_interrupted_at_block_6(monkeypatch, ckpt)
        blocks = tmp_path / "sweep.ckpt.blocks"
        lines = blocks.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:10] + b"\n"
        blocks.write_bytes(b"".join(lines))
        with pytest.raises(json.JSONDecodeError):
            verify_conjecture(factorize(30), VerifyOptions(checkpoint_path=ckpt))
        code = run(["verify", "--n", "30", "--checkpoint-path", str(ckpt)], out=io.StringIO())
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
        assert str(blocks) in err and "line 3 column 11" in err
        assert blocks.read_bytes() == b"".join(lines)

    def test_a_fault_at_a_line_end_names_that_line(self, tmp_path, capsys):
        # The decoder looks for the value past the newline of '{"bad": ', so
        # its own position is on the next line, a valid record.
        ckpt = tmp_path / "sweep.ckpt"
        argv = ["verify", "--n", "7", "--checkpoint-path", str(ckpt)]
        assert run(argv, out=io.StringIO()) == 0
        blocks = tmp_path / "sweep.ckpt.blocks"
        log = b'{"bad": \n' + blocks.read_bytes()
        blocks.write_bytes(log)
        code = run(argv, out=io.StringIO())
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
        assert str(blocks) in err and "line 1 column 9" in err
        assert blocks.read_bytes() == log

    def test_non_utf8_inner_record_names_its_line(self, monkeypatch, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        sweep_interrupted_at_block_6(monkeypatch, ckpt)
        blocks = tmp_path / "sweep.ckpt.blocks"
        lines = blocks.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:4] + b"\xff" + lines[1][5:]
        blocks.write_bytes(b"".join(lines))
        with pytest.raises(json.JSONDecodeError, match="line 2 column 5") as raised:
            verify_conjecture(factorize(30), VerifyOptions(checkpoint_path=ckpt))
        assert str(blocks) in str(raised.value)

    @pytest.mark.parametrize("schema", [None, 1, 2, 3, SCHEMA + 1])
    def test_record_of_another_schema_is_refused(self, tmp_path, capsys, schema):
        # A full-sweep record of block 1, a divisor block as schema 4 names
        # them.  Its labels came from the staged pipeline on every sequence
        # before the schema field, from each lead image in schema 3, and
        # from each orbit representative in schema 4.
        record = {
            "high_index": [], "histogram": {"INTERVAL": 29, "ONE_SIDED": 14, "SUM_N": 48,
                                            "TWO_OF_THREE": 1},
            "k": 4, "n": 25, "n1": 1, "orbit_reps": 92, "orbits": False, "sequences": 92,
        }
        if schema is not None:
            record["schema"] = schema
        ckpt = tmp_path / "sweep.ckpt"
        blocks = tmp_path / "sweep.ckpt.blocks"
        blocks.write_text(json.dumps(record, sort_keys=True) + "\n")
        with pytest.raises(ValueError, match="checkpoint schema"):
            verify_conjecture(factorize(25), VerifyOptions(checkpoint_path=ckpt))
        code = run(["verify", "--n", "25", "--checkpoint-path", str(ckpt)], out=io.StringIO())
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
        assert blocks.read_text() == json.dumps(record, sort_keys=True) + "\n"

    def test_schema_2_orbit_log_is_refused(self, tmp_path, capsys):
        # Schema 2 orbit records counted the tuples of their own block, one
        # block per leading term; schema 3 ones count whole orbits.
        record = {
            "high_index": [], "histogram": {"INTERVAL": 2, "SUM_N": 29}, "k": 4, "n": 25,
            "n1": 1, "orbit_reps": 31, "orbits": True, "schema": 2, "sequences": 92,
        }
        ckpt = tmp_path / "sweep.ckpt"
        blocks = tmp_path / "sweep.ckpt.blocks"
        blocks.write_text(json.dumps(record, sort_keys=True) + "\n")
        argv = ["verify", "--orbits", "--n", "25", "--checkpoint-path", str(ckpt)]
        code = run(argv, out=io.StringIO())
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and "schema 2" in err
        assert blocks.read_text() == json.dumps(record, sort_keys=True) + "\n"

    def test_records_carry_the_schema(self, monkeypatch, tmp_path):
        sweep_interrupted_at_block_6(monkeypatch, tmp_path / "sweep.ckpt")
        records = (tmp_path / "sweep.ckpt.blocks").read_text().splitlines()
        assert [json.loads(r)["schema"] for r in records] == [harness.CHECKPOINT_SCHEMA] * 4

    @pytest.mark.parametrize(
        "record",
        [
            {"schema": SCHEMA},
            [1, 2],
            {"schema": SCHEMA, "n": 25, "k": 4, "orbits": False, "n1": 1, "orbit_reps": 92,
             "histogram": {}, "high_index": []},
            {"schema": SCHEMA, "n": 25, "k": 4, "orbits": False, "n1": 1, "sequences": 92,
             "orbit_reps": 0, "histogram": {"SUM_N": "x"}, "high_index": []},
            {"schema": SCHEMA, "n": 25, "k": 4, "orbits": False, "n1": 1, "sequences": 92,
             "orbit_reps": 0, "histogram": {}, "high_index": [[[1, 1, 1, 22]]]},
            {"schema": SCHEMA, "n": 25, "k": 4, "orbits": False, "n1": 999, "sequences": 5,
             "orbit_reps": 0, "histogram": {}, "high_index": []},
            {"schema": SCHEMA, "n": 49, "k": 4, "orbits": False, "n1": 999, "sequences": 5,
             "orbit_reps": 0, "histogram": {}, "high_index": []},
            {"schema": SCHEMA, "n": 25, "k": 4, "orbits": True, "n1": 2, "sequences": 5,
             "orbit_reps": 0, "histogram": {}, "high_index": []},
            {"schema": SCHEMA, "n": 25, "k": 4, "orbits": False, "n1": 2, "sequences": 5,
             "orbit_reps": 0, "histogram": {}, "high_index": []},
            {"schema": SCHEMA, "n": 25, "k": 4, "orbits": False, "n1": 1, "sequences": True,
             "orbit_reps": 0, "histogram": {}, "high_index": []},
            {"schema": SCHEMA, "n": 25, "k": 4, "orbits": False, "n1": 1, "sequences": 92,
             "orbit_reps": 0, "histogram": {}, "high_index": [[[1, 1, 1, 22.5], 2]]},
        ],
        ids=["fields_missing", "not_an_object", "no_sequences", "count_not_int",
             "high_index_not_a_pair", "leading_term_out_of_range",
             "another_modulus_leading_term_out_of_range", "orbit_leading_term_not_a_divisor",
             "full_leading_term_not_a_divisor",
             "count_is_a_bool", "high_index_term_not_int"],
    )
    def test_malformed_record_is_refused(self, tmp_path, capsys, record):
        ckpt = tmp_path / "sweep.ckpt"
        blocks = tmp_path / "sweep.ckpt.blocks"
        blocks.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match="malformed checkpoint record"):
            verify_conjecture(factorize(25), VerifyOptions(checkpoint_path=ckpt))
        code = run(["verify", "--n", "25", "--checkpoint-path", str(ckpt)], out=io.StringIO())
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
        assert str(blocks) in err
        assert blocks.read_text() == json.dumps(record) + "\n"

    def test_a_log_holding_every_block_twice_counts_each_once(self, tmp_path):
        # A modulus listed twice is swept in full twice, and logs every block twice.
        ckpt = tmp_path / "sweep.ckpt"
        opts = VerifyOptions(checkpoint_path=ckpt)
        twice = list(harness.verify_moduli(map(factorize, [25, 25]), opts))
        assert [r.complete for r in twice] == [True, True]
        blocks = tmp_path / "sweep.ckpt.blocks"
        assert block_keys(blocks) == [(25, 4, 1), (25, 4, 5)] * 2
        resumed = verify_conjecture(factorize(25), opts)
        fresh = verify_conjecture(factorize(25))
        assert resumed.complete and resumed.sequences_total == 624
        assert_same_report(resumed, fresh)
        assert len(block_keys(blocks)) == 4  # the resume ran no block

    def test_orbit_mode_invalidates_blocks(self, monkeypatch, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        sweep_interrupted_at_block_6(monkeypatch, ckpt)
        orbity = verify_conjecture(
            factorize(30), VerifyOptions(checkpoint_path=ckpt, orbits=True)
        )
        fresh = verify_conjecture(factorize(30), VerifyOptions(orbits=True))
        assert orbity.rule_histogram == fresh.rule_histogram
        assert orbity.orbits_total == fresh.orbits_total


class TestSearchHighIndex:
    def test_n10_includes_literal_example(self):
        findings = {
            (s.terms, index) for s, index in search_high_index(factorize(10))
        }
        assert ((2, 5, 6, 7), 2) in findings

    def test_orbit_dedup_keeps_lex_min(self):
        findings = search_high_index(factorize(10), orbits=True)
        reps = [s.terms for s, _ in findings]
        assert (1, 5, 6, 8) in reps
        assert (2, 5, 6, 7) not in reps
        for s, index in findings:
            assert orbit_canonical(s).terms == s.terms
            assert sequence_index(s).value == index

    def test_clean_modulus(self):
        assert search_high_index(factorize(35)) == []

    def test_short_lengths_are_clean(self):
        assert search_high_index(factorize(25), k=3) == []

    def test_indices_are_exact(self):
        for s, index in search_high_index(factorize(12)):
            assert sequence_index(s).value == index

    @pytest.mark.parametrize("n", [n for n in range(6, 61) if math.gcd(n, 6) != 1])
    def test_orbit_search_matches_naive_dedup(self, n):
        group = factorize(n)
        expected = sorted(
            {(naive_orbit_canonical(s.terms, n), index) for s, index in search_high_index(group)}
        )
        got = [(s.terms, index) for s, index in search_high_index(group, orbits=True)]
        assert got == expected

    @pytest.mark.parametrize("k, top", [(3, 30), (4, 30), (5, 20)])
    def test_full_search_matches_naive_oracle(self, k, top):
        # Both modes read the orbit representatives, so full mode, which
        # expands them, is checked against a per-tuple brute force.
        for n in range(2, top + 1):
            expected = []
            for terms in sorted(naive_minimal_enumeration(n, k)):
                index, _ = naive_index(terms, n)
                if index > 1:
                    expected.append((terms, index))
            got = [(s.terms, index) for s, index in search_high_index(factorize(n), k)]
            assert got == expected, n

    @pytest.mark.parametrize(
        "n, k, full, orbits",
        [(48, 4, 116, 25), (60, 4, 416, 60), (66, 4, 112, 9), (72, 4, 180, 34),
         (35, 5, 2938, 129), (11, 5, 12, 2)],
    )
    def test_finding_counts_are_pinned(self, n, k, full, orbits):
        group = factorize(n)
        assert len(search_high_index(group, k)) == full
        assert len(search_high_index(group, k, orbits=True)) == orbits

    def test_orbit_size_mismatch_raises(self, monkeypatch):
        # The search and a full sweep expand orbits through
        # ``_orbit_members``, which checks each against the |Stab| that the
        # walk itself counted, so a wrong count from one block, block 1's
        # kernel or block 2's generic test, is a bug and both stop rather
        # than report a short orbit.  Both blocks hold high-index
        # representatives at n = 12.
        tests, kernel = harness._orbit_tests, harness._block_one_quadruples

        def doubling_tests(n, d):
            keep, least = tests(n, d)
            return (keep, lambda terms: 2 * least(terms)) if d == 2 else (keep, least)

        def doubling_kernel(n):
            return ((terms, 2 * fixed) for terms, fixed in kernel(n))

        patches = [("_block_one_quadruples", doubling_kernel), ("_orbit_tests", doubling_tests)]
        for name, doubling in patches:
            with monkeypatch.context() as patch:
                patch.setattr(harness, name, doubling)
                found = search_high_index(factorize(12), orbits=True)
                assert {s.terms[0] for s, _ in found} == {1, 2}
                with pytest.raises(RuntimeError, match="orbit of"):
                    search_high_index(factorize(12))
                # A full sweep expands every orbit through the same check.
                with pytest.raises(RuntimeError, match="orbit of"):
                    verify_conjecture(factorize(12))
