import dataclasses
import hashlib
import io
import json
import math
import multiprocessing
import random

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
    _canonical_terms,
    _minimal_tuples,
    _orbit_reps,
    effective_jobs,
)

from oracles import (
    naive_index,
    naive_minimal_enumeration,
    naive_orbit_canonical,
    naive_orbit_reps,
    naive_stabilizer_size,
)


SCHEMA = harness.CHECKPOINT_SCHEMA


def terms_of(n, k=4):
    return {s.terms for s in enumerate_minimal(factorize(n), k)}


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
                assert _canonical_terms(terms, n)[0] == rep_of[terms], (n, terms)

    def test_kernel_matches_oracle_with_zero_term(self):
        rng = random.Random(7)
        for _ in range(3000):
            n = rng.randint(2, 90)
            terms = tuple(sorted([rng.randint(1, n) for _ in range(rng.randint(0, 5))] + [n]))
            expected = naive_orbit_canonical(terms, n)
            assert _canonical_terms(terms, n)[0] == expected, (n, terms)
            assert orbit_canonical(Sequence.over(n, terms)).terms == expected

    @pytest.mark.parametrize("k, top", [(4, 60), (5, 30)])
    def test_stabilizer_size_matches_oracle(self, k, top):
        for n in range(2, top + 1):
            for rep in _orbit_reps(n, k):
                assert _canonical_terms(rep, n)[1] == naive_stabilizer_size(rep, n), (n, rep)

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

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_orbit_sweep_counts_every_sequence(self, k):
        for n in range(2, 31):
            report = verify_conjecture(factorize(n), VerifyOptions(k=k, orbits=True))
            assert report.sequences_total == sum(1 for _ in _minimal_tuples(n, k)), (n, k)

    def test_orbit_sweep_enumerates_only_divisor_led_blocks(self, monkeypatch, tmp_path):
        leading_terms = []
        tuples = harness._minimal_tuples

        def recording(n, k, leading=None):
            leading_terms.extend(leading)
            return tuples(n, k, leading)

        monkeypatch.setattr(harness, "_minimal_tuples", recording)
        ckpt = tmp_path / "sweep.ckpt"
        argv = ["verify", "--orbits", "--n", "77", "--checkpoint-path", str(ckpt)]
        assert run(argv, out=io.StringIO()) == 0
        assert sorted(leading_terms) == [1, 7, 11]
        assert block_keys(tmp_path / "sweep.ckpt.blocks") == [(77, 4, 1), (77, 4, 7), (77, 4, 11)]



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

    @pytest.mark.parametrize("n", range(6, 15))
    def test_generic_k_high_index_branch(self, n):
        report = verify_conjecture(factorize(n), VerifyOptions(k=5))
        expected = []
        for terms in sorted(naive_minimal_enumeration(n, 5)):
            index, _ = naive_index(terms, n)
            if index >= 2:
                expected.append((terms, int(index)))
        assert report.high_index == tuple(expected)
        assert set(report.rule_histogram) <= {"EXHAUSTIVE", HIGH_INDEX_KEY}
        assert report.rule_histogram.get(HIGH_INDEX_KEY, 0) == len(expected)
        assert sum(report.rule_histogram.values()) == report.sequences_total


# Proof-rule labels as the staged pipeline produces them on every sequence.
# A hot-path change must not relabel a single sequence, and a change to the
# candidate pool may only move CANDIDATE:* tags.  The index-2 findings of
# n = 30 (140) and n = 75 (32) are pinned by count and by the SHA-256 of
# their JSON list.
GOLDEN_HISTOGRAMS = {
    30: {
        "CANDIDATE:const": 6, "CANDIDATE:interval": 228, "HIGH_INDEX": 140,
        "INTERVAL": 76, "ONE_SIDED": 198, "SUM_3N": 206, "SUM_N": 206,
        "TWO_OF_THREE": 22,
    },
    35: {
        "CANDIDATE:const": 32, "CANDIDATE:interval": 304, "EXHAUSTIVE": 12,
        "INTERVAL": 388, "ONE_SIDED": 348, "SUM_3N": 321, "SUM_N": 321,
        "TWO_OF_THREE": 8,
    },
    49: {
        "CANDIDATE:const": 38, "CANDIDATE:interval": 786, "EXHAUSTIVE": 12,
        "INTERVAL": 1320, "ONE_SIDED": 916, "SUM_3N": 864, "SUM_N": 864,
    },
    55: {
        "CANDIDATE:const": 94, "CANDIDATE:interval": 1196, "EXHAUSTIVE": 72,
        "INTERVAL": 1722, "ONE_SIDED": 1280, "SUM_3N": 1215, "SUM_N": 1215,
        "TWO_OF_THREE": 10,
    },
    75: {
        "CANDIDATE:const": 444, "CANDIDATE:interval": 4250, "EXHAUSTIVE": 614,
        "HIGH_INDEX": 32, "INTERVAL": 2462, "ONE_SIDED": 3162, "SUM_3N": 3042,
        "SUM_N": 3042, "TWO_OF_THREE": 292,
    },
    77: {
        "CANDIDATE:const": 244, "CANDIDATE:interval": 3116, "EXHAUSTIVE": 230,
        "INTERVAL": 5186, "ONE_SIDED": 3416, "SUM_3N": 3289, "SUM_N": 3289,
        "TWO_OF_THREE": 2,
    },
}
GOLDEN_HIGH_INDEX = {
    30: (140, "9a807639115609a85c87bdbfdd0808c606f0dd01639dcc789eedc12ec8c722e3"),
    75: (32, "3ca8d210764946e0a217bcfd8637e85519dfc9c8fc68b9d5da68389102b775e3"),
}


# The same sweeps' rule_histogram, where find_witness runs the pipeline on
# each sequence's lead image and the sequence carries that image's label.
GOLDEN_TRANSPORTED = {
    30: {
        "CANDIDATE:interval": 52, "HIGH_INDEX": 140, "INTERVAL": 158,
        "ONE_SIDED": 102, "SUM_N": 572, "TWO_OF_THREE": 58,
    },
    35: {"INTERVAL": 539, "ONE_SIDED": 247, "SUM_N": 912, "TWO_OF_THREE": 36},
    49: {"INTERVAL": 1658, "ONE_SIDED": 622, "SUM_N": 2520},
    55: {"INTERVAL": 2328, "ONE_SIDED": 898, "SUM_N": 3539, "TWO_OF_THREE": 39},
    75: {
        "HIGH_INDEX": 32, "INTERVAL": 5249, "ONE_SIDED": 2235, "SUM_N": 8928,
        "TWO_OF_THREE": 896,
    },
    77: {"INTERVAL": 6672, "ONE_SIDED": 2501, "SUM_N": 9599},
}
# verify --orbits: (orbits_total, rule_histogram), as before lead images.
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
    # n = 36: lead images reach the pool, and its hits are interval members
    report = verify_conjecture(factorize(36))
    assert report.rule_histogram == {
        "CANDIDATE:interval": 9, "HIGH_INDEX": 84, "INTERVAL": 464,
        "ONE_SIDED": 253, "SUM_N": 999, "TWO_OF_THREE": 75,
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


def test_every_sweep_starts_with_a_cold_memo(monkeypatch):
    images = []
    pipeline = witness._pipeline

    def counting(s):
        if s.n == 77:  # content division recurses at smaller moduli
            images.append(s.terms)
        return pipeline(s)

    monkeypatch.setattr(witness, "_pipeline", counting)
    first = verify_conjecture(factorize(77))
    calls = len(images)
    second = verify_conjecture(factorize(77))
    assert calls == len(images) - calls == len(set(images)) == 970
    assert first.rule_histogram == second.rule_histogram
    assert witness._MEMO == {}


@pytest.mark.parametrize(
    "jobs, cpu_count, pending, expected",
    [
        (1, 8, 100, 1),
        (4, 2, 100, 2),
        (8, None, 100, 1),
        (8, 16, 3, 3),
        (2, 2, 1, 1),
        (2, 2, 0, 0),
        (10**6, 4, 10**6, 4),
    ],
)
def test_effective_jobs(jobs, cpu_count, pending, expected):
    assert effective_jobs(jobs, cpu_count, pending) == expected


def test_a_pool_worker_empties_its_memo_at_each_new_modulus(monkeypatch):
    monkeypatch.setattr(harness, "_worker_modulus", 0)
    witness._MEMO.clear()
    try:
        harness._pooled_blocks(77, 4, [1], False)
        kept = next(iter(witness._MEMO))
        assert kept[0] == 77
        harness._pooled_blocks(77, 4, [2], False)  # same modulus: the memo is kept
        assert kept in witness._MEMO
        harness._pooled_blocks(35, 4, [2], False)
        assert witness._MEMO and not any(n == 77 for n, _ in witness._MEMO)
    finally:
        witness._MEMO.clear()


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
    """verify n = 25 with a checkpoint, stopped by Ctrl-C as block 6 starts."""
    scan = harness._scan_block_impl

    def interrupting(n, k, n1, orbits):
        if n1 == 6:
            raise KeyboardInterrupt
        return scan(n, k, n1, orbits)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_scan_block_impl", interrupting)
        return verify_conjecture(factorize(25), VerifyOptions(checkpoint_path=ckpt))


def test_an_interrupted_sweep_ends_the_run(monkeypatch):
    scan = harness._scan_block_impl

    def interrupting(n, k, n1, orbits):
        if (n, n1) == (11, 3):
            raise KeyboardInterrupt
        return scan(n, k, n1, orbits)

    monkeypatch.setattr(harness, "_scan_block_impl", interrupting)
    reports = list(harness.verify_moduli(map(factorize, [7, 11, 13])))
    assert [(r.n, r.complete) for r in reports] == [(7, True), (11, False)]


class TestCheckpointResume:
    def test_resume_reproduces_full_report(self, monkeypatch, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        blocks = tmp_path / "sweep.ckpt.blocks"
        partial = sweep_interrupted_at_block_6(monkeypatch, ckpt)
        assert not partial.complete
        assert not ckpt.exists()
        assert block_keys(blocks) == [(25, 4, i) for i in range(1, 6)]
        resumed = verify_conjecture(factorize(25), VerifyOptions(checkpoint_path=ckpt))
        assert resumed.complete
        assert_same_report(resumed, verify_conjecture(factorize(25)))
        assert not ckpt.exists()
        assert block_keys(blocks) == [(25, 4, i) for i in range(1, 25)]

    def test_one_fsync_per_sweep_that_appends(self, monkeypatch, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        synced = []
        fsync = harness.os.fsync
        monkeypatch.setattr(harness.os, "fsync", lambda fd: synced.append(fd) or fsync(fd))
        sweep_interrupted_at_block_6(monkeypatch, ckpt)
        assert len(synced) == 1  # the interrupted sweep's five records
        opts = VerifyOptions(checkpoint_path=ckpt)
        verify_conjecture(factorize(25), opts)
        assert len(synced) == 2  # the remaining nineteen
        verify_conjecture(factorize(25), opts)
        assert len(synced) == 2  # nothing left to append, nothing to sync

    def test_stale_marker_file_is_ignored(self, monkeypatch, tmp_path):
        # Older releases also wrote one "n k n1" line per block at FILE itself.
        ckpt = tmp_path / "sweep.ckpt"
        sweep_interrupted_at_block_6(monkeypatch, ckpt)
        markers = "".join(f"25 4 {i}\n" for i in range(1, 6))
        ckpt.write_text(markers)
        resumed = verify_conjecture(factorize(25), VerifyOptions(checkpoint_path=ckpt))
        assert_same_report(resumed, verify_conjecture(factorize(25)))
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
        resumed = verify_conjecture(factorize(25), VerifyOptions(checkpoint_path=ckpt))
        fresh = verify_conjecture(factorize(25))
        for field in dataclasses.fields(VerificationReport):
            if field.name != "elapsed":
                assert getattr(resumed, field.name) == getattr(fresh, field.name), field.name
        records = [json.loads(line) for line in blocks.read_text().splitlines()]
        assert [r["n1"] for r in records] == list(range(1, 25))

    def test_corrupt_inner_record_raises(self, monkeypatch, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        sweep_interrupted_at_block_6(monkeypatch, ckpt)
        blocks = tmp_path / "sweep.ckpt.blocks"
        lines = blocks.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:10] + b"\n"
        blocks.write_bytes(b"".join(lines))
        with pytest.raises(json.JSONDecodeError):
            verify_conjecture(factorize(25), VerifyOptions(checkpoint_path=ckpt))

    @pytest.mark.parametrize("schema", [None, 1, 2, SCHEMA + 1])
    def test_record_of_another_schema_is_refused(self, tmp_path, capsys, schema):
        # A record as releases before the schema field wrote it: full-sweep
        # labels came from the staged pipeline on every sequence then.
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
        assert [json.loads(r)["schema"] for r in records] == [harness.CHECKPOINT_SCHEMA] * 5

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
        ],
        ids=["fields_missing", "not_an_object", "no_sequences", "count_not_int",
             "high_index_not_a_pair", "leading_term_out_of_range",
             "another_modulus_leading_term_out_of_range", "orbit_leading_term_not_a_divisor"],
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

    def test_orbit_mode_invalidates_blocks(self, monkeypatch, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        sweep_interrupted_at_block_6(monkeypatch, ckpt)
        orbity = verify_conjecture(
            factorize(25), VerifyOptions(checkpoint_path=ckpt, orbits=True)
        )
        fresh = verify_conjecture(factorize(25), VerifyOptions(orbits=True))
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
