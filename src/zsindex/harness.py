"""Whole-space verification: enumeration, orbits, sweeps, checkpoints.

The sequence space of one modulus is partitioned into blocks, so blocks can
run on parallel workers and completed blocks can be checkpointed.  Both
sweep modes have one block per proper divisor d of n, because every unit
orbit's least member leads with d = min gcd(t_i, n).  Each orbit block finds
its least members with one pair of tests, and ``_orbit_tests`` is the one
place that picks the pair by d.  The admission test passes or refuses a term
as it joins the prefix, so no tuple of a refused subtree is built.  The
leastness test then decides whether a tuple built is least in its orbit, and
counts its stabilizer.  For d > 1 the pair is the gcd floor, gcd(t, n) >= d
(no tuple holding a term of smaller gcd can be a least member), and
``_representative_stabilizer``, which tries the units that send one of the
tuple's gcd-d terms to d.  For block 1, which holds most tuples, every term
passes that floor, so the pair works on units instead: ``clear`` refuses a
term when some unit term t sends another term below the second term b
(t^-1 sends (1, b, ...) to an image holding 1, which then sorts below the
tuple), and ``ties`` builds only the images that tie with the tuple on b.
``_orbit_block`` yields each least member R with |Stab(R)|, so the sweep
counts each orbit's members (|orbit(R)| = phi(n) / |Stab(R)|) rather than
enumerating them.  An orbit sweep certifies R alone.  A full sweep also
expands R's orbit with ``_orbit_members``, which checks the orbit's size,
and each member gets its certificate from R's: the index is constant on an
orbit, so the reduction chain runs once per orbit.  Every gcd, inverse and
such unit is read from one per-modulus table, ``residues.lift_table``,
which both pairs and ``_orbit_members`` share.  ``orbit_canonical``, which
no sweep calls, walks every unit instead (``_least_image``).
``search_high_index`` walks the same pairs, one unit scan per
representative, and expands only the high-index orbits.  One worker pool
serves a whole ``verify_moduli`` run, however many moduli it sweeps, and its
task queue runs across moduli.  Block results, logged or new, are added
into one running tally per sweep by plain counter addition, and the report
sorts the tally's histogram keys and findings, so it is independent of
worker scheduling.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence as SequenceABC

from .certificates import HighIndexEvidence, verify_witness
from .residues import GroupOrder, _units, factorize, lift_table, units
from .sequences import (
    Sequence, _presorted, _set_modulus, _set_terms, min_transform_sum, sequence_index
)
from .witness import find_witness

HIGH_INDEX_KEY = "HIGH_INDEX"
# Version of the FILE.blocks records.  Records without it were written
# before full sweeps carried each sequence's lead-image label, so their
# histograms cannot merge with this engine's; schema 2 orbit records counted
# the tuples of their own block, where schema 3 ones count whole orbits.
# Schema 3 full-sweep records name one block per leading term and carry
# lead-image labels; schema 4 ones, like every orbit record, name a divisor
# block and carry each orbit representative's label.
CHECKPOINT_SCHEMA = 4


def _minimal_tuples(
    n: int,
    k: int,
    leading: SequenceABC[int] | None = None,
    keep: Callable[[int, tuple[int, ...]], bool] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Sorted minimal zero-sum k-tuples over [1, n-1], in lexicographic order.

    The first term is drawn from ``leading`` (default: every term).  A DFS
    keeps every prefix zero-sum free.  It tracks ``closing``, the residues
    n - s for the prefix's nonempty subset sums s, so a term t may follow
    only if it is not in ``closing``.  The k-th term is forced to minus the
    sum of the first k - 1, and the tuple is kept only if that term is at
    least the one before it.  The frame that picks the (k-2)-th term also
    closes the tuple in its own loop, with no frame of its own for the last
    two terms: it walks only the (k-1)-th terms that pass, and skips a
    (k-2)-th term that leaves none.  The forced term is never 0, since the
    whole prefix is one of its own subsets.

    No minimality test is needed afterwards.  A proper nonempty subset with
    sum 0 either misses the last term, and so lies inside the prefix, or
    holds it, and then its complement is nonempty, lies inside the prefix and
    also sums to 0; either way the prefix would hold a zero-sum subset.

    ``keep(x, held)``, if given, is an admission test: a term x joins the
    prefix only if it passes, where ``held`` is the prefix's terms after the
    lead.  Each frame's picks, the lead's included, and each closing term
    together with the forced term it leaves, are filtered by ``keep`` before
    the loop that walks them, so no tuple of a refused subtree is built.
    Without ``keep`` the kernel does no extra work per tuple.  For k = 2 the
    tuple is (t, n - t) and ``keep`` is not consulted.
    """

    def extend(
        prefix: tuple[int, ...], closing: set[int], need: int, low: int, high: int
    ) -> Iterator[tuple[int, ...]]:
        # need = -sum(prefix) mod n; this frame picks term len(prefix) + 1 in [low, high)
        last = len(prefix) == k - 3
        if last:
            # The term t leaves rest = need - t (mod n), and the closing term
            # u >= t needs u <= rest / 2 (forced term rest - u) or
            # rest < u <= (rest + n) / 2 (forced term rest + n - u).  One of
            # the two exists only for t < need with 3t <= need + n, or for
            # t > need with 3t <= need + 2n.
            picks: Iterable[int] = chain(
                range(low, min(high, need, (need + n) // 3 + 1)),
                range(max(low, need + 1), min(high, (need + 2 * n) // 3 + 1)),
            )
        else:
            picks = range(low, high)
        if keep:
            held = prefix[1:]
            picks = [t for t in picks if keep(t, held)]
        for t in picks:
            if t in closing:
                continue
            grown = {(c - t) % n for c in closing}
            grown |= closing
            grown.add(n - t)
            rest = (need - t) % n
            if not last:
                yield from extend(prefix + (t,), grown, rest, t, n)
                continue
            head = prefix + (t,)
            below: Iterable[int] = range(t, rest // 2 + 1)
            above: Iterable[int] = range(max(t, rest + 1), (rest + n) // 2 + 1)
            if keep:
                held = head[1:]
                below = [u for u in below if keep(u, held) and keep(rest - u, held + (u,))]
                above = [
                    u for u in above if keep(u, held) and keep(rest + n - u, held + (u,))
                ]
            for u in below:
                if u not in grown:
                    yield head + (u, rest - u)
            for u in above:
                if u not in grown:
                    yield head + (u, rest + n - u)

    if k < 2 or k > n:
        # The only zero-sum singleton is the zero element, excluded; and no
        # minimal zero-sum sequence over Z_n is longer than n (its Davenport
        # constant), since n terms always hold a nonempty zero-sum subset.
        return iter(())
    if leading is None:
        leading = range(1, n)
    if k == 2:
        return ((t, n - t) for t in leading if 2 * t <= n)
    return chain.from_iterable(extend((), set(), 0, t, t + 1) for t in leading)


def enumerate_minimal(n: GroupOrder, k: int = 4) -> Iterator[Sequence]:
    """Yield every minimal zero-sum length-k sequence over Z_n.

    Terms range over [1, n-1]: a sequence of length >= 2 containing the zero
    element is never minimal, and the length-1 zero sequence is trivial.
    Output is deterministic lexicographic order of the sorted term tuples.
    """
    for terms in _minimal_tuples(n.n, k):
        yield _presorted(n, terms)


def _representative_stabilizer(terms: tuple[int, ...], n: int) -> int:
    """|Stab(terms)| if sorted terms over [1, n-1] are their orbit's least member, else 0.

    A unit preserves gcd(t, n), and the smallest residue in [1, n] with gcd
    d is d itself, so the least member leads with d = min gcd(t_i, n), and
    terms that lead with anything else get 0 at once.  Otherwise only the
    lifts that send a gcd-d term to d are tried, the only units whose image
    leads with d; gcds and lifts alike are read from the modulus's
    ``lift_table``.  The test returns 0 at the first lift whose sorted image
    is smaller than the terms, without finishing the scan.  If no image is
    smaller, the terms are the least member, and the lifts that fix them
    count |Stab(terms)|: a unit u that fixes them sends the gcd-d term
    u^-1 * d to d, so it is tried, and only once, since u sends no other
    residue to d.  The identity is one of them, a lift for the leading term,
    so it is counted without being tried.

    Orbit blocks d > 1 use it as their leastness test (see ``_orbit_tests``).
    Block 1 uses a tie test that returns the same from fewer images, and
    ``search_high_index``'s orbit-size check tests the |Stab| that either
    one returned.
    """
    gcds, lifts = lift_table(n)
    d = terms[0]
    leads = set()
    for t in terms:
        g = gcds[t]
        if g < d:
            return 0
        if g == d:
            leads.add(t)
    target = list(terms)
    fixed = 1  # the identity
    for t in leads:
        for m in lifts[t]:
            if m == 1:
                continue
            image = sorted([m * x % n for x in terms])
            if image < target:
                return 0
            fixed += image == target
    return fixed


def _orbit_tests(
    n: int, d: int
) -> tuple[Callable[[int, tuple[int, ...]], bool], Callable[[tuple[int, ...]], int]]:
    """Orbit block d's admission test and leastness test, as one pair.

    ``_minimal_tuples`` filters the block's terms with the admission test,
    ``keep(x, held)``.  The leastness test returns, on every tuple the block
    builds, what ``_representative_stabilizer`` does: |Stab(terms)| if the
    terms are least in their orbit, else 0.  This is the one place that
    picks the pair by d.

    For d > 1 the pair is ``floor``, gcd(x, n) >= d, and
    ``_representative_stabilizer`` itself.  An orbit's least member leads
    with d = min gcd(t_i, n), so no tuple holding a term of smaller gcd is
    least.  The floor looks at one term at a time, so it passes tuples that
    are not least (at n = 385, k = 4, block 5 builds 1,590 tuples and 432
    are least), and each gets the exact test.

    For d = 1 every term passes the floor, so the pair works on units.  A
    unit term t sends the tuple (1, b, ...) to t^-1 * (1, b, ...), which
    holds 1, so if another term x has t^-1 * x below b, that image sorts
    below the tuple.  ``clear`` refuses x when, for the lead 1 or a held
    term h, x^-1 * h or h^-1 * x is below b (at n = 385 block 1 builds
    9,940 tuples, 9,731 of them least).  Every image t^-1 * terms of a tuple
    it passes holds 1 and no other value below b, so it sorts at or below
    the terms only on a tie, another value equal to b, that is when t * b is
    a term: ``ties`` builds only those images.  At k = 2 ``clear`` is not
    consulted; the block's one tuple (1, n - 1) is least, and ``ties``
    counts its stabilizer {1, n - 1}.

    Every gcd, inverse and lift comes from the modulus's ``lift_table``.
    """
    gcds, lifts = lift_table(n)

    def floor(x: int, held: tuple[int, ...]) -> bool:
        return gcds[x] >= d

    def ties(terms: tuple[int, ...]) -> int:
        b = terms[1]
        present = set(terms)
        fixed = 1  # the identity, never tried
        for t in present:
            if t > 1 and gcds[t] == 1 and t * b % n in present:
                (m,) = lifts[t]
                image = tuple(sorted([m * x % n for x in terms]))
                if image < terms:
                    return 0
                fixed += image == terms
        return fixed

    if d > 1:
        return floor, lambda terms: _representative_stabilizer(terms, n)
    # The inverse of each unit, 0 for the other residues; only ``clear``
    # reads it, so the blocks d > 1 never build it.
    inverse = [lift[0] if g == 1 else 0 for g, lift in zip(gcds, lifts)]

    def clear(x: int, held: tuple[int, ...]) -> bool:
        # Whether x may join the block-1 prefix (1, *held), whose second term
        # b is held[0], or x itself if nothing is held.  x is refused when,
        # for the lead 1 or a held term h, x^-1 * h or h^-1 * x is below b:
        # that image holds 1 and sorts below every tuple with this prefix.
        b = held[0] if held else x
        ix = inverse[x]
        if ix:
            if ix < b:
                return False
            for y in held:
                if ix * y % n < b:
                    return False
        for y in held:
            iy = inverse[y]
            if iy and iy * x % n < b:
                return False
        return True

    return clear, ties


def _least_image(terms: SequenceABC[int], n: int) -> tuple[tuple[int, ...], int]:
    """(R, u): the least sorted image R of terms in [1, n] under the units of
    Z_n, and the least unit u with u * terms = R.

    One ascending walk over the units; the zero element n stays n.
    """
    return min((tuple(sorted([(u * t - 1) % n + 1 for t in terms])), u) for u in _units(n))


def orbit_canonical(s: Sequence) -> Sequence:
    """Lexicographically smallest sorted sequence in the unit orbit of s."""
    return Sequence(s.modulus, _least_image(s.terms, s.n)[0])


def _leading_terms(n: int) -> list[int]:
    """The blocks of a sweep, in either mode: the proper divisors of n.

    An orbit's least member leads with a divisor of n (see
    ``_representative_stabilizer``).
    """
    return [d for d in range(1, n) if n % d == 0]


def _orbit_block(n: int, k: int, d: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Orbit block d's least members R, each with |Stab(R)|, in enumeration order.

    ``_minimal_tuples`` builds the k-tuples led by d that the block's
    admission test passes, and its leastness test keeps the least ones
    (see ``_orbit_tests``).
    """
    keep, least = _orbit_tests(n, d)
    for terms in _minimal_tuples(n, k, (d,), keep):
        fixed = least(terms)
        if fixed:
            yield terms, fixed


def _orbit_reps(n: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each unit orbit's least member R with |Stab(R)|, in enumeration order.

    Only the blocks led by a divisor d of n are enumerated
    (``_leading_terms``), each by ``_orbit_block``.
    """
    return chain.from_iterable(_orbit_block(n, k, d) for d in _leading_terms(n))


def _orbit_members(rep: tuple[int, ...], n: int, fixed: int) -> list[tuple[tuple[int, ...], int]]:
    """Each member T of R's unit orbit once, with the least unit u that sends T to R.

    The images u^-1 * R are built column-wise, one list per term of R over
    the inverses of the units u ascending, and zipped into one image per u.
    Each sorted image T is kept with the first u that gives it, the least
    unit with u * T = R, so the u ascend and R itself comes first, with
    u = 1.  The orbit holds phi(n) / |Stab(R)| members; ``fixed`` is the
    |Stab(R)| that R's orbit block counted, and the walk raises
    ``RuntimeError`` if it finds another number.  Each inverse is read from
    the modulus's ``lift_table``.
    """
    _, lifts = lift_table(n)
    unit_list = _units(n)
    inverses = [lifts[u][0] for u in unit_list]
    images = zip(*[[v * t % n for v in inverses] for t in rep])
    first: dict[tuple[int, ...], int] = {}
    for terms, u in zip(map(tuple, map(sorted, images)), unit_list):
        if terms not in first:
            first[terms] = u
    if len(first) * fixed != len(unit_list):
        raise RuntimeError(f"orbit of {rep} over {n} has {len(first)} members")
    return list(first.items())


@dataclass(slots=True)
class BlockResult:
    """Tallies for one divisor block; merging is plain addition."""

    n1: int
    sequences: int
    orbit_reps: int
    histogram: dict[str, int]
    high_index: list[tuple[tuple[int, ...], int]]


class SweepTally:
    """Running totals of one (n, k, orbits) sweep, its block results added as they arrive.

    ``done`` holds the leading divisors of the blocks added so far.  A block
    added again is skipped: block results are deterministic, so a block
    logged twice (as a modulus listed twice in one run logs each of its
    blocks) counts once.
    """

    __slots__ = ("done", "sequences", "orbit_reps", "histogram", "high_index")

    def __init__(self) -> None:
        self.done: set[int] = set()
        self.sequences = 0
        self.orbit_reps = 0
        self.histogram: dict[str, int] = {}
        self.high_index: list[tuple[tuple[int, ...], int]] = []

    def add(self, block: BlockResult) -> None:
        if block.n1 in self.done:
            return
        self.done.add(block.n1)
        self.sequences += block.sequences
        self.orbit_reps += block.orbit_reps
        tally = self.histogram
        for key, count in block.histogram.items():
            tally[key] = tally.get(key, 0) + count
        self.high_index.extend(block.high_index)


def _scan_block_impl(n: int, k: int, d: int, orbits: bool) -> BlockResult:
    """Run the witness engine over orbit block d, a proper divisor of n.

    The block yields its orbit representatives R (see ``_orbit_block``), and
    each adds its whole orbit, phi(n) / |Stab(R)| sequences, to the count,
    so the divisor blocks together count every sequence of the modulus.  In
    orbit mode only R is certified.  In full mode R's orbit is expanded
    (``_orbit_members``, which lists R first): R is certified and checked
    before the walk, and every other member T then gets its result from R's
    through ``find_witness(T, found, u)``, its Sequence built in the loop.
    Every member carries R's label, so the histogram adds the orbit's size
    (full mode) or 1 (orbit mode) under R's label once per representative.
    The same two calls serve every length k.

    Every witness is rechecked with the independent verifier; every piece of
    high-index evidence is cross-checked against the exhaustive index.  A
    failure of either check is a soundness bug and raises immediately.
    """
    group = factorize(n)
    phi = len(units(group))
    # Bound per call, never as defaults, so that patches of these names apply.
    find, recheck, new = find_witness, verify_witness, object.__new__
    histogram: dict[str, int] = {}
    high: list[tuple[tuple[int, ...], int]] = []
    sequences = 0
    reps = 0
    for rep, fixed in _orbit_block(n, k, d):
        size = phi // fixed
        sequences += size
        reps += 1
        seq = _presorted(group, rep)  # R comes first in its orbit, with u = 1
        found = find(seq)
        if type(found) is HighIndexEvidence:
            high.append(_cross_checked(seq, found))
        elif found is None or not recheck(seq, found):
            raise RuntimeError(f"unsound witness {found} for {rep} over {n}")
        for terms, u in () if orbits else _orbit_members(rep, n, fixed)[1:]:
            seq = new(Sequence)  # what _presorted builds: sorted, in [1, n - 1]
            _set_modulus(seq, group)
            _set_terms(seq, terms)
            result = find(seq, found, u)
            if type(result) is HighIndexEvidence:
                high.append(_cross_checked(seq, result))
            elif result is None or not recheck(seq, result):
                raise RuntimeError(f"unsound witness {result} for {terms} over {n}")
        key = HIGH_INDEX_KEY if type(found) is HighIndexEvidence else found.label
        histogram[key] = histogram.get(key, 0) + (1 if orbits else size)
    return BlockResult(
        n1=d, sequences=sequences, orbit_reps=reps, histogram=histogram, high_index=high
    )


def _cross_checked(seq: Sequence, evidence: HighIndexEvidence) -> tuple[tuple[int, ...], int]:
    """(terms, index) of high-index evidence that the exhaustive index agrees with.

    A disagreement is a soundness bug and raises.
    """
    check = sequence_index(seq)
    if check.numerator != evidence.min_sum or check.argmin_unit != evidence.argmin_unit:
        raise RuntimeError(
            f"evidence mismatch for {seq.terms} over {seq.n}: {evidence} vs exhaustive {check}"
        )
    return seq.terms, evidence.index


@dataclass
class VerifyOptions:
    """Knobs for a verification run, shared by the sweep of every modulus."""

    k: int = 4
    orbits: bool = False
    jobs: int = 1
    checkpoint_path: str | os.PathLike[str] | None = None


@dataclass
class VerificationReport:
    """Aggregated sweep results for one modulus."""

    n: int
    k: int
    gcd6_class: int
    orbits: bool
    sequences_total: int
    orbits_total: int
    rule_histogram: dict[str, int]
    high_index: tuple[tuple[tuple[int, ...], int], ...]
    elapsed: float
    complete: bool

    def conjecture_applicable(self) -> bool:
        """gcd(n, 6) = 1 and length at most 4, where the index must be 1.

        The conjecture is about length 4; lengths up to 3 always have index 1.
        """
        return self.gcd6_class == 1 and self.k <= 4

    def conjecture_violated(self) -> bool:
        """High-index findings where the conjecture promised none."""
        return self.conjecture_applicable() and len(self.high_index) > 0


class Checkpoint:
    """Append-only block-completion log.

    Each completed block appends one JSONL record to ``path + ".blocks"``
    carrying its tallies, so a resumed run reproduces the uninterrupted
    report exactly; records also carry the orbits flag, so switching modes
    never reuses stale blocks, and ``CHECKPOINT_SCHEMA``, so a log from
    another engine version is refused rather than merged.  A record reaches
    the operating system as its block completes, so it survives the process;
    ``sync`` makes the records appended since the last sync durable with one
    fsync.  Nothing is written at ``path`` itself.  ``load`` streams the
    whole log in one pass, so a run over many moduli reads it once.
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = Path(path)
        self.data_path = self.path.with_name(self.path.name + ".blocks")
        self._unsynced = False

    def load(self) -> dict[tuple[int, int, bool], SweepTally]:
        """Every completed block in the log, added to its (n, k, orbits) sweep's tally.

        The log is streamed, so memory holds one tally per sweep, not the
        records.  A record is complete once its newline is written.  A final
        line that lacks its newline or does not decode (a crash mid-append)
        is dropped and truncated away, so the next record starts on a line
        of its own.  An undecodable line anywhere before the last is
        corruption and raises a ``json.JSONDecodeError`` that names the log
        and the line.  A record of another schema or none raises
        ``ValueError``, and so does one that decodes but is not an object
        holding every field.  Every record's fields, whichever sweep it
        belongs to, must also hold what ``record`` writes: ints, an orbits
        flag, a block's leading term that is a proper divisor of the
        record's own n, a histogram of ints and [terms, index] pairs of ints.
        """
        sweeps: dict[tuple[int, int, bool], SweepTally] = {}
        if not self.data_path.exists():
            return sweeps
        decode = json.JSONDecoder().decode
        wrong = "a field holds a value of the wrong type or range"
        whole = 0  # bytes up to the end of the last complete record
        with open(self.data_path, "rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # only the final line can lack its newline
                try:
                    rec = decode(line.decode())
                except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
                    if fh.read(1):
                        raise self._corrupt(whole, exc) from exc
                    break
                whole += len(line)
                try:
                    if rec.get("schema") != CHECKPOINT_SCHEMA:
                        raise ValueError(
                            f"{self.data_path} holds a record of checkpoint schema "
                            f"{rec.get('schema')}, not {CHECKPOINT_SCHEMA}; "
                            "start from a new checkpoint path"
                        )
                    n, n1, k = rec["n"], rec["n1"], rec["k"]
                    sequences, reps = rec["sequences"], rec["orbit_reps"]
                    if not (
                        type(n) is int and type(k) is int and type(n1) is int
                        and type(sequences) is int and type(reps) is int
                        and type(orbits := rec["orbits"]) is bool
                        and 0 < n1 < n
                        and n % n1 == 0
                    ):
                        raise TypeError(wrong)
                    histogram = rec["histogram"]
                    for count in histogram.values():
                        if type(count) is not int:
                            raise TypeError(wrong)
                    high = []
                    for pair in rec["high_index"]:
                        if not (
                            type(pair) is list and len(pair) == 2
                            and type(terms := pair[0]) is list and type(pair[1]) is int
                        ):
                            raise TypeError(wrong)
                        for term in terms:
                            if type(term) is not int:
                                raise TypeError(wrong)
                        high.append((tuple(terms), pair[1]))
                except (KeyError, TypeError, AttributeError) as exc:
                    raise ValueError(
                        f"{self.data_path} holds a malformed checkpoint record "
                        f"({type(exc).__name__}: {exc}); start from a new checkpoint path"
                    ) from exc
                tally = sweeps.get((n, k, orbits))
                if tally is None:
                    tally = sweeps[n, k, orbits] = SweepTally()
                tally.add(BlockResult(n1, sequences, reps, histogram, high))
            torn = fh.tell() > whole
        if torn:
            with open(self.data_path, "r+b") as fh:
                fh.truncate(whole)
                os.fsync(fh.fileno())
        return sweeps

    def _corrupt(self, start: int, exc: ValueError) -> json.JSONDecodeError:
        """The error for the undecodable line at byte ``start`` of the log.

        It names the log, and its position is the fault's line and column
        in the log ("line 3 column 11" for a fault on the third line).
        """
        with open(self.data_path, "rb") as fh:
            head = fh.read(start).decode()  # every earlier line decoded
            line = fh.readline()
        text = line.decode(errors="replace")
        if isinstance(exc, UnicodeDecodeError):
            reason, column = exc.reason, len(line[: exc.start].decode())
        else:
            # A fault at the line's end can sit past the newline it keeps.
            reason, column = exc.msg, min(exc.pos, len(text) - 1)
        return json.JSONDecodeError(
            f"{self.data_path} holds a corrupt checkpoint record; {reason}",
            head + text,
            len(head) + column,
        )

    def record(self, n: int, k: int, orbits: bool, block: BlockResult) -> None:
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "n": n,
            "k": k,
            "orbits": orbits,
            "n1": block.n1,
            "sequences": block.sequences,
            "orbit_reps": block.orbit_reps,
            "histogram": block.histogram,
            "high_index": [[list(terms), index] for terms, index in block.high_index],
        }
        with open(self.data_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
        self._unsynced = True

    def sync(self) -> None:
        """Fsync the log if records were appended since the last sync."""
        if self._unsynced:
            with open(self.data_path, "ab") as fh:
                os.fsync(fh.fileno())
            self._unsynced = False


def verify_moduli(
    moduli: Iterable[GroupOrder], options: VerifyOptions | None = None
) -> Iterator[VerificationReport]:
    """Sweep each modulus, yielding the reports in input order as each sweep ends.

    Every minimal zero-sum length-k sequence over Z_n is swept.  Witnesses
    are rechecked independently and high-index evidence is cross-checked
    against the exhaustive index, so a yielded report is sound by
    construction.  An interrupted run yields a report with ``complete``
    False for the modulus whose report was not yet out, and ends; this holds
    for a Ctrl-C in the log's fsync or the merge too.  A checkpoint makes
    such runs resumable.

    ``moduli`` is read in full before the first sweep, and so is the
    checkpoint log: each modulus takes its own sweep's tally out of the
    log's (so a modulus listed twice is swept in full the second time), the
    tallies of other sweeps are dropped, and each block result is added to
    its modulus's tally as it arrives, which is released once the report is
    out.  Each block is recorded as the parent receives it (see
    ``_run_blocks``), whatever its modulus; the log is fsynced before each
    report is yielded, so a yielded report's blocks are durable.

    With ``jobs`` above 1 and more than one task to deal, one worker pool,
    with as many workers as ``jobs`` and the cores allow, serves the whole
    run; it is shut down when the run ends, is interrupted or is closed by
    its caller.  Its workers ignore SIGINT: the run alone turns Ctrl-C into
    an incomplete report.  Sweeps then overlap, so a report's ``elapsed`` is
    the run's wall time since it handed out the previous report (since its
    first sweep began, for the first report), not the time spent on that
    modulus alone; serially the two are the same.
    """
    opts = options or VerifyOptions()
    checkpoint = Checkpoint(opts.checkpoint_path) if opts.checkpoint_path else None
    sweeps = checkpoint.load() if checkpoint else {}
    run = [n.n for n in moduli]
    tallies = [sweeps.pop((n, opts.k, opts.orbits), None) or SweepTally() for n in run]
    del sweeps
    pending = [
        [n1 for n1 in _leading_terms(n) if n1 not in tally.done]
        for n, tally in zip(run, tallies)
    ]
    remaining = [len(blocks) for blocks in pending]
    blocks = _run_blocks(run, opts, pending, min(opts.jobs, os.cpu_count() or 1))
    try:
        start = time.perf_counter()
        for i, n in enumerate(run):
            interrupted = False
            while True:
                # A Ctrl-C up to the report, in the fsync or the merge too,
                # ends the sweep: both are simply run again, marked incomplete.
                try:
                    while remaining[i] and not interrupted:
                        j, block = next(blocks)
                        tallies[j].add(block)
                        if checkpoint:
                            checkpoint.record(run[j], opts.k, opts.orbits, block)
                        remaining[j] -= 1
                    if checkpoint:
                        checkpoint.sync()
                    report = _merge(n, opts, tallies[i], interrupted, time.perf_counter() - start)
                    break
                except KeyboardInterrupt:
                    interrupted = True
            tallies[i] = SweepTally()
            yield report
            if not report.complete:
                return
            start = time.perf_counter()
    finally:
        blocks.close()  # drops the queued tasks and shuts the pool down
        if checkpoint:
            checkpoint.sync()


def verify_conjecture(n: GroupOrder, options: VerifyOptions | None = None) -> VerificationReport:
    """The report of one modulus: ``verify_moduli`` over ``[n]``."""
    (report,) = verify_moduli([n], options)  # runs on to the pool's shutdown
    return report


def _ignore_sigint() -> None:
    """Pool worker initializer: Ctrl-C reaches the run, never a block."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


@contextlib.contextmanager
def _sigint_deferred() -> Iterator[None]:
    """Hold SIGINT back while workers may fork, so none starts without the ignore.

    A forked worker inherits the blocked signal until ``_ignore_sigint`` has
    run; the parent takes a Ctrl-C that arrived meanwhile once this exits.
    """
    if not hasattr(signal, "pthread_sigmask"):
        yield
        return
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})


# A pooled run deals its pending blocks into this many tasks per worker, and
# keeps at most that many outstanding: enough to keep every worker busy
# across modulus boundaries, few enough that pickling and wake-ups are paid
# a few times per modulus rather than once per block.
_TASKS_PER_WORKER = 4


def _pooled_blocks(n: int, k: int, leading: list[int], orbits: bool) -> list[BlockResult]:
    """One pool task: ``_scan_block_impl`` over some blocks of modulus n, in a worker."""
    return [_scan_block_impl(n, k, n1, orbits) for n1 in leading]


def _run_blocks(
    moduli: list[int], opts: VerifyOptions, pending: list[list[int]], workers: int
) -> Iterator[tuple[int, BlockResult]]:
    """Run every pending block of a run, yielding (modulus index, result) as each arrives.

    ``pending[i]`` lists the blocks of ``moduli[i]`` still to run.  With w
    workers and M moduli that have pending blocks, each such modulus's
    blocks are dealt round-robin into min(pending, max(1, w *
    ``_TASKS_PER_WORKER`` // M)) tasks: a lone modulus gets up to that many
    tasks, and a run over many moduli gets one task per modulus.

    With more than one worker and more than one task, a pool starts at the
    first request for a block, never before.  Tasks are queued in modulus
    order, at most w * ``_TASKS_PER_WORKER`` outstanding, and refilled as
    they complete, so the pool never drains at a modulus boundary; a task's
    blocks arrive when it completes, in completion order, whatever their
    modulus.  Otherwise every block runs in-process, modulus by modulus and
    in divisor order, and arrives as it completes.  No state outlives a
    block, so a block's result does not depend on the process that ran it.
    Closing the generator cancels the queued tasks, lets the running ones
    finish and shuts the pool down.
    """
    share = max(1, workers * _TASKS_PER_WORKER // max(1, sum(map(bool, pending))))
    tasks = [
        (i, blocks[j::count])
        for i, blocks in enumerate(pending)
        for count in (min(len(blocks), share),)
        for j in range(count)
    ]
    if workers < 2 or len(tasks) < 2:
        for i, blocks in enumerate(pending):
            for n1 in blocks:
                yield i, _scan_block_impl(moduli[i], opts.k, n1, opts.orbits)
        return
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_ignore_sigint)
    queue = iter(tasks)
    running: dict[Future[list[BlockResult]], int] = {}
    try:
        while True:
            with _sigint_deferred():
                for i, blocks in islice(queue, workers * _TASKS_PER_WORKER - len(running)):
                    future = pool.submit(_pooled_blocks, moduli[i], opts.k, blocks, opts.orbits)
                    running[future] = i
            if not running:
                return
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in [future for future in running if future in done]:
                i = running.pop(future)
                for block in future.result():
                    yield i, block
    finally:
        for future in running:
            future.cancel()  # queued tasks only; a running task finishes
        pool.shutdown(cancel_futures=True)


def _merge(
    modulus: int, opts: VerifyOptions, tally: SweepTally, interrupted: bool, elapsed: float
) -> VerificationReport:
    """The report of a modulus from its tally: complete unless interrupted or short.

    The histogram's keys and the high-index findings are sorted, so the
    order in which blocks arrived never reaches the report.
    """
    return VerificationReport(
        n=modulus,
        k=opts.k,
        gcd6_class=math.gcd(modulus, 6),
        orbits=opts.orbits,
        sequences_total=tally.sequences,
        orbits_total=tally.orbit_reps if opts.orbits else 0,
        rule_histogram=dict(sorted(tally.histogram.items())),
        high_index=tuple(sorted(tally.high_index)),
        elapsed=elapsed,
        complete=not interrupted
        and all(n1 in tally.done for n1 in _leading_terms(modulus)),
    )


def search_high_index(
    n: GroupOrder, k: int = 4, orbits: bool = False
) -> list[tuple[Sequence, int]]:
    """All minimal zero-sum length-k sequences with index >= 2, with indices, sorted.

    The index is constant on unit orbits, so one unit scan per orbit
    representative R (``_orbit_reps``) settles every member.  With
    ``orbits=True`` the high-index representatives are the findings.
    Otherwise each high-index R is expanded into its orbit by
    ``_orbit_members``, which raises unless the orbit holds
    phi(n) / |Stab(R)| members, with the |Stab(R)| that the walk counted.
    """
    modulus = n.n
    unit_list = units(n)
    found: list[tuple[tuple[int, ...], int]] = []
    for rep, fixed in _orbit_reps(modulus, k):
        min_sum, _ = min_transform_sum(rep, modulus, unit_list, stop_at=modulus)
        if min_sum <= modulus:
            continue
        orbit = ((rep, 1),) if orbits else _orbit_members(rep, modulus, fixed)
        found.extend((terms, min_sum // modulus) for terms, _ in orbit)
    found.sort()
    return [(Sequence(n, terms), index) for terms, index in found]
