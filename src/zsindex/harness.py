"""Whole-space verification: enumeration, orbits, sweeps, checkpoints.

The sequence space of one modulus is partitioned into blocks by leading
term, so blocks can run on parallel workers and completed blocks can be
checkpointed.  A full sweep has one block per term in [1, n-1].  An orbit
sweep has one per proper divisor of n, because every unit orbit's least
member leads with one, and it counts each orbit's members from that member's
stabilizer (|orbit(R)| = phi(n) / |Stab(R)|) rather than by enumerating them.
One worker pool serves a whole ``verify_moduli`` run, however many moduli it
sweeps.  Block results merge by plain counter addition and sorted list union,
so the final report is independent of worker scheduling.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence as SequenceABC

from .certificates import HighIndexEvidence, verify_witness
from .residues import GroupOrder, factorize, units
from .sequences import Sequence, is_minimal_terms, min_transform_sum, sequence_index
from .witness import _MEMO, _exhaustive, find_witness

HIGH_INDEX_KEY = "HIGH_INDEX"
# Version of the FILE.blocks records.  Records without it were written
# before full sweeps carried each sequence's lead-image label, so their
# histograms cannot merge with this engine's; schema 2 orbit records counted
# the tuples of their own block, where schema 3 ones count whole orbits.
CHECKPOINT_SCHEMA = 3


def _minimal_quadruples(n: int, leading: SequenceABC[int]) -> Iterator[tuple[int, int, int, int]]:
    """Sorted minimal zero-sum quadruples over [1, n-1], leading term fixed.

    For zero-sum quadruples with no zero term, minimality is exactly the
    absence of a pair summing to n (singletons are nonzero by range and
    triples are complements of singletons); the six pair checks are inlined.
    """
    for t1 in leading:
        for t2 in range(t1, n):
            if t1 + t2 == n:
                continue
            base = t1 + t2
            for t3 in range(t2, n):
                if t1 + t3 == n or t2 + t3 == n:
                    continue
                t4 = -(base + t3) % n
                if t4 < t3:  # covers t4 == 0 as well
                    continue
                if t1 + t4 == n or t2 + t4 == n or t3 + t4 == n:
                    continue
                yield (t1, t2, t3, t4)


def _minimal_tuples_generic(n: int, k: int, leading: SequenceABC[int]) -> Iterator[tuple[int, ...]]:
    """Sorted minimal zero-sum k-tuples, by DFS with multiple-of-n pruning."""

    def _extend(prefix: list[int], partial: int) -> Iterator[tuple[int, ...]]:
        remaining = k - len(prefix)
        low = prefix[-1]
        if remaining == 1:
            t = -partial % n
            if t == 0 or t < low:
                return
            candidate = tuple(prefix) + (t,)
            if is_minimal_terms(candidate, n):
                yield candidate
            return
        lo = partial + remaining * low
        hi = partial + remaining * (n - 1)
        if hi // n < -(-lo // n):  # no multiple of n is reachable
            return
        for t in range(low, n):
            prefix.append(t)
            yield from _extend(prefix, partial + t)
            prefix.pop()

    if k == 1 or k > n:
        # The only zero-sum singleton is the zero element, excluded; and no
        # minimal zero-sum sequence over Z_n is longer than n (its Davenport
        # constant), since n terms always hold a nonempty zero-sum subset.
        return
    for t1 in leading:
        yield from _extend([t1], t1)


def _minimal_tuples(n: int, k: int, leading: SequenceABC[int] | None = None) -> Iterator[tuple[int, ...]]:
    if leading is None:
        leading = range(1, n)
    if k == 4:
        return _minimal_quadruples(n, leading)
    return _minimal_tuples_generic(n, k, leading)


def enumerate_minimal(n: GroupOrder, k: int = 4) -> Iterator[Sequence]:
    """Yield every minimal zero-sum length-k sequence over Z_n.

    Terms range over [1, n-1]: a sequence of length >= 2 containing the zero
    element is never minimal, and the length-1 zero sequence is trivial.
    Output is deterministic lexicographic order of the sorted term tuples.
    """
    for terms in _minimal_tuples(n.n, k):
        yield Sequence(n, terms)


def _canonical_terms(terms: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """(least image, stabilizer size) of sorted terms under the units of Z_n.

    A unit preserves gcd(t, n), and the smallest residue in [1, n] with gcd d
    is d itself, so the smallest image leads with d = min gcd(t_i, n).  The
    only units sending a gcd-d term t to d are the lifts of (t/d)^-1 mod n/d,
    so only those are tried: for d = 1, one modular inverse per term.

    The second value counts the tried units that fix the terms.  When the
    terms lead with d, as a least image does, that is |Stab(terms)|: a unit u
    that fixes them sends the gcd-d term u^-1 * d to d, so it is tried, and
    only once, since u sends no other residue to d.
    """
    gcds = [math.gcd(t, n) for t in terms]
    d = min(gcds)
    step = n // d
    best = terms
    fixed = 0
    for t in {t for t, g in zip(terms, gcds) if g == d}:
        for m in range(pow(t // d, -1, step), n, step):
            if math.gcd(m, n) != 1:
                continue
            candidate = tuple(sorted([(m * x - 1) % n + 1 for x in terms]))
            if candidate < best:
                best = candidate
            elif candidate == terms:
                fixed += 1
    return best, fixed


def orbit_canonical(s: Sequence) -> Sequence:
    """Lexicographically smallest sorted sequence in the unit orbit of s."""
    return Sequence(s.modulus, _canonical_terms(s.terms, s.n)[0])


def _leading_terms(n: int, orbits: bool) -> list[int]:
    """The blocks of a sweep: every term in [1, n-1], or for orbits its proper divisors.

    An orbit's least member leads with a divisor of n (see ``_canonical_terms``).
    """
    if orbits:
        return [d for d in range(1, n) if n % d == 0]
    return list(range(1, n))


def _orbit_reps(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Each unit orbit's least member, in enumeration order.

    Only the blocks led by a divisor of n are enumerated (``_leading_terms``).
    """
    for terms in _minimal_tuples(n, k, _leading_terms(n, orbits=True)):
        if _canonical_terms(terms, n)[0] == terms:
            yield terms


@dataclass
class BlockResult:
    """Tallies for one leading-term block; merging is plain addition."""

    n1: int
    sequences: int
    orbit_reps: int
    histogram: dict[str, int]
    high_index: list[tuple[tuple[int, ...], int]]


def _scan_block_impl(n: int, k: int, n1: int, orbits: bool) -> BlockResult:
    """Run the witness engine over one leading-term block.

    In orbit mode only the block's orbit representatives are certified, and
    each adds its whole orbit, phi(n) / |Stab(R)| sequences, to the count;
    ``n1`` is then a divisor of n, and the divisor blocks together count
    every sequence of the modulus.

    Every witness is rechecked with the independent verifier; every piece of
    high-index evidence is cross-checked against the exhaustive index.  A
    failure of either check is a soundness bug and raises immediately.
    """
    group = factorize(n)
    phi = len(units(group))
    histogram: dict[str, int] = {}
    high: list[tuple[tuple[int, ...], int]] = []
    sequences = 0
    reps = 0
    for terms in _minimal_tuples(n, k, leading=(n1,)):
        if orbits:
            image, fixed = _canonical_terms(terms, n)
            if image != terms:
                continue
            sequences += phi // fixed
        else:
            sequences += 1
        reps += 1
        seq = Sequence(group, terms)
        result = find_witness(seq) if k == 4 else _exhaustive(seq)
        if isinstance(result, HighIndexEvidence):
            check = sequence_index(seq)
            if check.numerator != result.min_sum or check.argmin_unit != result.argmin_unit:
                raise RuntimeError(
                    f"evidence mismatch for {terms} over {n}: "
                    f"{result} vs exhaustive {check}"
                )
            key = HIGH_INDEX_KEY
            high.append((terms, result.index))
        else:
            if result is None or not verify_witness(seq, result):
                raise RuntimeError(f"unsound witness {result} for {terms} over {n}")
            key = result.label
        histogram[key] = histogram.get(key, 0) + 1
    return BlockResult(
        n1=n1, sequences=sequences, orbit_reps=reps, histogram=histogram, high_index=high
    )


def effective_jobs(jobs: int, cpu_count: int | None, pending: int) -> int:
    """Worker processes worth starting: no more than cores or pending blocks."""
    return min(jobs, cpu_count or 1, pending)


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


def _ints(*values: object) -> bool:
    """Whether every value is a JSON integer (bools are not)."""
    return all(type(v) is int for v in values)


class Checkpoint:
    """Append-only block-completion log.

    Each completed block appends one JSONL record to ``path + ".blocks"``
    carrying its tallies, so a resumed run reproduces the uninterrupted
    report exactly; records also carry the orbits flag, so switching modes
    never reuses stale blocks, and ``CHECKPOINT_SCHEMA``, so a log from
    another engine version is refused rather than merged.  A record reaches
    the operating system as its block completes, so it survives the process;
    ``sync`` makes the records appended since the last sync durable with one
    fsync.  Nothing is written at ``path`` itself.  ``load`` decodes the
    whole log in one pass, so a run over many moduli reads it once.
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = Path(path)
        self.data_path = self.path.with_name(self.path.name + ".blocks")
        self._unsynced = False

    def load(self) -> dict[tuple[int, int, bool], dict[int, BlockResult]]:
        """Every completed block in the log, by (n, k, orbits) sweep, then by leading term.

        A record is complete once its newline is written.  A final line that
        lacks its newline or does not decode (a crash mid-append) is dropped
        and truncated away, so the next record starts on a line of its own;
        an undecodable line anywhere before the last is corruption and raises,
        and so does a record of another schema or none, or one that decodes
        but is not an object holding every field.  Every record's fields,
        whichever sweep it belongs to, must also hold what ``record`` writes:
        ints, an orbits flag, a leading term in [1, n-1] for the record's own
        n (a divisor of n if the record is an orbit sweep's), a histogram of
        ints and [terms, index] pairs of ints.
        """
        sweeps: dict[tuple[int, int, bool], dict[int, BlockResult]] = {}
        if not self.data_path.exists():
            return sweeps
        whole = 0  # bytes up to the end of the last complete record
        with open(self.data_path, "rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # only the final line can lack its newline
                try:
                    rec = json.loads(line.decode())
                except ValueError:
                    if fh.read(1):
                        raise
                    break
                whole += len(line)
                try:
                    if rec.get("schema") != CHECKPOINT_SCHEMA:
                        raise ValueError(
                            f"{self.data_path} holds a record of checkpoint schema "
                            f"{rec.get('schema')}, not {CHECKPOINT_SCHEMA}; "
                            "start from a new checkpoint path"
                        )
                    n, n1 = rec["n"], rec["n1"]
                    if not (
                        _ints(n, rec["k"], n1, rec["sequences"], rec["orbit_reps"])
                        and type(rec["orbits"]) is bool
                        and 0 < n1 < n
                        and (n % n1 == 0 or not rec["orbits"])
                        and _ints(*rec["histogram"].values())
                        and all(
                            type(pair) is list and len(pair) == 2
                            and type(pair[0]) is list and _ints(*pair[0], pair[1])
                            for pair in rec["high_index"]
                        )
                    ):
                        raise TypeError("a field holds a value of the wrong type or range")
                    sweeps.setdefault((n, rec["k"], rec["orbits"]), {})[n1] = BlockResult(
                        n1=n1,
                        sequences=rec["sequences"],
                        orbit_reps=rec["orbit_reps"],
                        histogram=dict(rec["histogram"]),
                        high_index=[
                            (tuple(terms), index) for terms, index in rec["high_index"]
                        ],
                    )
                except (KeyError, TypeError, AttributeError) as exc:
                    raise ValueError(
                        f"{self.data_path} holds a malformed checkpoint record "
                        f"({type(exc).__name__}: {exc}); start from a new checkpoint path"
                    ) from exc
            torn = fh.tell() > whole
        if torn:
            with open(self.data_path, "r+b") as fh:
                fh.truncate(whole)
                os.fsync(fh.fileno())
        return sweeps

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
    """Sweep each modulus in turn, yielding its report as the sweep ends.

    Every minimal zero-sum length-k sequence over Z_n is swept.  Witnesses
    are rechecked independently and high-index evidence is cross-checked
    against the exhaustive index, so a yielded report is sound by
    construction.  An interrupted sweep yields a report with ``complete``
    False and ends the run; a checkpoint makes such runs resumable.

    The checkpoint log is read once, before the first sweep, and each sweep
    takes its own blocks out of that index as it starts: memory holds only
    the records of moduli not yet swept, never those this run writes.  So a
    modulus listed twice is swept in full the second time.

    With ``jobs`` above 1, one worker pool serves the whole run.  It starts
    at the first modulus with more than one pending block, with as many
    workers as ``jobs`` and the cores allow, and it is shut down when the
    run ends, is interrupted or is closed by its caller.  Its workers ignore
    SIGINT: the run alone turns Ctrl-C into an incomplete report.
    """
    opts = options or VerifyOptions()
    checkpoint = Checkpoint(opts.checkpoint_path) if opts.checkpoint_path else None
    sweeps = checkpoint.load() if checkpoint else {}
    workers = min(opts.jobs, os.cpu_count() or 1)
    pool = None
    try:
        for n in moduli:
            start = time.perf_counter()
            results = sweeps.pop((n.n, opts.k, opts.orbits), {})
            interrupted = False
            try:
                pending = [n1 for n1 in _leading_terms(n.n, opts.orbits) if n1 not in results]
                if pool is None and effective_jobs(opts.jobs, os.cpu_count(), len(pending)) > 1:
                    pool = ProcessPoolExecutor(max_workers=workers, initializer=_ignore_sigint)
                _run_blocks(n.n, opts, checkpoint, results, pending, pool, workers)
            except KeyboardInterrupt:
                interrupted = True
            report = _merge(n.n, opts, results, interrupted, time.perf_counter() - start)
            yield report
            if not report.complete:
                return
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


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


# Each pooled sweep deals its pending blocks round-robin into this many tasks
# per worker: the tasks cost about the same, and their pickling and wake-ups
# are paid a few times per modulus rather than once per block.
_TASKS_PER_WORKER = 4
_worker_modulus = 0  # the modulus whose lead images a pool worker's memo holds


def _pooled_blocks(n: int, k: int, leading: list[int], orbits: bool) -> list[BlockResult]:
    """``_scan_block_impl`` in a pool worker, whose memo starts cold at each modulus."""
    global _worker_modulus
    if n != _worker_modulus:
        _MEMO.clear()
        _worker_modulus = n
    return [_scan_block_impl(n, k, n1, orbits) for n1 in leading]


def _run_blocks(
    modulus: int,
    opts: VerifyOptions,
    checkpoint: Checkpoint | None,
    results: dict[int, BlockResult],
    pending: list[int],
    pool: ProcessPoolExecutor | None,
    workers: int,
) -> None:
    """Run the ``pending`` blocks of a modulus into ``results``, on ``pool`` if given.

    Each block is recorded as soon as the parent holds it: in-process as it
    completes, pooled as its task completes, so a pooled sweep logs blocks
    in completion order.  The merge does not depend on that order.
    """
    futures = []
    _MEMO.clear()  # cold start, as in every pool worker
    try:
        if pool is None:
            blocks = (_scan_block_impl(modulus, opts.k, n1, opts.orbits) for n1 in pending)
        else:
            with _sigint_deferred():
                tasks = min(len(pending), workers * _TASKS_PER_WORKER)
                futures = [
                    pool.submit(_pooled_blocks, modulus, opts.k, pending[i::tasks], opts.orbits)
                    for i in range(tasks)
                ]
            blocks = (block for future in as_completed(futures) for block in future.result())
        for block in blocks:
            results[block.n1] = block
            if checkpoint:
                checkpoint.record(modulus, opts.k, opts.orbits, block)
    finally:
        for future in futures:
            future.cancel()  # queued tasks only; a running task finishes
        _MEMO.clear()
        if checkpoint:
            checkpoint.sync()  # one fsync per sweep, not one per block


def _merge(
    modulus: int,
    opts: VerifyOptions,
    results: dict[int, BlockResult],
    interrupted: bool,
    elapsed: float,
) -> VerificationReport:
    """The report of a modulus from its block results: complete unless interrupted or short."""
    histogram: dict[str, int] = {}
    high: list[tuple[tuple[int, ...], int]] = []
    sequences_total = 0
    orbit_total = 0
    for n1 in sorted(results):
        block = results[n1]
        sequences_total += block.sequences
        orbit_total += block.orbit_reps
        for key, count in block.histogram.items():
            histogram[key] = histogram.get(key, 0) + count
        high.extend(block.high_index)
    high.sort()
    return VerificationReport(
        n=modulus,
        k=opts.k,
        gcd6_class=math.gcd(modulus, 6),
        orbits=opts.orbits,
        sequences_total=sequences_total,
        orbits_total=orbit_total if opts.orbits else 0,
        rule_histogram=histogram,
        high_index=tuple(high),
        elapsed=elapsed,
        complete=not interrupted
        and all(n1 in results for n1 in _leading_terms(modulus, opts.orbits)),
    )


def search_high_index(
    n: GroupOrder, k: int = 4, orbits: bool = False
) -> list[tuple[Sequence, int]]:
    """All minimal zero-sum length-k sequences with index >= 2, with indices.

    With ``orbits=True`` only the lexicographically smallest representative
    of each unit orbit is searched and reported (the index is constant on
    orbits); such a representative leads with a divisor of n.
    """
    modulus = n.n
    unit_list = units(n)
    tuples = _orbit_reps(modulus, k) if orbits else _minimal_tuples(modulus, k)
    findings: list[tuple[Sequence, int]] = []
    for terms in tuples:
        min_sum, _ = min_transform_sum(terms, modulus, unit_list, stop_at=modulus)
        if min_sum > modulus:
            findings.append((Sequence(n, terms), min_sum // modulus))
    return findings
