"""Command-line front end with JSONL and CSV reporting.

Exit codes: 0 success (for verify: no high-index length-4 sequence over a
gcd(n,6)=1 modulus; shorter ones always have index 1), 1 a high-index
sequence was found where the conjecture predicted none, 2 invalid input,
3 interrupted (checkpoint written), 4 the engine failed (a soundness check
raised, a stage's assertion failed, or a worker process died), so the run
proves nothing either way.  All outputs are deterministic: lists are sorted
and timestamps appear only in elapsed fields.  Configuration is flags only;
no environment variables are read.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import logging
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from .certificates import HighIndexEvidence, Witness
from .harness import (
    Checkpoint,
    VerificationReport,
    VerifyOptions,
    _least_image,
    _minimal_tuples,
    _orbit_reps,
    search_high_index,
    verify_moduli,
)
from .normal_form import (
    UnbalancedSplit,
    _check_quadruple,
    content,
    reduce_by_content,
    to_normal_form,
)
from .residues import factorize
from .sequences import Sequence, is_minimal_zero_sum, is_zero_sum, sequence_index
from .witness import compute_k1, compute_l, find_witness

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 3
EXIT_FAILED = 4
# The longest sequence length a command takes.  The enumeration kernel nests
# one generator frame per term, so a length near the interpreter's recursion
# limit would fault instead of sweeping; every sweep that can finish is far
# shorter.
MAX_K = 64

VERIFY_FIELDS = (
    "n",
    "k",
    "orbits",
    "sequences_total",
    "orbits_total",
    "rule_histogram",
    "high_index",
    "elapsed_ms",
    "complete",
)
CSV_HEADER = "n,k,orbits,sequences_total,orbits_total,high_index_count,complete"
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR")

# Copied into every command's parser through ``parents``.  Built once, so an
# invocation pays neither a parser construction nor add_argument's
# per-call formatter check for it.
_LOG_LEVEL_OPTION = argparse.ArgumentParser(add_help=False)
_LOG_LEVEL_OPTION.add_argument(
    "--log-level",
    choices=LOG_LEVELS,
    default="WARNING",
    help="threshold for the zsindex log messages on stderr (default WARNING)",
)


class UsageError(ValueError):
    """Bad command-line input; reported on stderr with exit code 2."""


@dataclass
class RunConfig:
    """Parsed and validated invocation.

    ``moduli`` is the resolved modulus list (one entry for --n, the filtered
    range for --n-range).  ``terms`` follows the [1, n] convention with n
    itself denoting the zero element.
    """

    command: str
    moduli: list[int]
    terms: list[int] | None
    k: int = 4
    orbits: bool = False
    jobs: int = 1
    report_path: str | None = None
    checkpoint_path: str | None = None
    format: str = "jsonl"

    def __post_init__(self) -> None:
        if not self.moduli and self.command in ("index", "minimal", "enumerate",
                                                "witness", "reduce", "search"):
            raise UsageError("--n is required")
        for n in self.moduli:
            if n < 2:
                raise UsageError(f"modulus must be >= 2, got {n}")
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        if not 1 <= self.k <= MAX_K:
            raise UsageError(f"k must be in [1, {MAX_K}], got {self.k}")
        if self.terms is not None:
            n = self.moduli[0]
            for t in self.terms:
                if not 1 <= t <= n:
                    raise UsageError(
                        f"term {t} outside [1, {n}] (use {n} for the zero element)"
                    )

    def sequence(self) -> Sequence:
        if self.terms is None:
            raise UsageError("--terms is required for this command")
        return Sequence(factorize(self.moduli[0]), tuple(self.terms))


def verify_record(report: VerificationReport) -> dict:
    """The JSONL record for one verified modulus (fixed field set)."""
    return {
        "n": report.n,
        "k": report.k,
        "orbits": report.orbits,
        "sequences_total": report.sequences_total,
        "orbits_total": report.orbits_total,
        "rule_histogram": dict(sorted(report.rule_histogram.items())),
        "high_index": [
            {"terms": list(terms), "index": index}
            for terms, index in report.high_index
        ],
        "elapsed_ms": int(report.elapsed * 1000),
        "complete": report.complete,
    }


def verify_csv_row(report: VerificationReport) -> list:
    """CSV summary row; shared fields agree with the JSONL record."""
    return [
        report.n,
        report.k,
        report.orbits,
        report.sequences_total,
        report.orbits_total,
        len(report.high_index),
        report.complete,
    ]


def witness_record(s: Sequence, result: Witness | HighIndexEvidence) -> dict:
    """The JSONL record for one witness query (fixed field set)."""
    if isinstance(result, Witness):
        return {
            "n": s.n,
            "terms": list(s.terms),
            "index": 1,
            "witness_m": result.m,
            "rule": result.label,
            "trail": list(result.trail),
        }
    return _high_index_record(s, result.index)


def _high_index_record(s: Sequence, index: int) -> dict:
    return {
        "n": s.n,
        "terms": list(s.terms),
        "index": index,
        "witness_m": None,
        "rule": None,
        "trail": [],
    }


def _write_jsonl(path: str, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _write_csv(path: str, reports: Iterable[VerificationReport]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for report in reports:
            writer.writerow(verify_csv_row(report))


def _parse_terms(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part != ""]
    except ValueError as exc:
        raise UsageError(f"terms must be comma-separated integers: {raw!r}") from exc
    if not values:
        raise UsageError("at least one term is required")
    return values


def _resolve_moduli(args: argparse.Namespace) -> list[int]:
    n = getattr(args, "n", None)
    n_range = getattr(args, "n_range", None)
    if n is not None and n_range:
        raise UsageError("give either --n or --n-range, not both")
    if n is not None:
        return [n]
    if n_range:
        try:
            lo_s, hi_s = n_range.split(":")
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise UsageError(f"range must look like LO:HI, got {n_range!r}") from exc
        if lo < 2 or hi < lo:
            raise UsageError(f"bad range {n_range!r}")
        moduli = list(range(lo, hi + 1))
        if not getattr(args, "all_moduli", False):
            coprime_to = getattr(args, "coprime_to", 6)
            moduli = [m for m in moduli if math.gcd(m, coprime_to) == 1]
            if not moduli:
                raise UsageError(
                    f"no modulus in {n_range} is coprime to {coprime_to} "
                    "(--all-moduli keeps every modulus)"
                )
        return moduli
    return []


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    raw_terms = getattr(args, "terms", None)
    return RunConfig(
        command=args.command,
        moduli=_resolve_moduli(args),
        terms=_parse_terms(raw_terms) if raw_terms else None,
        k=getattr(args, "k", 4),
        orbits=getattr(args, "orbits", False),
        jobs=getattr(args, "jobs", 1),
        report_path=getattr(args, "report_path", None),
        checkpoint_path=getattr(args, "checkpoint_path", None),
        format=getattr(args, "format", "jsonl"),
    )


def _check_output_paths(config: RunConfig) -> None:
    """Refuse a report or checkpoint path in a missing directory or naming
    one, and a report path that is the checkpoint's log.

    Checked before the command does any work, so a bad path costs no sweep
    and leaves no checkpoint record behind.
    """
    targets = []
    if config.report_path:
        targets.append(("--report-path", Path(config.report_path)))
    if config.checkpoint_path:
        targets.append(("--checkpoint-path", Checkpoint(config.checkpoint_path).data_path))
    for flag, path in targets:
        if not path.parent.is_dir():
            raise UsageError(f"{flag}: {path.parent} is not an existing directory")
        if path.is_dir():
            raise UsageError(f"{flag}: {path} is a directory")
    if len(targets) == 2 and targets[0][1].resolve() == targets[1][1].resolve():
        raise UsageError(
            f"--report-path: {targets[0][1]} is the checkpoint log of --checkpoint-path"
        )


def _cmd_index(config: RunConfig, out: TextIO) -> int:
    result = sequence_index(config.sequence())
    value = result.value
    shown = str(value.numerator) if value.denominator == 1 else str(value)
    out.write(f"index {shown} argmin {result.argmin_unit}\n")
    return EXIT_OK


def _cmd_minimal(config: RunConfig, out: TextIO) -> int:
    s = config.sequence()
    out.write(
        f"zero_sum {str(is_zero_sum(s)).lower()} "
        f"minimal {str(is_minimal_zero_sum(s)).lower()}\n"
    )
    return EXIT_OK


def _cmd_enumerate(config: RunConfig, out: TextIO) -> int:
    n, k = config.moduli[0], config.k
    count = 0
    tuples = (rep for rep, _ in _orbit_reps(n, k)) if config.orbits else _minimal_tuples(n, k)
    for terms in tuples:
        out.write(",".join(str(t) for t in terms) + "\n")
        count += 1
    out.write(f"total {count}\n")
    return EXIT_OK


def _cmd_witness(config: RunConfig, out: TextIO) -> int:
    # The certificate a full sweep counts for s: the one its orbit's least
    # member R gets, carried over by the least unit u with u * s = R.
    s = config.sequence()
    _check_quadruple(s)  # NotLength4 and NotMinimalZeroSum exit 2 as usage errors
    rep, u = _least_image(s.terms, s.n)
    result = find_witness(s, find_witness(Sequence(s.modulus, rep)), u)
    if isinstance(result, Witness):
        out.write(
            f"index 1 witness {result.m} rule {result.label} "
            f"sum {result.achieved_sum}\n"
        )
    else:
        out.write(
            f"index {result.index} high-index argmin {result.argmin_unit} "
            f"min_sum {result.min_sum}\n"
        )
    if config.report_path:
        _write_jsonl(config.report_path, [witness_record(s, result)])
    return EXIT_OK


def _cmd_reduce(config: RunConfig, out: TextIO) -> int:
    s = config.sequence()
    # Content division keeps the length and minimality, so the input itself
    # is checked before anything is divided or printed.
    _check_quadruple(s)
    u = content(s)
    if u > 1:
        s = reduce_by_content(s)
        out.write(f"content {u} reduced {','.join(map(str, s.terms))} over {s.n}\n")
    else:
        out.write("content 1\n")
    try:
        nf = to_normal_form(s)
    except UnbalancedSplit as exc:
        out.write(f"no normal form: {exc}\n")
        return EXIT_OK
    if isinstance(nf, Witness):
        out.write(f"witness {nf.m} rule {nf.label} sum {nf.achieved_sum}\n")
        return EXIT_OK
    trail = ",".join(nf.steps) or "identity"
    out.write(
        f"normal form e={nf.e} a={nf.a} b={nf.b} c={nf.c} over {nf.modulus.n} "
        f"trail {trail}\n"
    )
    out.write(f"k1 {compute_k1(nf)} l {compute_l(nf)}\n")
    return EXIT_OK


def _cmd_verify(config: RunConfig, out: TextIO) -> int:
    if not config.moduli:
        raise UsageError("one of --n or --n-range is required")
    options = VerifyOptions(
        k=config.k,
        orbits=config.orbits,
        jobs=config.jobs,
        checkpoint_path=config.checkpoint_path,
    )
    reports: list[VerificationReport] = []
    # verify_moduli ends the run after an incomplete report and shuts its
    # worker pool down as it ends, so the loop runs to its end.  A Ctrl-C
    # between reports (in this loop's work, or as the pool shuts down) or an
    # engine fault ends it early, and ``run`` maps either to its exit code;
    # the report file still holds every report already out.
    try:
        for report in verify_moduli(map(factorize, config.moduli), options):
            reports.append(report)
            flag = "violation" if report.conjecture_violated() else "ok"
            out.write(
                f"n={report.n} sequences={report.sequences_total} "
                f"high_index={len(report.high_index)} "
                f"complete={str(report.complete).lower()} {flag}\n"
            )
    finally:
        if config.report_path:
            if config.format == "csv":
                _write_csv(config.report_path, reports)
            else:
                _write_jsonl(config.report_path, (verify_record(r) for r in reports))
    if not all(r.complete for r in reports):
        return EXIT_INTERRUPTED
    if any(r.conjecture_violated() for r in reports):
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_search(config: RunConfig, out: TextIO) -> int:
    findings = search_high_index(
        factorize(config.moduli[0]), config.k, orbits=config.orbits
    )
    for seq, index in findings:
        out.write(f"{','.join(map(str, seq.terms))} index {index}\n")
    out.write(f"total {len(findings)}\n")
    if config.report_path:
        _write_jsonl(
            config.report_path,
            (_high_index_record(seq, index) for seq, index in findings),
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsindex",
        description=(
            "Index computation, minimal zero-sum enumeration, and index-1 "
            "certificates over finite cyclic groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, parents=[_LOG_LEVEL_OPTION])

    def add_common(p: argparse.ArgumentParser, with_terms: bool = False) -> None:
        p.add_argument("--n", type=int, default=None, help="modulus (>= 2)")
        if with_terms:
            p.add_argument(
                "--terms",
                type=str,
                default=None,
                help="comma-separated terms in [1, n]; n denotes the zero element",
            )

    p_index = command("index", help="exact index of a sequence")
    add_common(p_index, with_terms=True)

    p_minimal = command("minimal", help="zero-sum and minimality predicates")
    add_common(p_minimal, with_terms=True)

    p_enum = command("enumerate", help="list minimal zero-sum sequences")
    add_common(p_enum)
    p_enum.add_argument("--k", type=int, default=4, help="sequence length")
    p_enum.add_argument(
        "--orbits", action="store_true", help="orbit representatives only"
    )

    p_witness = command("witness", help="find a validated index-1 certificate")
    add_common(p_witness, with_terms=True)
    p_witness.add_argument("--report-path", type=str, default=None)

    p_reduce = command("reduce", help="content reduction and normal form")
    add_common(p_reduce, with_terms=True)

    p_verify = command("verify", help="sweep all minimal sequences per modulus")
    add_common(p_verify)
    p_verify.add_argument("--n-range", type=str, default=None, help="LO:HI inclusive")
    p_verify.add_argument(
        "--coprime-to",
        type=int,
        default=6,
        help="with --n-range, keep moduli coprime to this (default 6)",
    )
    p_verify.add_argument(
        "--all-moduli",
        action="store_true",
        help="with --n-range, keep every modulus in the range",
    )
    p_verify.add_argument("--k", type=int, default=4)
    p_verify.add_argument("--orbits", action="store_true")
    p_verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes in the one pool that serves the whole run (at most the "
            "cores); a range deals each modulus into fewer tasks the more moduli it "
            "holds, down to one task per modulus, and queues them across moduli"
        ),
    )
    p_verify.add_argument("--report-path", type=str, default=None)
    p_verify.add_argument("--checkpoint-path", type=str, default=None)
    p_verify.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")

    p_search = command("search", help="list high-index sequences")
    add_common(p_search)
    p_search.add_argument("--k", type=int, default=4)
    p_search.add_argument("--orbits", action="store_true")
    p_search.add_argument("--report-path", type=str, default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on its first call rather than at import.

    Parsing leaves no state in the parser, so one instance serves every
    ``run`` in the process; ``build_parser`` still returns a fresh one.
    """
    return build_parser()


_COMMANDS: dict[str, Callable[[RunConfig, TextIO], int]] = {
    "index": _cmd_index,
    "minimal": _cmd_minimal,
    "enumerate": _cmd_enumerate,
    "witness": _cmd_witness,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "search": _cmd_search,
}


@contextlib.contextmanager
def _stderr_logging(level: str) -> Iterator[None]:
    """Send the zsindex loggers to stderr at ``level`` for one invocation."""
    package = logging.getLogger("zsindex")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    saved = package.level
    package.setLevel(level)
    package.addHandler(handler)
    try:
        yield
    finally:
        package.removeHandler(handler)
        package.setLevel(saved)


def run(argv: list[str] | None = None, out: TextIO | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        _check_output_paths(config)
        with _stderr_logging(args.log_level):
            return _COMMANDS[config.command](config, out)
    except ValueError as exc:  # UsageError and InvalidModulus included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (RuntimeError, AssertionError) as exc:  # BrokenProcessPool included
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILED


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
