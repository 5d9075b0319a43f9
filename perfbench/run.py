"""zsindex benchmark: one entry point for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Each workload (see ``workloads.py``) is a list of ``zsindex`` commands run
in-process through ``zsindex.cli.run`` with the arguments a user would type.
Every command's report is checked against ``reference.json``.  The run:

1. sets up ``SETUP_REPEATS`` times (fresh import of ``zsindex``, factoring
   the workload's moduli, a fresh checkpoint directory) and reports the
   median as ``setup_s``;
2. with ``--trace 0``, repeats the workload's commands (one *pass*) until
   ``--seconds`` is spent and reports medians over the passes;
3. with ``--trace 1``, alternates untraced and traced passes, then times the
   layers only reachable through private helpers in standalone passes over
   ``enumerate_minimal``, ``orbit_canonical``, ``search_high_index`` and
   ``to_normal_form``, and reports the per-layer metrics.

Timings are scaled to a reference machine speed measured next to them (see
``speed.py``); the unscaled times go to the result record.  The last line
of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts command results (one per modulus per command) and ``failed`` those
that raised, exited with a code other than 0, or differ from the reference,
so ``failed / attempted`` is the failure share.  Files go to
``.perfbench-work/`` at the checkout root: one result record per run (with
the machine description) and the last traced run's spans per workload.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import benchlib
import speed
import tracer as tracing
import workloads
from workloads import CHECKPOINT, Command, Plan

SETUP_REPEATS = 15
PROBE_RERUNS = 10  # resume-probe reruns after each pass
PASS_RESUMES = 3  # reruns per pass of a plan that resumes its own checkpoint
RULES = ("SUM_N", "SUM_3N", "ONE_SIDED", "INTERVAL", "TWO_OF_THREE", "CANDIDATE", "EXHAUSTIVE", "HIGH_INDEX")
# Per-layer metrics that count work: they must repeat exactly between passes.
EXACT_SUFFIXES = (".calls", ".yielded", ".records_written", ".bytes_written", ".lines_parsed", ".starts")
CHECKED = ("n", "k", "orbits", "sequences_total", "orbits_total", "high_index", "complete")

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "seq_per_s": "seq/s",
    "resume_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in (
        "witness.find.calls", "witness.interval.calls", "witness.two_of_three.calls",
        "witness.candidates.calls", "normal_form.normalize.calls", "normal_form.one_sided.calls",
        "normal_form.unbalanced", "sequences.is_minimal.calls", "sequences.index.calls",
        "certificates.certify.calls", "certificates.recheck.calls", "residues.units.yielded",
        "harness.enum.tuples", "harness.orbit.calls", "harness.search.tuples",
        "harness.search.findings", "harness.checkpoint.records_written",
        "harness.checkpoint.lines_parsed", "harness.pool.starts",
    ) + tuple(f"rule.{r}" for r in RULES):
        units[name] = "count"
    for name in (
        "witness.find.busy_s", "witness.find.self_s", "witness.interval.busy_s",
        "witness.two_of_three.busy_s", "witness.candidates.busy_s", "normal_form.normalize.busy_s",
        "normal_form.one_sided.busy_s", "sequences.is_minimal.busy_s", "sequences.index.busy_s",
        "certificates.recheck.busy_s", "harness.enum.busy_s", "harness.orbit.busy_s",
        "harness.search.busy_s", "harness.checkpoint.write_s", "harness.checkpoint.load_s",
        "harness.pool.busy_s",
    ):
        units[name] = "s"
    for name in (
        "witness.interval.hit_ratio", "witness.two_of_three.hit_ratio", "witness.exhaustive_share",
        "normal_form.one_sided.hit_ratio", "certificates.certify.hit_ratio",
        "harness.orbit.keep_ratio", "trace.overhead_frac",
    ):
        units[name] = "ratio"
    units["witness.find.p50_us"] = units["witness.find.p99_us"] = "us"
    units["witness.candidates.pool_size_mean"] = "count"
    units["harness.checkpoint.bytes_written"] = "B"
    return units


@dataclass
class Tally:
    """Command results checked so far, and what went wrong with them."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


@dataclass
class PassResult:
    timing: speed.Timing  # raw, and scaled to the reference machine speed
    histogram: dict[str, int]
    settled: int

    @property
    def seconds(self) -> float:
        return self.timing.scaled


class Runner:
    """Runs a plan's commands and checks every report against the reference."""

    def __init__(self, plan: Plan, reference: dict, run_dir: Path) -> None:
        self.plan = plan
        self.ref = reference
        self.run_dir = run_dir
        self.tally = Tally()
        self.meter = speed.Meter()
        self.cli = importlib.import_module("zsindex.cli")

    def _argv(self, cmd: Command, checkpoint: Path | None, report: Path) -> list[str]:
        argv = [str(checkpoint) if a == CHECKPOINT else a for a in cmd.argv]
        return argv + ["--report-path", str(report)]

    def run_commands(self, commands, checkpoint: Path | None) -> PassResult:
        """Time the commands from the first to the last, then check them."""
        reports = [self.run_dir / f"report-{i}.jsonl" for i in range(len(commands))]
        for report in reports:
            report.unlink(missing_ok=True)
        codes: list[int | str] = []
        with self.meter.timed() as clock:
            for cmd, report in zip(commands, reports):
                try:
                    codes.append(self.cli.run(self._argv(cmd, checkpoint, report), out=io.StringIO()))
                except Exception as exc:  # a crashing command is a counted failure
                    codes.append(f"{type(exc).__name__}: {exc}")
        histogram: dict[str, int] = {}
        settled = 0
        for cmd, report, code in zip(commands, reports, codes):
            settled += self._check(cmd, report, code, histogram)
        return PassResult(clock, histogram, settled)

    def _check(self, cmd: Command, report: Path, code, histogram: dict[str, int]) -> int:
        """Count and check one command's results; returns sequences it settled."""
        self.tally.attempted += len(cmd.moduli)
        table = self.ref["verify" if cmd.kind == "search" else cmd.kind]
        settled = sum(table[str(n)]["sequences_total"] for n in cmd.moduli)
        if code != 0:
            self.tally.fail(len(cmd.moduli), f"{' '.join(cmd.argv)}: exit {code}")
            return settled
        try:
            with open(report, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
        except (OSError, ValueError) as exc:
            self.tally.fail(len(cmd.moduli), f"{' '.join(cmd.argv)}: unreadable report ({exc})")
            return settled
        if cmd.kind == "search":
            (n,) = cmd.moduli
            found = [[r["terms"], r["index"]] for r in records]
            if found != self.ref["search"][str(n)]["high_index"]:
                self.tally.fail(1, f"search n={n}: findings differ from the reference")
            return settled
        by_n = {r.get("n"): r for r in records}
        for n in cmd.moduli:
            rec = by_n.get(n)
            want = self.ref[cmd.kind][str(n)]
            if rec is None or any(rec.get(f) != want[f] for f in CHECKED):
                self.tally.fail(1, f"{cmd.kind} n={n}: report differs from the reference")
                continue
            total = rec["orbits_total"] if rec["orbits"] else rec["sequences_total"]
            if sum(rec["rule_histogram"].values()) != total:
                self.tally.fail(1, f"{cmd.kind} n={n}: histogram total {total} mismatch")
                continue
            for label, count in rec["rule_histogram"].items():
                rule = label.split(":", 1)[0]
                histogram[rule] = histogram.get(rule, 0) + count
        return settled

    def run_pass(self, index: int, resumes: int = PASS_RESUMES) -> tuple[PassResult, list[PassResult]]:
        """One pass of the timed phase; for resume plans, also ``resumes`` reruns."""
        checkpoint = self.run_dir / f"pass-{index}.ckpt" if self.plan.resume else None
        try:
            first = self.run_commands(self.plan.commands, checkpoint)
            resumes = [
                self.run_commands(self.plan.commands, checkpoint)
                for _ in range(resumes if self.plan.resume else 0)
            ]
        finally:
            if checkpoint is not None:
                for path in self.run_dir.glob(f"{checkpoint.name}*"):
                    path.unlink()
        return first, resumes

    def start_probe(self, cmd: Command) -> None:
        """Write the checkpoint that ``probe`` reruns ``cmd`` against."""
        self._probe = Command(cmd.argv + ("--checkpoint-path", CHECKPOINT), cmd.kind, cmd.moduli)
        self.run_commands([self._probe], self.run_dir / "probe.ckpt")

    def probe(self, count: int) -> list[speed.Timing]:
        """Rerun the probe command ``count`` times against its finished checkpoint.

        Each rerun takes a few milliseconds, less than the calibration
        samples around it, so all are scaled by the speed over the series.
        """
        mark = len(self.meter.samples)
        reruns = [self.run_commands([self._probe], self.run_dir / "probe.ckpt").timing
                  for _ in range(count)]
        factor = self.meter.factor(mark)
        for timing in reruns:
            timing.scaled = timing.raw * factor
        return reruns


def measure_setup(plan: Plan, run_dir: Path) -> tuple[float, float]:
    """Median (scaled, raw) time to import zsindex, factor the moduli and make a checkpoint directory."""
    meter = speed.Meter()
    times = []
    for i in range(SETUP_REPEATS):
        with meter.timed() as clock:
            benchlib.import_zsindex(fresh=True)
            factorize = sys.modules["zsindex.residues"].factorize
            for n in plan.moduli:
                factorize(n)
            (run_dir / f"checkpoints-{i}").mkdir()
        times.append(clock)
    factor = meter.factor()  # each repeat is shorter than its samples; see Runner.probe
    return statistics.median(t.raw for t in times) * factor, statistics.median(t.raw for t in times)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _timed_loop(seconds: float, step) -> None:
    """Call ``step()`` (which returns its wall time) until ``seconds`` would be exceeded."""
    start = time.perf_counter()
    taken = []
    while True:
        taken.append(step())
        if time.perf_counter() - start + statistics.median(taken) > seconds:
            return


def probe_command(name: str, reference: dict, smoke: bool) -> Command:
    """The smallest verify command of the seed-0 plan.

    Workloads whose own phase writes no checkpoint measure ``resume_s`` on
    this command, so every workload reports it; taking it from seed 0 keeps
    it the same input for every seed.
    """
    default = workloads.plan(name, 0, reference, smoke=smoke)
    return min((c for c in default.commands if c.kind != "search"), key=lambda c: c.moduli)


def untraced_run(runner: Runner, seconds: float, probe_cmd: Command) -> tuple[dict[str, float], dict]:
    """Passes until ``seconds`` is spent; medians of the end-to-end timings.

    A plan that writes no checkpoint of its own reruns ``probe_cmd`` against
    its finished checkpoint after every pass, so that ``resume_s`` samples
    the whole run as ``sweep_s`` does.
    """
    start = time.perf_counter()
    if not runner.plan.resume:
        runner.start_probe(probe_cmd)
    sweeps: list[PassResult] = []
    resumes: list[speed.Timing] = []

    def step() -> float:
        t0 = time.perf_counter()
        first, resumed = runner.run_pass(len(sweeps))
        sweeps.append(first)
        resumes.extend(p.timing for p in resumed)
        if not runner.plan.resume:
            resumes.extend(runner.probe(PROBE_RERUNS))
        return time.perf_counter() - t0

    _timed_loop(seconds - (time.perf_counter() - start), step)
    sweep_s = statistics.median(p.seconds for p in sweeps)
    raw = {
        "sweep_s": [p.timing.raw for p in sweeps],
        "resume_s": [t.raw for t in resumes],
        "calibration_s": runner.meter.samples,
    }
    return {
        "sweep_s": sweep_s,
        "seq_per_s": sweeps[0].settled / sweep_s,
        "resume_s": statistics.median(t.scaled for t in resumes),
    }, raw


def _standalone(plan: Plan, captured: list, ref: dict, tally: Tally) -> tuple[dict[str, float], tracing.Tracer]:
    """Time the layers reached only through private helpers, via public entry points."""
    from zsindex import (
        UnbalancedSplit, enumerate_minimal, factorize, orbit_canonical,
        search_high_index, to_normal_form,
    )
    from zsindex.normal_form import content, reduce_by_content

    t = tracing.Tracer()
    tuples = {}
    for n in plan.moduli:
        group = factorize(n)
        tuples[n] = t.span("enum", lambda g: sum(1 for _ in enumerate_minimal(g)), group)
    kept = 0
    if plan.orbits:
        for n in plan.moduli:
            for seq in enumerate_minimal(factorize(n)):
                if t.span("orbit", orbit_canonical, seq).terms == seq.terms:
                    kept += 1
    findings = 0
    for n in plan.searches:
        found = t.span("search", search_high_index, factorize(n))
        findings += len(found)
        if [[list(s.terms), i] for s, i in found] != ref["search"][str(n)]["high_index"]:
            tally.problems.append(f"search_high_index n={n} differs from the reference")
    unbalanced = 0
    for seq in captured:
        if content(seq) > 1:
            seq = reduce_by_content(seq)
        if sum(seq.terms) == seq.n:
            continue  # settled before normalization in the pipeline
        try:
            t.span("normalize", to_normal_form, seq)
        except UnbalancedSplit:
            unbalanced += 1
    orbit_calls = len(t.durations("orbit"))
    return {
        "harness.enum.tuples": sum(tuples.values()),
        "harness.enum.busy_s": t.busy("enum"),
        "harness.orbit.calls": orbit_calls,
        "harness.orbit.busy_s": t.busy("orbit"),
        "harness.orbit.keep_ratio": kept / orbit_calls if orbit_calls else 0.0,
        "harness.search.tuples": sum(tuples[n] for n in plan.searches),
        "harness.search.busy_s": t.busy("search"),
        "harness.search.findings": findings,
        "normal_form.normalize.calls": len(t.durations("normalize")),
        "normal_form.normalize.busy_s": t.busy("normalize"),
        "normal_form.unbalanced": unbalanced,
    }, t


def traced_run(runner: Runner, seconds: float, spans_path: Path) -> dict[str, float]:
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[dict[str, float]] = []
    captured: list = []
    last: list[tracing.Tracer] = []

    def step() -> float:
        t0 = time.perf_counter()
        untraced.append(runner.run_pass(len(untraced), resumes=0)[0].seconds)
        t = tracing.Tracer()
        installed = tracing.Installed(t, captured if not per_pass else None)
        try:
            result, _ = runner.run_pass(len(untraced), resumes=1)
        finally:
            installed.remove()
        traced.append(result.seconds)
        metrics = tracing.pipeline_metrics(t)
        for rule in RULES:
            metrics[f"rule.{rule}"] = result.histogram.get(rule, 0)
        tally = tracing.rule_tally(t)
        if tally and tally != {r: c for r, c in result.histogram.items() if c}:
            runner.tally.problems.append(f"find_witness tally {tally} != reports {result.histogram}")
        per_pass.append(metrics)
        last[:] = [t]
        # Budget one more untraced pass for the standalone passes that follow.
        return time.perf_counter() - t0 + untraced[-1]

    _timed_loop(seconds, step)
    metrics = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        metrics[key] = statistics.median(values)
        exact = key.startswith("rule.") or key.endswith(EXACT_SUFFIXES)
        if exact and len(set(values)) > 1:
            runner.tally.problems.append(f"{key} differs between traced passes: {values}")
    standalone, spans = _standalone(runner.plan, captured, runner.ref, runner.tally)
    metrics.update(standalone)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    last[0].write(spans_path.with_suffix(".pipeline.spans"))
    spans.write(spans_path.with_suffix(".standalone.spans"))
    return metrics


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict]
    record: dict


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: dict,
                 smoke: bool = False) -> Outcome:
    env = benchlib.env_record()
    plan = workloads.plan(name, seed, reference, smoke=smoke)
    run_dir = benchlib.WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    raw: dict = {}
    try:
        setup_s, raw["setup_s"] = measure_setup(plan, run_dir)
        runner = Runner(plan, reference, run_dir)
        if trace:
            values = traced_run(runner, seconds, benchlib.WORK / "traces" / name)
            units = per_layer_units()
        else:
            values, timings = untraced_run(runner, seconds, probe_command(name, reference, smoke))
            raw.update(timings)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = _peak_rss_mb()
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    tally = runner.tally
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "moduli": list(plan.moduli), "argv": [list(c.argv) for c in plan.commands],
        "env": env, "loadavg_1m_end": os.getloadavg()[0],
        "failed_frac": tally.failed / tally.attempted if tally.attempted else 1.0,
        "problems": tally.problems, "metrics": metrics, "unscaled": raw,
    }
    correct = tally.failed == 0 and not tally.problems and tally.attempted > 0
    return Outcome(correct, tally.attempted, tally.failed, metrics, record)


def load_reference() -> dict:
    with open(benchlib.BENCH_DIR / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def self_test() -> int:
    """Seconds-long smoke run on tiny moduli: metric names, units and the failure path."""
    with open(benchlib.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    reference = load_reference()
    ok = True
    for name in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            out = run_workload(name, 0, 1, trace, reference, smoke=True)
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in out.metrics.items()}
            good = got == want and out.correct and out.failed == 0
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} {name} trace={int(trace)} metrics match {section}"
                  + ("" if good else f": missing {set(want) - set(got)}, extra {set(got) - set(want)}, "
                                     f"problems {out.record['problems']}"))
    corrupt = copy.deepcopy(reference)
    n = str(workloads.SMOKE["sweep-coprime"][0])
    corrupt["verify"][n]["sequences_total"] += 1
    out = run_workload("sweep-coprime", 0, 1, False, corrupt, smoke=True)
    good = out.record["failed_frac"] > 0 and not out.correct
    ok &= good
    print(f"{'PASS' if good else 'FAIL'} corrupted reference gives failed_frac {out.record['failed_frac']:.3f}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="zsindex benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        benchlib.import_zsindex()
    except benchlib.MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), load_reference())
    results = benchlib.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(out.record, fh, indent=1)
    print(f"workload {args.workload} seed {args.seed} moduli {out.record['moduli']}")
    print(f"env {json.dumps(out.record['env'])} loadavg_1m_end {out.record['loadavg_1m_end']}")
    for key, metric in out.metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac {out.record['failed_frac']:.6g} ratio ({out.failed} of {out.attempted} results)")
    for problem in out.record["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": out.correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": out.metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
