"""Generate ``reference.json``, the benchmark's correctness reference.

Run once, from the checkout root, on the code the reference should describe:

    python3 perfbench/make_reference.py

For every modulus any seed can draw it stores, per command, the report
fields ``n, k, orbits, sequences_total, orbits_total, high_index, complete``
(plus ``rule_histogram``, kept for information and never checked), and the
median of several speed-scaled seed-code timings of the command
(``cost_s``, see ``speed.py``), which the workloads use to balance the
moduli drawn for a seed.  Before writing, every record is
cross-checked independently of the sweep:

* ``sequences_total`` equals a count drained from ``enumerate_minimal``;
* on every contrast modulus, verify's ``high_index`` list equals
  ``search_high_index``'s findings;
* the histogram total equals the sequence (or representative) count.
"""

from __future__ import annotations

import io
import json
import shutil
import statistics

import benchlib
import speed
import workloads

METER = speed.Meter()
FIELDS = ("n", "k", "orbits", "sequences_total", "orbits_total", "high_index", "complete")
COST_REPEATS = 5


def _run(argv: list[str], report) -> tuple[list[dict], float]:
    from zsindex import cli

    with METER.timed() as clock:
        code = cli.run(argv + ["--report-path", str(report)], out=io.StringIO())
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    with open(report, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh], clock.scaled


def _cost(argv: list[str], report, first: float) -> float:
    """Median speed-scaled time of COST_REPEATS runs."""
    return statistics.median([first] + [_run(argv, report)[1] for _ in range(COST_REPEATS - 1)])


def main() -> int:
    benchlib.import_zsindex()
    from zsindex import enumerate_minimal, factorize, search_high_index

    work = benchlib.WORK / "make-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report = work / "report.jsonl"
    pools = workloads.reference_moduli()
    timed_verify = set(workloads.SWEEP_COPRIME["slots"][0] + workloads.SWEEP_COPRIME["slots"][1])
    timed_verify |= set(workloads.CONTRAST["slots"][0])
    ref: dict = {"env": benchlib.env_record(), "fields": list(FIELDS), "cost_s": {}}

    counts = {n: sum(1 for _ in enumerate_minimal(factorize(n))) for n in
              sorted(pools["verify"] | pools["verify_orbits"])}

    for kind, flags in (("verify", ["--all-moduli"]), ("verify_orbits", ["--orbits"])):
        table = ref.setdefault(kind, {})
        for n in sorted(pools[kind]):
            argv = ["verify", "--n", str(n)] + flags
            (rec,), elapsed = _run(argv, report)
            if rec["sequences_total"] != counts[n]:
                raise AssertionError(f"{kind} n={n}: {rec['sequences_total']} != enumerated {counts[n]}")
            settled = rec["orbits_total"] if rec["orbits"] else rec["sequences_total"]
            if sum(rec["rule_histogram"].values()) != settled or not rec["complete"]:
                raise AssertionError(f"{kind} n={n}: histogram total or completeness wrong")
            table[str(n)] = {f: rec[f] for f in FIELDS} | {"rule_histogram": rec["rule_histogram"]}
            if kind == "verify_orbits" or n in timed_verify:
                ref["cost_s"][f"{kind}:{n}"] = _cost(argv, report, elapsed)
            print(f"{kind} n={n} sequences={rec['sequences_total']} {elapsed:.2f}s", flush=True)

    table = ref.setdefault("search", {})
    for n in sorted(pools["search"]):
        argv = ["search", "--n", str(n)]
        records, elapsed = _run(argv, report)
        findings = [[r["terms"], r["index"]] for r in records]
        library = [[list(s.terms), index] for s, index in search_high_index(factorize(n))]
        verify_high = [[h["terms"], h["index"]] for h in ref["verify"][str(n)]["high_index"]]
        if findings != library or findings != verify_high:
            raise AssertionError(f"search n={n}: findings disagree with verify's high_index")
        table[str(n)] = {"n": n, "k": 4, "high_index": findings}
        ref["cost_s"][f"search:{n}"] = _cost(argv, report, elapsed)
        print(f"search n={n} findings={len(findings)} {elapsed:.2f}s", flush=True)

    for n in sorted(pools["range"]):
        costs = []
        for i in range(COST_REPEATS):
            argv = ["verify", "--n", str(n), "--jobs", "2", "--checkpoint-path", str(work / f"c{n}-{i}")]
            (rec,), elapsed = _run(argv, report)
            if {f: rec[f] for f in FIELDS} != {f: ref["verify"][str(n)][f] for f in FIELDS}:
                raise AssertionError(f"range n={n}: checkpointed run differs from plain verify")
            costs.append(elapsed)
        ref["cost_s"][f"range:{n}"] = statistics.median(costs)

    ref["env"]["loadavg_1m_end"] = benchlib.env_record()["loadavg_1m"]
    with open(benchlib.BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
