"""Record the reference figures named in the ROADMAP's north star.

These runs are too long to be benchmark workloads, so they are recorded once
for information and never gated:

* the criterion-1 range (``verify --n-range 7:200``, moduli coprime to 6) at
  ``--jobs 1`` and ``--jobs 2``;
* the wall time of the tier-1 test command.

Usage, from the checkout root (takes about ten minutes on two cores):

    python3 perfbench/figures.py [--out perfbench/figures.json]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import time

import benchlib

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def criterion_1(jobs: int) -> dict:
    from zsindex import cli

    benchlib.WORK.mkdir(exist_ok=True)
    report = benchlib.WORK / f"figures-criterion1-jobs{jobs}.jsonl"
    argv = ["verify", "--n-range", "7:200", "--jobs", str(jobs)]
    start = time.perf_counter()
    code = cli.run(argv + ["--report-path", str(report)], out=io.StringIO())
    wall = time.perf_counter() - start
    with open(report, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    report.unlink()
    return {
        "argv": argv,
        "exit_code": code,
        "wall_s": wall,
        "moduli": len(records),
        "sequences": sum(r["sequences_total"] for r in records),
        "high_index": sum(len(r["high_index"]) for r in records),
    }


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(benchlib.SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=benchlib.ROOT, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    return {"argv": TIER1[1:], "exit_code": proc.returncode, "wall_s": wall, "summary": tail[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(benchlib.BENCH_DIR / "figures.json"))
    args = parser.parse_args()
    benchlib.import_zsindex()
    record = {"env_start": benchlib.env_record()}
    record["criterion_1_jobs1"] = criterion_1(1)
    record["criterion_1_jobs2"] = criterion_1(2)
    record["tier1"] = tier1()
    record["loadavg_1m_end"] = os.getloadavg()[0]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
