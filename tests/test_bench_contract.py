"""The package surface that the benchmark under ``perfbench/`` relies on.

The benchmark's traced run patches attributes of ``zsindex`` modules, and its
scripts import package names directly.  A rename or deletion on the package
side would otherwise surface only when the benchmark runs.
"""

import ast
import importlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402

from zsindex import harness, normal_form, witness  # noqa: E402
from zsindex.cli import EXIT_OK, run  # noqa: E402


def package_imports():
    """(module, name) of every ``from zsindex... import name`` in the benchmark."""
    for script in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zsindex"):
                for alias in node.names:
                    yield script.name, node.module, alias.name


def patched_state():
    modules = (harness, normal_form, witness, harness.Checkpoint)
    return [dict(vars(m)) for m in modules]


def test_benchmark_imports_resolve():
    found = list(package_imports())
    assert ("run.py", "zsindex.normal_form", "reduce_by_content") in found
    for script, module, name in found:
        assert hasattr(importlib.import_module(module), name), (script, module, name)


def test_tracer_installs_and_removes():
    before = patched_state()
    tracer.Installed(tracer.Tracer()).remove()
    assert patched_state() == before


def test_checkpoint_paths(tmp_path):
    checkpoint = harness.Checkpoint(tmp_path / "sweep.ckpt")
    assert checkpoint.path == tmp_path / "sweep.ckpt"
    assert checkpoint.data_path == tmp_path / "sweep.ckpt.blocks"


def traced_verify(tmp_path, *flags, n=35):
    """Trace ``verify --n N`` with a checkpoint; the tracer and the report record."""
    report = tmp_path / "report.jsonl"
    t = tracer.Tracer()
    installed = tracer.Installed(t)
    try:
        code = run(
            ["verify", "--n", str(n), "--checkpoint-path", str(tmp_path / "ckpt"),
             "--report-path", str(report), *flags],
            out=io.StringIO(),
        )
    finally:
        installed.remove()
    assert code == EXIT_OK
    record = json.loads(report.read_text())
    by_rule = {}
    for label, count in record["rule_histogram"].items():
        rule = label.split(":")[0]  # CANDIDATE:<tag> labels carry the pool tag
        by_rule[rule] = by_rule.get(rule, 0) + count
    assert tracer.rule_tally(t) == by_rule
    return t, record


def test_traced_verify_matches_its_report(tmp_path):
    t, record = traced_verify(tmp_path)
    metrics = tracer.pipeline_metrics(t)
    assert metrics["witness.find.calls"] == record["sequences_total"]
    assert metrics["certificates.recheck.calls"] == record["sequences_total"]
    assert metrics["harness.checkpoint.records_written"] == 3  # blocks 1, 5 and 7


def test_traced_full_sweep_with_high_index_findings(tmp_path):
    """Every swept sequence is looked up once; each finding is rechecked or cross-checked."""
    t, record = traced_verify(tmp_path, "--all-moduli", n=30)
    metrics = tracer.pipeline_metrics(t)
    assert record["sequences_total"] == 1082 and len(record["high_index"]) == 140
    assert metrics["witness.find.calls"] == 1082
    assert metrics["certificates.recheck.calls"] == 942
    assert metrics["sequences.index.calls"] == 140


def test_traced_orbit_verify_matches_its_report(tmp_path):
    t, record = traced_verify(tmp_path, "--orbits")
    metrics = tracer.pipeline_metrics(t)
    assert metrics["witness.find.calls"] == record["orbits_total"]
    assert metrics["certificates.recheck.calls"] == record["orbits_total"]
    # Every representative here is certified by its first certify call: each
    # stage certifies on the input itself, so no hit is certified twice.
    assert metrics["certificates.certify.calls"] == record["orbits_total"]
    assert metrics["harness.checkpoint.records_written"] == 3  # blocks 1, 5 and 7


def test_traced_sweep_sees_the_pool(tmp_path):
    t = tracer.Tracer()
    installed = tracer.Installed(t)
    try:
        code = run(
            ["verify", "--n", "30", "--all-moduli", "--report-path", str(tmp_path / "r")],
            out=io.StringIO(),
        )
    finally:
        installed.remove()
    assert code == EXIT_OK
    assert tracer.pipeline_metrics(t)["witness.candidates.calls"] > 0


def test_a_range_run_reads_its_checkpoint_once(tmp_path):
    argv = ["verify", "--n-range", "7:30", "--all-moduli",
            "--checkpoint-path", str(tmp_path / "ckpt")]
    log = tmp_path / "ckpt.blocks"
    for resume in (False, True):
        t = tracer.Tracer()
        installed = tracer.Installed(t)
        try:
            code = run(argv, out=io.StringIO())
        finally:
            installed.remove()
        assert code == EXIT_OK
        assert len(t.durations("checkpoint.load")) == 1
        if resume:
            lines = len(log.read_bytes().splitlines())
            # one record per block, a proper divisor, of n in 7..30
            assert lines == sum(len(harness._leading_terms(n)) for n in range(7, 31))
            assert tracer.pipeline_metrics(t)["harness.checkpoint.lines_parsed"] == lines


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a worker pool needs two cores")
def test_a_range_run_starts_one_pool(tmp_path):
    argv = ["verify", "--n-range", "7:30", "--all-moduli", "--jobs", "2",
            "--checkpoint-path", str(tmp_path / "ckpt")]
    for starts in (1, 0):  # the fresh run, then its resume with nothing pending
        t = tracer.Tracer()
        installed = tracer.Installed(t)
        try:
            code = run(argv, out=io.StringIO())
        finally:
            installed.remove()
        assert code == EXIT_OK
        assert tracer.pipeline_metrics(t)["harness.pool.starts"] == starts
        assert all(d > 0 for d in t.durations("pool"))  # the run shut its pool down
