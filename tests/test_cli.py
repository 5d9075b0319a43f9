import csv
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zsindex

from zsindex import Sequence, Witness, harness, verify_witness
from zsindex.cli import (
    CSV_HEADER,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    VERIFY_FIELDS,
    run,
    verify_csv_row,
    verify_record,
)
from zsindex.harness import VerificationReport, _minimal_tuples

from oracles import naive_orbit_reps


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def _records(path):
    """A verify report's JSONL records with ``elapsed_ms`` zeroed."""
    return [{**json.loads(line), "elapsed_ms": 0} for line in path.read_text().splitlines()]


class TestIndexCommand:
    def test_worked_example(self):
        code, output = invoke(["index", "--n", "35", "--terms", "2,3,31,34"])
        assert code == EXIT_OK
        assert output == "index 1 argmin 24\n"

    def test_high_index(self):
        code, output = invoke(["index", "--n", "10", "--terms", "2,5,6,7"])
        assert code == EXIT_OK and output == "index 2 argmin 1\n"

    def test_fractional_index(self):
        code, output = invoke(["index", "--n", "7", "--terms", "1,2,3"])
        assert code == EXIT_OK and output == "index 6/7 argmin 1\n"


class TestMinimalCommand:
    def test_minimal_true(self):
        code, output = invoke(["minimal", "--n", "35", "--terms", "2,3,31,34"])
        assert code == EXIT_OK and output == "zero_sum true minimal true\n"

    def test_minimal_false(self):
        code, output = invoke(["minimal", "--n", "10", "--terms", "2,4,6,8"])
        assert code == EXIT_OK and output == "zero_sum true minimal false\n"


class TestEnumerateCommand:
    def test_n5_listing(self):
        code, output = invoke(["enumerate", "--n", "5"])
        assert code == EXIT_OK
        lines = output.strip().splitlines()
        assert lines == ["1,1,1,2", "1,3,3,3", "2,2,2,4", "3,4,4,4", "total 4"]

    def test_orbit_filter(self):
        code, output = invoke(["enumerate", "--n", "5", "--orbits"])
        lines = output.strip().splitlines()
        assert lines == ["1,1,1,2", "total 1"]

    @pytest.mark.parametrize("k", [4, 5])
    def test_orbit_listing_matches_naive_reps(self, k):
        for n in range(2, 31):
            tuples = list(_minimal_tuples(n, k))
            rep_of = naive_orbit_reps(n, tuples)
            reps = sorted({rep_of[terms] for terms in tuples})
            code, output = invoke(["enumerate", "--n", str(n), "--k", str(k), "--orbits"])
            assert code == EXIT_OK
            listed = "".join(",".join(map(str, rep)) + "\n" for rep in reps)
            assert output == listed + f"total {len(reps)}\n", (n, k)


class TestWitnessCommand:
    def test_record_round_trip(self, tmp_path):
        report = tmp_path / "w.jsonl"
        code, output = invoke(
            ["witness", "--n", "35", "--terms", "2,3,31,34",
             "--report-path", str(report)]
        )
        assert code == EXIT_OK
        assert output.startswith("index 1 witness 24 rule INTERVAL")
        record = json.loads(report.read_text().strip())
        assert set(record) == {"n", "terms", "index", "witness_m", "rule", "trail"}
        s = Sequence.over(record["n"], record["terms"])
        w = Witness(m=record["witness_m"], achieved_sum=record["n"], rule=record["rule"])
        assert verify_witness(s, w)

    def test_high_index_record(self, tmp_path):
        report = tmp_path / "w.jsonl"
        code, output = invoke(
            ["witness", "--n", "10", "--terms", "2,5,6,7",
             "--report-path", str(report)]
        )
        assert code == EXIT_OK
        assert output.startswith("index 2 high-index")
        record = json.loads(report.read_text().strip())
        assert record["index"] == 2
        assert record["witness_m"] is None and record["rule"] is None
        assert record["trail"] == []

    def test_non_minimal_input_is_usage_error(self):
        code, _ = invoke(["witness", "--n", "10", "--terms", "2,4,6,8"])
        assert code == EXIT_USAGE


class TestReduceCommand:
    def test_normal_form_output(self):
        code, output = invoke(["reduce", "--n", "35", "--terms", "2,3,31,34"])
        assert code == EXIT_OK
        lines = output.strip().splitlines()
        assert lines[0] == "content 1"
        assert lines[1] == "normal form e=1 a=2 b=3 c=4 over 35 trail complement"
        assert lines[2] == "k1 1 l 1"

    def test_content_reduction_shown(self):
        code, output = invoke(["reduce", "--n", "25", "--terms", "5,15,15,15"])
        assert code == EXIT_OK
        lines = output.strip().splitlines()
        assert lines[0] == "content 5 reduced 1,3,3,3 over 5"
        assert lines[1].startswith("witness 2 rule ONE_SIDED")

    def test_fence_case_reports_no_normal_form(self):
        code, output = invoke(["reduce", "--n", "10", "--terms", "1,5,6,8"])
        assert code == EXIT_OK
        assert "no normal form" in output


class TestVerifyCommand:
    def test_single_clean_modulus(self, tmp_path):
        report = tmp_path / "verify.jsonl"
        code, output = invoke(
            ["verify", "--n", "35", "--report-path", str(report)]
        )
        assert code == EXIT_OK
        assert "n=35" in output and "high_index=0" in output and " ok" in output
        record = json.loads(report.read_text().strip())
        assert tuple(record.keys()) == VERIFY_FIELDS
        assert record["high_index"] == [] and record["complete"] is True

    def test_contrast_modulus_exits_zero(self):
        code, output = invoke(["verify", "--n", "10"])
        assert code == EXIT_OK  # gcd(10, 6) != 1: findings are not violations
        assert "high_index=4" in output or "high_index=" in output

    def test_range_filters_to_coprime(self, tmp_path):
        report = tmp_path / "verify.jsonl"
        code, _ = invoke(
            ["verify", "--n-range", "7:13", "--report-path", str(report)]
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert [r["n"] for r in records] == [7, 11, 13]

    def test_range_all_moduli(self, tmp_path):
        report = tmp_path / "verify.jsonl"
        code, _ = invoke(
            ["verify", "--n-range", "7:10", "--all-moduli",
             "--report-path", str(report)]
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert [r["n"] for r in records] == [7, 8, 9, 10]

    def test_jobs_and_checkpoint_wiring(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        report = tmp_path / "verify.jsonl"
        code, _ = invoke(
            ["verify", "--n", "21", "--jobs", "2",
             "--checkpoint-path", str(ckpt), "--report-path", str(report)]
        )
        assert code == EXIT_OK
        assert not ckpt.exists()
        lines = (tmp_path / "sweep.ckpt.blocks").read_text().splitlines()
        keys = [(r["n"], r["k"], r["n1"]) for r in map(json.loads, lines)]
        assert len(keys) == 20 and set(keys) == {(21, 4, i) for i in range(1, 21)}
        record = json.loads(report.read_text().strip())
        assert record["complete"] is True

    def test_csv_format(self, tmp_path):
        report = tmp_path / "verify.csv"
        code, _ = invoke(
            ["verify", "--n", "10", "--format", "csv", "--report-path", str(report)]
        )
        assert code == EXIT_OK
        lines = report.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        row = next(csv.DictReader(io.StringIO(report.read_text())))
        assert row["n"] == "10" and row["k"] == "4"

    def test_csv_and_jsonl_agree(self):
        report = VerificationReport(
            n=10, k=4, gcd6_class=2, orbits=False, sequences_total=37,
            orbits_total=0, rule_histogram={"SUM_N": 30, "HIGH_INDEX": 7},
            high_index=(((2, 5, 6, 7), 2),), elapsed=0.5, complete=True,
        )
        record = verify_record(report)
        row = verify_csv_row(report)
        header = CSV_HEADER.split(",")
        as_map = dict(zip(header, row))
        for field in ("n", "k", "orbits", "sequences_total", "orbits_total", "complete"):
            assert as_map[field] == record[field]
        assert as_map["high_index_count"] == len(record["high_index"])

    def test_exit_code_on_synthetic_violation(self, monkeypatch, tmp_path):
        import zsindex.cli as cli_mod

        fake = VerificationReport(
            n=25, k=4, gcd6_class=1, orbits=False, sequences_total=1,
            orbits_total=0, rule_histogram={"HIGH_INDEX": 1},
            high_index=(((1, 2, 3, 19), 2),), elapsed=0.0, complete=True,
        )
        monkeypatch.setattr(cli_mod, "verify_moduli", lambda moduli, opts: iter([fake]))
        code, output = invoke(["verify", "--n", "25"])
        assert code == EXIT_VIOLATION
        assert "violation" in output

    def test_length_5_findings_are_not_violations(self):
        code, output = invoke(["verify", "--n", "11", "--k", "5"])
        assert code == EXIT_OK
        assert output == "n=11 sequences=82 high_index=12 complete=true ok\n"

    def test_lengths_above_n_are_empty_at_once(self, tmp_path):
        # No minimal zero-sum sequence over Z_14 has more than 14 terms.
        report = tmp_path / "verify.jsonl"
        start = time.perf_counter()
        code, output = invoke(
            ["verify", "--n", "14", "--k", "18", "--all-moduli",
             "--report-path", str(report)]
        )
        assert time.perf_counter() - start < 10
        assert code == EXIT_OK
        assert output == "n=14 sequences=0 high_index=0 complete=true ok\n"
        assert json.loads(report.read_text())["sequences_total"] == 0

    def test_incomplete_run_exits_interrupted(self, monkeypatch):
        import zsindex.cli as cli_mod

        fake = VerificationReport(
            n=25, k=4, gcd6_class=1, orbits=False, sequences_total=1,
            orbits_total=0, rule_histogram={}, high_index=(),
            elapsed=0.0, complete=False,
        )
        monkeypatch.setattr(cli_mod, "verify_moduli", lambda moduli, opts: iter([fake]))
        code, _ = invoke(["verify", "--n", "25"])
        assert code == EXIT_INTERRUPTED


    def test_range_interrupt_resumes_to_the_uninterrupted_report(self, monkeypatch, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        report = tmp_path / "verify.jsonl"
        fresh = tmp_path / "fresh.jsonl"
        argv = ["verify", "--n-range", "7:20", "--all-moduli", "--checkpoint-path", str(ckpt),
                "--report-path", str(report)]
        scan = harness._scan_block_impl

        def interrupting(n, k, n1, orbits):
            if (n, n1) == (13, 5):
                raise KeyboardInterrupt
            return scan(n, k, n1, orbits)

        with monkeypatch.context() as patch:
            patch.setattr(harness, "_scan_block_impl", interrupting)
            code, output = invoke(argv)
        assert code == EXIT_INTERRUPTED
        assert output.splitlines()[-1].startswith("n=13 ") and "complete=false" in output
        assert invoke(argv)[0] == EXIT_OK
        assert invoke(["verify", "--n-range", "7:20", "--all-moduli",
                       "--report-path", str(fresh)])[0] == EXIT_OK
        assert _records(report) == _records(fresh)
        lines = (tmp_path / "sweep.ckpt.blocks").read_text().splitlines()
        keys = [(r["n"], r["n1"]) for r in map(json.loads, lines)]
        assert sorted(keys) == [(n, n1) for n in range(7, 21) for n1 in range(1, n)]


class TestOutputPaths:
    """A path that cannot be written is refused before any block runs."""

    def assert_usage_error(self, capsys, argv):
        code, output = invoke(argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE and output == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err

    def test_checkpoint_in_a_missing_directory(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        self.assert_usage_error(
            capsys, ["verify", "--n", "11", "--checkpoint-path", str(missing / "ck")])
        assert not missing.exists()

    def test_checkpoint_log_that_is_a_directory(self, capsys, tmp_path):
        (tmp_path / "ck.blocks").mkdir()
        self.assert_usage_error(
            capsys, ["verify", "--n", "11", "--checkpoint-path", str(tmp_path / "ck")])
        assert list((tmp_path / "ck.blocks").iterdir()) == []

    @pytest.mark.parametrize("bad", ["missing/r.jsonl", "."])
    def test_verify_report_path(self, capsys, tmp_path, bad):
        self.assert_usage_error(
            capsys, ["verify", "--n-range", "7:11", "--checkpoint-path", str(tmp_path / "ck"),
                     "--report-path", str(tmp_path / bad)])
        assert not (tmp_path / "ck.blocks").exists()

    @pytest.mark.parametrize(
        "argv",
        [["search", "--n", "10"], ["witness", "--n", "35", "--terms", "2,3,31,34"]],
        ids=["search", "witness"],
    )
    def test_search_and_witness_report_path(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing"
        self.assert_usage_error(capsys, argv + ["--report-path", str(missing / "r.jsonl")])
        assert not missing.exists()


class TestSearchCommand:
    def test_contrast_case(self, tmp_path):
        report = tmp_path / "search.jsonl"
        code, output = invoke(
            ["search", "--n", "10", "--k", "4", "--report-path", str(report)]
        )
        assert code == EXIT_OK
        assert "2,5,6,7 index 2" in output
        records = [json.loads(line) for line in report.read_text().splitlines()]
        assert {tuple(r["terms"]) for r in records} >= {(2, 5, 6, 7)}

    def test_record_matches_witness_record(self, tmp_path):
        searched = tmp_path / "search.jsonl"
        witnessed = tmp_path / "witness.jsonl"
        invoke(["search", "--n", "10", "--report-path", str(searched)])
        invoke(["witness", "--n", "10", "--terms", "2,5,6,7", "--report-path", str(witnessed)])
        records = [json.loads(line) for line in searched.read_text().splitlines()]
        [record] = [r for r in records if r["terms"] == [2, 5, 6, 7]]
        assert record == json.loads(witnessed.read_text())

    def test_clean_modulus(self):
        code, output = invoke(["search", "--n", "35", "--k", "4"])
        assert code == EXIT_OK and output.strip() == "total 0"


class TestInvalidInput:
    def test_bad_terms(self):
        code, _ = invoke(["index", "--n", "10", "--terms", "0,1,2,3"])
        assert code == EXIT_USAGE

    def test_bad_modulus(self):
        code, _ = invoke(["index", "--n", "1", "--terms", "1"])
        assert code == EXIT_USAGE

    def test_missing_terms(self):
        code, _ = invoke(["index", "--n", "10"])
        assert code == EXIT_USAGE

    def test_bad_range(self):
        code, _ = invoke(["verify", "--n-range", "20:7"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "extra", [[], ["--coprime-to", "0"]], ids=["default-filter", "coprime-to-0"]
    )
    def test_filter_leaves_no_modulus(self, extra, capsys):
        code, _ = invoke(["verify", "--n-range", "8:10", *extra])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "no modulus in 8:10 is coprime to" in err
        assert "--n or --n-range is required" not in err

    def test_garbled_terms(self):
        code, _ = invoke(["index", "--n", "10", "--terms", "1,x"])
        assert code == EXIT_USAGE


def _module_env():
    """Environment in which ``python -m zsindex`` imports this checkout."""
    env = dict(os.environ)
    src = str(Path(zsindex.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zsindex", "index", "--n", "35", "--terms", "2,3,31,34"],
            capture_output=True, text=True, env=_module_env(), timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == "index 1 argmin 24\n"

    def test_ctrl_c_while_the_front_end_loads_exits_interrupted(self, tmp_path):
        # A sitecustomize on the path runs at interpreter start and installs an
        # import hook that raises KeyboardInterrupt, as a Ctrl-C would, when
        # ``python -m zsindex`` loads ``zsindex.cli``.
        (tmp_path / "sitecustomize.py").write_text(
            "import sys\n"
            "class Interrupt:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'zsindex.cli':\n"
            "            raise KeyboardInterrupt\n"
            "sys.meta_path.insert(0, Interrupt())\n"
        )
        env = _module_env()
        env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
        proc = subprocess.run(
            [sys.executable, "-m", "zsindex", "index", "--n", "35", "--terms", "2,3,31,34"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == EXIT_INTERRUPTED, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


class TestLogLevel:
    def test_debug_leaves_report_unchanged(self, tmp_path, capsys):
        records = []
        for extra in ([], ["--log-level", "DEBUG"]):
            report = tmp_path / f"verify{len(extra)}.jsonl"
            code, _ = invoke(["verify", "--n", "35", "--report-path", str(report)] + extra)
            assert code == EXIT_OK
            record = json.loads(report.read_text())
            del record["elapsed_ms"]
            records.append(record)
        assert records[0] == records[1]
        assert "DEBUG zsindex.witness:" in capsys.readouterr().err

    def test_bad_level_is_usage_error_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zsindex", "verify", "--n", "35", "--log-level", "LOUD"],
            capture_output=True, text=True, env=_module_env(), timeout=60,
        )
        assert proc.returncode == EXIT_USAGE
        assert "--log-level" in proc.stderr and "Traceback" not in proc.stderr


def _logged_blocks(log):
    """The (n, n1) of every record in a checkpoint log, which must end on a whole line."""
    text = log.read_text()
    assert text.endswith("\n")
    return [(r["n"], r["n1"]) for r in map(json.loads, text.splitlines())]


class TestPooledVerify:
    """``--jobs 2`` runs: one pool per run, Ctrl-C exits 3, reports equal serial ones."""

    @pytest.mark.parametrize("mode", [[], ["--orbits"]], ids=["full", "orbits"])
    def test_parallel_report_equals_serial(self, tmp_path, mode):
        runs = []
        for jobs in ("1", "2"):
            report = tmp_path / f"jobs{jobs}.jsonl"
            code, output = invoke(["verify", "--n-range", "7:40", "--all-moduli", "--jobs", jobs,
                                   "--report-path", str(report)] + mode)
            assert code == EXIT_OK
            runs.append((output, _records(report)))
        assert runs[0] == runs[1]

    def test_interrupt_while_recording_resumes_to_the_full_report(self, monkeypatch, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        report = tmp_path / "verify.jsonl"
        fresh = tmp_path / "fresh.jsonl"
        argv = ["verify", "--n-range", "7:30", "--all-moduli", "--jobs", "2",
                "--checkpoint-path", str(ckpt), "--report-path", str(report)]
        record = harness.Checkpoint.record
        calls = []

        def interrupting(self, *args):
            calls.append(args)
            if len(calls) == 10:
                raise KeyboardInterrupt
            return record(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(harness.Checkpoint, "record", interrupting)
            code, output = invoke(argv)
        assert code == EXIT_INTERRUPTED
        assert "complete=false" in output.splitlines()[-1]
        assert len(set(_logged_blocks(tmp_path / "sweep.ckpt.blocks"))) == 9
        assert invoke(argv)[0] == EXIT_OK
        assert invoke(["verify", "--n-range", "7:30", "--all-moduli",
                       "--report-path", str(fresh)])[0] == EXIT_OK
        assert _records(report) == _records(fresh)
        keys = _logged_blocks(tmp_path / "sweep.ckpt.blocks")
        assert sorted(keys) == [(n, n1) for n in range(7, 31) for n1 in range(1, n)]

    @pytest.mark.skipif(
        os.name != "posix" or (os.cpu_count() or 1) < 2,
        reason="needs POSIX process groups and two cores for a worker pool",
    )
    def test_ctrl_c_exits_interrupted_without_a_traceback(self, tmp_path):
        ckpt = tmp_path / "sweep.ckpt"
        log = tmp_path / "sweep.ckpt.blocks"
        report = tmp_path / "verify.jsonl"
        fresh = tmp_path / "fresh.jsonl"
        argv = ["verify", "--n-range", "7:60", "--all-moduli", "--jobs", "2",
                "--checkpoint-path", str(ckpt), "--report-path", str(report)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "zsindex"] + argv, env=_module_env(), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while proc.poll() is None and time.monotonic() < deadline:
                if log.exists() and log.stat().st_size:
                    # Ctrl-C at a terminal signals the whole process group.
                    os.killpg(proc.pid, signal.SIGINT)
                    break
                time.sleep(0.005)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert proc.returncode == EXIT_INTERRUPTED, err
        assert "Traceback" not in err
        assert invoke(argv)[0] == EXIT_OK
        assert invoke(["verify", "--n-range", "7:60", "--all-moduli",
                       "--report-path", str(fresh)])[0] == EXIT_OK
        assert _records(report) == _records(fresh)
        keys = _logged_blocks(log)
        assert sorted(keys) == [(n, n1) for n in range(7, 61) for n1 in range(1, n)]
