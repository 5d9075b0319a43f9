"""Outside-in tracing of zsindex's layers for the benchmark's traced run.

Wrappers are installed from here around the names that zsindex's callers
look up through module globals (or class attributes) at call time, so the
package itself is untouched.  Each wrapped call records a span: name,
start, end and parent.  Spans are kept in compact in-memory arrays and
written out once, when the run ends.

Wrappers live only in the process that installed them.  Pool workers are
forked with copies of the wrappers, but what those copies record stays in
the worker and is discarded, so a run with ``--jobs > 1`` reports the
parent-side layers only (checkpoint and pool).
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array
from pathlib import Path
from typing import Callable

class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._by_name: dict[str, list[float]] | None = None

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.remove(idx)

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, fn: Callable, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def durations(self, name: str) -> list[float]:
        """Durations of every ``name`` span; call once spans are closed."""
        if self._by_name is None:
            self._by_name = {n: [] for n in self.names}
            for nid, s, e in zip(self.name_id, self.start, self.end):
                self._by_name[self.names[nid]].append(e - s)
        return self._by_name.get(name, [])

    def busy(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Total duration of ``name`` spans minus their children's."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        total = 0.0
        for i, v in enumerate(self.name_id):
            if v == nid:
                total += self.end[i] - self.start[i]
            else:
                p = self.parent[i]
                if p >= 0 and self.name_id[p] == nid:
                    total -= self.end[i] - self.start[i]
        return total

    def write(self, path: Path) -> None:
        """One JSON header line, then the four span arrays as raw bytes."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name_id", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "counts": self.counts,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def _wrap(tracer: Tracer, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_result is not None:
            on_result(result, args)
        return result

    return traced


class Installed:
    """Wrappers around zsindex's call-time names; ``remove`` restores them."""

    def __init__(self, tracer: Tracer, capture: list | None = None) -> None:
        import zsindex.harness as harness
        import zsindex.normal_form as normal_form
        import zsindex.witness as witness
        from zsindex.certificates import HighIndexEvidence

        self._saved: list[tuple[object, str, object]] = []
        t = tracer

        def find_result(result, args):
            rule = "HIGH_INDEX" if isinstance(result, HighIndexEvidence) else result.rule
            t.add(f"find.rule.{rule}")
            if capture is not None:
                capture.append(args[0])

        def hit(key):
            return lambda result, args: t.add(key) if result is not None else None

        def pool_size(result, args):
            t.add("candidates.pool", len(result))

        def units_counter(fn):
            @functools.wraps(fn)
            def counted(modulus):
                for m in fn(modulus):
                    t.add("units.yielded")
                    yield m
            return counted

        def record(fn):
            @functools.wraps(fn)
            def traced(self, *args, **kwargs):
                before = _size(self.path) + _size(self.data_path)
                t.span("checkpoint.record", fn, self, *args, **kwargs)
                t.add("checkpoint.records")
                t.add("checkpoint.bytes", _size(self.path) + _size(self.data_path) - before)
            return traced

        def load(fn):
            @functools.wraps(fn)
            def traced(self, *args, **kwargs):
                result = t.span("checkpoint.load", fn, self, *args, **kwargs)
                t.add("checkpoint.lines", _lines(self.data_path))
                return result
            return traced

        def pool(cls):
            class TracedPool(cls):
                def __init__(self, *args, **kwargs):
                    t.add("pool.starts")
                    self._span = t.open("pool")
                    super().__init__(*args, **kwargs)

                def shutdown(self, *args, **kwargs):
                    try:
                        super().shutdown(*args, **kwargs)
                    finally:
                        if self._span is not None:
                            t.close(self._span)
                            self._span = None
            return TracedPool

        self._patch(harness, "find_witness", _wrap(t, "find", harness.find_witness, find_result))
        self._patch(harness, "verify_witness", _wrap(t, "recheck", harness.verify_witness))
        self._patch(harness, "sequence_index", _wrap(t, "index", harness.sequence_index))
        self._patch(harness.Checkpoint, "record", record(harness.Checkpoint.record))
        self._patch(harness.Checkpoint, "load", load(harness.Checkpoint.load))
        self._patch(harness, "ProcessPoolExecutor", pool(harness.ProcessPoolExecutor))
        self._patch(witness, "interval_witness",
                    _wrap(t, "interval", witness.interval_witness, hit("interval.hits")))
        self._patch(witness, "two_of_three_witness",
                    _wrap(t, "two_of_three", witness.two_of_three_witness, hit("two_of_three.hits")))
        self._patch(witness, "candidate_multipliers",
                    _wrap(t, "candidates", witness.candidate_multipliers, pool_size))
        self._patch(witness, "is_minimal_zero_sum", _wrap(t, "is_minimal", witness.is_minimal_zero_sum))
        self._patch(witness, "units", units_counter(witness.units))
        self._patch(normal_form, "one_sided_witness",
                    _wrap(t, "one_sided", normal_form.one_sided_witness, hit("one_sided.hits")))
        self._patch(normal_form, "units", units_counter(normal_form.units))
        # certify is reached through both modules' globals; one span name covers both.
        for module in (witness, normal_form):
            self._patch(module, "certify", _wrap(t, "certify", module.certify, hit("certify.hits")))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except FileNotFoundError:
        return 0


def _lines(path: Path) -> int:
    try:
        with open(path, "rb") as fh:
            return sum(1 for _ in fh)
    except FileNotFoundError:
        return 0


def pipeline_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass through the workload's commands."""
    find = t.durations("find")
    calls = len(find)
    c = t.counts.get

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    cuts = statistics.quantiles(find, n=100) if calls >= 2 else [find[0] if find else 0.0] * 99
    exhaustive = c("find.rule.EXHAUSTIVE", 0) + c("find.rule.HIGH_INDEX", 0)
    interval = len(t.durations("interval"))
    two = len(t.durations("two_of_three"))
    cand = len(t.durations("candidates"))
    one_sided = len(t.durations("one_sided"))
    certify = len(t.durations("certify"))
    return {
        "witness.find.calls": calls,
        "witness.find.busy_s": sum(find),
        "witness.find.self_s": t.self_time("find"),
        "witness.find.p50_us": cuts[49] * 1e6,
        "witness.find.p99_us": cuts[98] * 1e6,
        "witness.interval.calls": interval,
        "witness.interval.busy_s": t.busy("interval"),
        "witness.interval.hit_ratio": ratio(c("interval.hits", 0), interval),
        "witness.two_of_three.calls": two,
        "witness.two_of_three.busy_s": t.busy("two_of_three"),
        "witness.two_of_three.hit_ratio": ratio(c("two_of_three.hits", 0), two),
        "witness.candidates.calls": cand,
        "witness.candidates.busy_s": t.busy("candidates"),
        "witness.candidates.pool_size_mean": ratio(c("candidates.pool", 0), cand),
        "witness.exhaustive_share": ratio(exhaustive, calls),
        "normal_form.one_sided.calls": one_sided,
        "normal_form.one_sided.busy_s": t.busy("one_sided"),
        "normal_form.one_sided.hit_ratio": ratio(c("one_sided.hits", 0), one_sided),
        "sequences.is_minimal.calls": len(t.durations("is_minimal")),
        "sequences.is_minimal.busy_s": t.busy("is_minimal"),
        "sequences.index.calls": len(t.durations("index")),
        "sequences.index.busy_s": t.busy("index"),
        "certificates.certify.calls": certify,
        "certificates.certify.hit_ratio": ratio(c("certify.hits", 0), certify),
        "certificates.recheck.calls": len(t.durations("recheck")),
        "certificates.recheck.busy_s": t.busy("recheck"),
        "residues.units.yielded": c("units.yielded", 0),
        "harness.checkpoint.records_written": c("checkpoint.records", 0),
        "harness.checkpoint.bytes_written": c("checkpoint.bytes", 0),
        "harness.checkpoint.write_s": t.busy("checkpoint.record"),
        "harness.checkpoint.load_s": t.busy("checkpoint.load"),
        "harness.checkpoint.lines_parsed": c("checkpoint.lines", 0),
        "harness.pool.starts": c("pool.starts", 0),
        "harness.pool.busy_s": t.busy("pool"),
    }


def rule_tally(t: Tracer) -> dict[str, int]:
    """find_witness results by rule, as the wrapper saw them."""
    prefix = "find.rule."
    return {k[len(prefix):]: int(v) for k, v in t.counts.items() if k.startswith(prefix)}
