"""Shared helpers for the zsindex benchmark scripts in this directory.

The scripts import the package from ``src/`` of the checkout they sit in,
write only under ``.perfbench-work/`` at the checkout root, and describe the
machine they ran on with ``env_record``.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


class MissingPackage(RuntimeError):
    """The checkout holds no importable ``zsindex`` package."""


def import_zsindex(fresh: bool = False):
    """Import ``zsindex`` from this checkout's ``src/``.

    With ``fresh=True`` every loaded ``zsindex`` module is dropped first, so
    the import executes the package's module code again.
    """
    if not (SRC / "zsindex" / "__init__.py").is_file():
        raise MissingPackage(f"no zsindex package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "zsindex" or m.startswith("zsindex.")]:
            del sys.modules[name]
    importlib.import_module("zsindex")
    importlib.import_module("zsindex.cli")
    return sys.modules["zsindex"]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None  # not a git checkout
    return out.stdout.strip() or None


def env_record() -> dict:
    """The machine and interpreter a result was measured on."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "mp_start_method": multiprocessing.get_start_method(),
        "git_commit": _git_commit(),
        "loadavg_1m": os.getloadavg()[0],
    }
