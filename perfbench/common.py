"""Paths, statistics and run-environment helpers shared by the benchmark.

The benchmark measures the package from the checkout it sits in: it puts
`<checkout>/src` first on the import path and refuses to run when that
directory is missing, so an installed copy elsewhere is never measured.
"""

from __future__ import annotations

import importlib.metadata
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


class MissingSource(RuntimeError):
    """The checkout does not hold the package sources."""


PYCACHE = OUT / "pycache"


def use_checkout_source() -> None:
    """Make `import rivershare` load `<checkout>/src/rivershare`, or raise.

    Bytecode is cached under perfbench/out/ whatever the caller's
    PYTHONDONTWRITEBYTECODE says, so import times do not depend on it.
    """
    if not (SRC / "rivershare" / "__init__.py").is_file():
        raise MissingSource(f"no package sources at {SRC / 'rivershare'}")
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(PYCACHE)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for subprocesses that import the checkout's package."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def median(values):
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def mean(values):
    values = list(values)
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


def nearest_rank(ordered, pct: float):
    """The nearest-rank `pct` percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of no values")
    rank = math.ceil(round(pct * len(ordered) / 100, 9))  # round: 99.9 is inexact
    return ordered[max(0, min(len(ordered), rank) - 1)]


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _git_commit() -> str:
    # read .git directly: the benchmark may run in an exported tree, and
    # asking git could walk up into an unrelated enclosing repository
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
