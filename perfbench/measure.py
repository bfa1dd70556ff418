"""Statistics, resource readings and run metadata for the benchmark.

Everything here is plain Python over numbers the workloads collect; no
module of the program under test is imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it; below that it is noise, not a tail.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    frac = rank - low
    return float(ordered[low] * (1.0 - frac) + ordered[high] * frac)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """``pct`` percentile, or None when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond it."""
    beyond = len(values) * (100.0 - pct) / 100.0
    if beyond < MIN_TAIL_SAMPLES:
        return None
    return percentile(values, pct)


def process_cpu_s() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among reaped children (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak RSS of a live process from ``/proc``, or None if unreadable."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def loadavg() -> List[float]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return []


def git_commit(root: Path) -> str:
    """The checkout's commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_reference_s() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed at the
    time of a run, independent of the program under test.  The host is
    shared, and the same work can take half as long again an hour
    later; this reading tells a slower host from slower code."""
    begin = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - begin


def code_fingerprint(root: Path) -> str:
    """Hash of every file under ``src/`` and ``perfbench/``: the identity
    of the code a run measured, with or without git and uncommitted
    edits included."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def run_metadata(root: Path, seed: int, workload: str) -> Dict[str, object]:
    """Metadata known before the run.  The commit is read after the
    workload (see :func:`finish_metadata`): ``git`` is a child process,
    and the workload's peak RSS reading covers reaped children."""
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "code": code_fingerprint(root),
        "loadavg_before": loadavg(),
        "host_ref_s_before": host_reference_s(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def finish_metadata(root: Path, meta: Dict[str, object]) -> None:
    meta["loadavg_after"] = loadavg()
    meta["host_ref_s_after"] = host_reference_s()
    meta["commit"] = git_commit(root)


def write_json(path: Path, data: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)


def python_exe() -> str:
    return sys.executable or "python3"
