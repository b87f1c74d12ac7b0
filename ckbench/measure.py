"""Statistics, host-speed control, memory and environment stamp."""

from __future__ import annotations

import gc
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from ckbench.inputs import REPO_ROOT, SRC_DIR


def summarize(values: Sequence[float]) -> Dict:
    """Median, quartiles and the highest percentile that has at least
    ten samples beyond it (nearest rank; None below twenty samples)."""
    ordered = sorted(values)
    n = len(ordered)
    out: Dict = {"n": n, "median": statistics.median(ordered) if n else None}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out["q1"], out["q3"], out["iqr"] = q1, q3, q3 - q1
    out["p_hi"] = None
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n and n - rank >= 10:
            out["p_hi"] = {"pct": pct, "value": ordered[rank - 1]}
            break
    return out


#: What :func:`spin_ms` reads on the 2-vCPU host this benchmark was
#: built on when that host runs fast.  Reported times are scaled to it.
SPIN_REF_MS = 30.0


def spin_ms() -> float:
    """A fixed pure-Python loop, timed with the collector off: the
    host-speed control sample.

    It does what the analyzer spends its time on -- tuple keys, dict
    entries, small lists, big-int masks, a keyed sort -- because on this
    host such work slows more than arithmetic does when the host is
    busy, and a probe that slows with the ops is the one that can
    correct them (NOTES.md, "Steadiness")."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {}
        mask = 0
        for value in range(40_000):
            table[("k", value % 5000, value)] = [value, value + 1]
            mask |= 1 << (value % 4000)
        ordered = sorted(table, key=lambda key: key[1])
        elapsed = time.perf_counter() - started
        del table, ordered
    finally:
        if enabled:
            gc.enable()
    return elapsed * 1000.0


def host_factor(before_ms: float, after_ms: float) -> float:
    """Scale for an interval bracketed by two :func:`spin_ms` readings:
    multiplying its wall time by this gives the time on a host where
    the probe reads :data:`SPIN_REF_MS`."""
    return SPIN_REF_MS / ((before_ms + after_ms) / 2.0)


def timed_s(action) -> float:
    """Wall seconds of ``action()``, host-scaled (see :func:`host_factor`)."""
    gc.collect()
    before = spin_ms()
    started = time.perf_counter()
    action()
    elapsed = time.perf_counter() - started
    return elapsed * host_factor(before, spin_ms())


# -- memory ---------------------------------------------------------------------


def reset_peak_rss() -> bool:
    """Reset this process's VmHWM (Linux ``clear_refs`` 5), so input
    generation and reference solving do not count as peak memory."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def _vm_hwm_kb() -> Optional[int]:
    try:
        with open("/proc/self/status") as handle:
            found = re.search(r"VmHWM:\s+(\d+)\s+kB", handle.read())
    except OSError:
        return None
    return int(found.group(1)) if found else None


def peak_rss_mb() -> float:
    """max(this process, the largest child reaped so far), in MiB."""
    own = _vm_hwm_kb()
    if own is None:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- processes ------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def fresh_import_s(modules: Sequence[str], repeats: int = 3) -> List[float]:
    """Host-scaled seconds for a fresh interpreter to import ``modules``
    -- what every CLI invocation pays before its verb runs."""
    code = "import " + ", ".join(modules)
    command = [sys.executable, "-c", code]
    return [
        timed_s(
            lambda: subprocess.run(
                command, env=child_env(), cwd=REPO_ROOT, check=True, timeout=60
            )
        )
        for _ in range(repeats)
    ]


def pool_width() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def auto_plan(source: str) -> str:
    """The plan ``backend="auto"`` resolves to for ``source``."""
    from repro.core import bitplane
    from repro.core.arena import ProgramArena
    from repro.lang.semantic import compile_source

    return bitplane.resolve_backend(ProgramArena(compile_source(source)), 2, "auto")


def env_stamp(plan: Optional[str]) -> Dict:
    """Commit, Python, NumPy, CPU count and the ``backend="auto"`` plan."""
    commit = None
    try:
        # Only this checkout's own history: a checkout without one
        # (e.g. an exported tree) must not report an enclosing repo's.
        if not os.path.exists(os.path.join(REPO_ROOT, ".git")):
            raise OSError("not a git checkout")
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    from ckbench.inputs import analyzer_digest

    return {
        "commit": commit,
        "src_digest": analyzer_digest()[:16],
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": pool_width(),
        "auto_plan": plan,
    }

