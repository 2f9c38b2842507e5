"""Measurement helpers shared by the workloads, the runner and compare."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

#: An op slower than this counts as failed (and as missing any latency).
OP_TIMEOUT_S = 30.0
#: Ceiling on one child run of the suite (the contract's own limit).
CHILD_TIMEOUT_S = 180.0


def load_benchmark_spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


#: Parts a measured window is cut into for the quiet-slice statistics.
QUIET_SLICES = 7


def slices_of(items, count: int = QUIET_SLICES) -> list[list]:
    """``items`` (in time order) cut into up to ``count`` contiguous
    parts of near-equal length, none shorter than 2."""
    items = list(items)
    count = max(1, min(count, len(items) // 2))
    step, extra = divmod(len(items), count)
    parts, lo = [], 0
    for index in range(count):
        hi = lo + step + (index < extra)
        parts.append(items[lo:hi])
        lo = hi
    return parts


def second_quietest(per_slice, highest: bool = False) -> float:
    """The second-best of the per-slice values (the best of fewer than 3).

    The reference host is slowed by its neighbours in bursts of 5-20 s
    (2-s slice medians of one global-topk process: 215 ms for 20 s, then
    286 / 260 / 240 / 221 / 262 / 280 / 283, then 215 again).  The noise
    is one-sided, so the quiet slices of a window say what the code
    costs and the whole-window median says how much of the window a
    burst happened to cover.  Second-best rather than best, so one
    fluke slice cannot set the value.  A real slowdown moves every
    slice and shows just the same.
    """
    ordered = sorted(per_slice, reverse=highest)
    if not ordered:
        return 0.0
    return float(ordered[1 if len(ordered) >= 3 else 0])


def quiet_median(values) -> float:
    """Median latency within the second-quietest slice of the window."""
    return second_quietest(median(part) for part in slices_of(values))


def quiet_rate(ops) -> float:
    """Answers per second within the second-quietest slice of the window;
    ``ops`` are (wall_s, answers) pairs in time order."""
    return second_quietest(
        (
            sum(answers for _, answers in part)
            / sum(wall for wall, _ in part)
            for part in slices_of(ops)
        ),
        highest=True,
    )


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    values = [float(v) for v in values]
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """(q3 - q1) / median, the spread the driver's acceptance uses."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed numpy loop: how fast is the host right now?

    The reference host is a shared 2-core VM whose speed swings by tens
    of percent over minutes, invisibly to the guest (no steal time is
    reported).  One ``bincount`` plus one ``sort`` over the same 2M
    integers takes 25 ms when it is quiet.  The probe is recorded beside
    every result so that an outlier can be told from a regression; it is
    *not* used to rescale timings — it reacts to memory contention more
    strongly than the workloads do, so rescaling would add as much error
    as it removes.
    """
    import numpy as np

    data = np.random.default_rng(0).integers(0, 1 << 20, size=2_000_000)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.bincount(data, minlength=1 << 20)
        np.sort(data)
        samples.append(1e3 * (time.perf_counter() - start))
    return median(samples)


# ----------------------------------------------------------------------
# Process memory
# ----------------------------------------------------------------------
def proc_status_kb(field: str) -> int:
    """One ``/proc/self/status`` field in kB (0 where /proc is absent)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_pids() -> list[int]:
    """Live or unreaped direct children of this process, from ``/proc``."""
    me = os.getpid()
    found = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        if len(fields) > 1 and int(fields[1]) == me:
            found.append(int(entry))
    return found


def stop_children(grace_s: float = 5.0) -> list[int]:
    """Stop every process this one started and wait until each has ended.

    The process pool's shared memory makes ``multiprocessing`` start a
    ``resource_tracker`` helper that only ends *after* its parent has
    exited, i.e. it would outlive a benchmark run; it is told to stop and
    waited for here.  Whatever else is still a child afterwards (a worker
    a failed run left behind) is killed and reaped.  Returns the pids that
    had to be killed.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    def kill_except(keep) -> list[int]:
        killed = []
        for pid in child_pids():
            if pid == keep:
                continue
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
                if done == 0:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    killed.append(pid)
            except (OSError, ChildProcessError):
                pass
        return killed

    for process in multiprocessing.active_children():
        process.terminate()
        process.join(grace_s)
    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)
    # Workers hold the tracker's pipe open: they must be gone before the
    # tracker can see end-of-file and be waited for.
    killed = kill_except(tracker_pid)
    if tracker_pid is not None:
        stop = getattr(tracker, "_stop", None)
        try:
            if stop is not None:
                stop()  # closes the pipe, then waitpid()s the helper
            else:
                os.close(tracker._fd)
                os.waitpid(tracker_pid, 0)
                tracker._fd = tracker._pid = None
        except (OSError, ChildProcessError):
            pass
    return killed + kill_except(None)


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------
def answers_digest(pairs) -> str:
    """SHA-256 over (vertices, counts/scores) array pairs, in order."""
    digest = hashlib.sha256()
    for vertices, values in pairs:
        digest.update(memoryview(vertices).cast("B"))
        digest.update(memoryview(values).cast("B"))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def git_sha() -> str:
    """HEAD of this checkout, read from ``.git`` here (never a parent's)."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text("ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int, smoke: bool) -> dict:
    """Where and on what a result was taken; stamped on every result."""
    import numpy
    import scipy

    from repro.core.kernels import resolve_kernel

    try:
        import numba

        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    return {
        "cpu_count": os.cpu_count(),
        "numba": numba_version,
        "kernel_requested": "fused",
        "kernel_resolved": resolve_kernel("fused"),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "smoke": bool(smoke),
        "seed": int(seed),
    }
