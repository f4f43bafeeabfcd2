"""Timing, tracing and process helpers shared by the workloads.

Nothing here imports bwflow: the tracer records spans that the workload
code opens around its own calls into the library, so the library itself
runs unmodified.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# One BLAS thread: on the 2-core reference machine two threads made the
# n=64 operations slower (0.79 s against 0.63 s) and their timings
# noisier, since the second thread competes with the host's other load.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Pin BLAS threads for this process and every child; call before numpy."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def child_env() -> dict:
    """Environment for bwflow subprocesses: the checkout's sources, pinned BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in _THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


# Same body as the `bwflow` console script that pip generates.
BWFLOW_ENTRY = "import sys; from bwflow.cli import main; sys.exit(main())"


@dataclass
class Proc:
    code: int
    out: str
    err: str
    seconds: float


def run_bwflow(args, cwd: str, timeout: float = 170.0) -> Proc:
    """Run one `bwflow` command in a fresh interpreter; time spawn to exit."""
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-c", BWFLOW_ENTRY, *args], cwd=cwd,
                         env=child_env(), capture_output=True, text=True,
                         timeout=timeout)
    return Proc(res.returncode, res.stdout, res.stderr, time.perf_counter() - start)


def time_to_ready(code: str, cwd: str, timeout: float = 120.0) -> float:
    """Seconds from spawning a fresh interpreter running `code` until it
    prints its first line; the child is then waited for."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=cwd, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err[-2000:]}")
    return elapsed


def import_times(module: str, cwd: str) -> dict:
    """Cumulative `-X importtime` seconds per module for `import module`."""
    res = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                         cwd=cwd, env=child_env(), capture_output=True, text=True,
                         timeout=120)
    if res.returncode != 0:
        raise RuntimeError(f"import of {module} failed: {res.stderr[-2000:]}")
    out = {}
    for line in res.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return out


# ---------------------------------------------------------------------------
# reference timings
#
# On a shared host the same work can run twice as slow from one second to
# the next, so raw latencies of the same code differ run to run by more
# than any useful bound.  Each timed operation is therefore also expressed
# in multiples of a fixed reference task timed just before and just after
# it (see NOTES.md).  Neither task touches bwflow, so a change to bwflow
# cannot move them.

def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_kernel_s(repeats: int = 5) -> float:
    """Seconds for fixed numpy work like bwflow's: the median of `repeats`
    runs of 300 steps on 2x2 complex matrices (interpreter-bound, as at
    small n) plus that of 20 products of 64x64 complex matrices (BLAS-bound,
    as at n=64).  The sum is about 7 ms on the reference machine, and one
    call takes five times that; the medians drop interrupted repeats."""
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    large = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))

    def loop(a, steps):
        b = a.copy()
        for _ in range(steps):
            b = a @ b - b @ a.T
            b /= np.linalg.norm(b)

    return (_median_time(lambda: loop(small, 300), repeats)
            + _median_time(lambda: loop(large, 20), repeats))


def reference_process_s(cwd: str) -> float:
    """Seconds for a fresh interpreter to import numpy and exit, which
    stands in for the start-up that dominates a `bwflow` command."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, env=child_env(),
                   capture_output=True, check=True, timeout=120)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# statistics

def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> Optional[tuple]:
    """Highest percentile (whole percent) with at least ten samples above it.

    Returns (percentile, value) or None when there are fewer than eleven
    samples.
    """
    xs = sorted(xs)
    n = len(xs)
    if n < 11:
        return None
    # nearest rank ceil(pct * n / 100) stays at or below n - 10, which
    # leaves at least ten samples above the reported value
    pct = 100 * (n - 10) // n
    return pct, xs[-(-pct * n // 100) - 1]


def summary(xs) -> dict:
    """Median, tail percentile and sample count of a list of timings."""
    out = {"median": median(xs) if xs else None, "n": len(xs)}
    t = tail(xs)
    if t is not None:
        out["tail_pct"], out["tail"] = t
    return out


# ---------------------------------------------------------------------------
# tracing

@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    op: Optional[int]
    start: float
    end: float = 0.0


class Tracer:
    """In-memory span recorder; spans are only read after the run ends."""

    enabled = True

    def __init__(self):
        self.spans: list = []
        self.counters = defaultdict(list)
        self._stack: list = []
        self._next_op = 0
        self._op: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, self._op, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.sid)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str):
        """Root span of one operation; its children share its op id."""
        self._op, self._next_op = self._next_op, self._next_op + 1
        try:
            with self.span(name) as sp:
                yield sp
        finally:
            self._op = None

    def count(self, name: str, value: float) -> None:
        self.counters[name].append(float(value))

    def self_times(self) -> dict:
        """Span name -> list of self times (duration minus direct children)."""
        child = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        out = defaultdict(list)
        for sp in self.spans:
            out[sp.name].append(sp.end - sp.start - child[sp.sid])
        return out

    def dump(self) -> list:
        return [{"id": sp.sid, "name": sp.name, "parent": sp.parent, "op": sp.op,
                 "start": sp.start, "end": sp.end} for sp in self.spans]


class NullTracer:
    """Tracing off: spans and counts cost one call and record nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    op = span

    def count(self, name: str, value: float) -> None:
        pass


def span_cost_s(n: int = 2000) -> float:
    """Measured cost of opening and closing one span, in seconds."""
    tr = Tracer()
    start = time.perf_counter()
    for _ in range(n):
        with tr.span("x"):
            pass
    return (time.perf_counter() - start) / n


class CountingPath:
    """Stands in for a B-path and counts how often the library samples it."""

    def __init__(self, path):
        self._path = path
        self.t0 = path.t0
        self.t1 = path.t1
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self._path(t)


# ---------------------------------------------------------------------------
# environment record

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (not a git checkout)"


def _source_digest() -> str:
    """sha256 over src/bwflow, so runs of identical code can be matched."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bwflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def write_json(path: str, doc) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, default=float)
        fh.write("\n")
