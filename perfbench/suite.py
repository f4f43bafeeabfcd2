"""Whole-benchmark passes: every workload in one command, and a smoke check.

Each workload runs as its own `run.py` process, exactly as a single
benchmark run does, so these passes test the same entry point.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import harness

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(args, cwd=harness.ROOT, timeout=600) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _one(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = _run(["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)])
    return proc, _last_json(proc.stdout)


def run_all(spec: dict, seed: int, seconds: float) -> int:
    """Every workload with tracing off, then on; prints each named metric."""
    status = 0
    for w in spec["workloads"]:
        rounds = {}
        for trace in (0, 1):
            proc, result = _one(w["name"], seed, seconds, trace)
            print(f"== {w['name']} (trace {trace}, seed {seed})")
            print("\n".join(ln for ln in proc.stdout.splitlines() if ln.startswith("#")))
            if proc.returncode != 0 or result is None:
                print(proc.stderr[-2000:])
                status = 1
                continue
            for name, m in result["metrics"].items():
                print(f"{name} = {m['value']:.6g} {m['unit']}")
            raw = os.path.join(harness.OUT_DIR, "results",
                               f"{w['name']}-seed{seed}-trace{trace}.json")
            with open(raw, encoding="utf-8") as fh:
                rounds[trace] = harness.median(json.load(fh)["rounds_s"])
        if len(rounds) == 2:
            # the traced rounds also run the per-layer probes (RHS timings,
            # the diagnostics rebuild, state_at lookups), so this bounds the
            # tracing overhead from above, within run-to-run noise
            print(f"measured tracing overhead: traced round {rounds[1]:.4f} s vs "
                  f"untraced {rounds[0]:.4f} s ({rounds[1] / rounds[0] - 1:+.2%}), "
                  "per-layer probes included")
    return status


def _check_result(result, entries, trace: int) -> list:
    if result is None:
        return ["last stdout line is not a JSON object"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number >= 1")
    if not (isinstance(result.get("failed"), int)
            and 0 <= result["failed"] <= result.get("attempted", 0)):
        problems.append("failed must be a whole number <= attempted")
    if result.get("correct") is not True:
        problems.append("correct is not true (an unexpected check failed)")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in entries}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(want))}")
    for name, m in metrics.items():
        v = m.get("value")
        if m.get("unit") != want.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
        elif trace == 0 and v <= 0:
            problems.append(f"{name}: end-to-end value {v} is not positive")
    return problems


def smoke(spec: dict) -> int:
    """One round of every workload both ways, checked against BENCHMARK.json."""
    problems = []
    measured = set()
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc, result = _one(w["name"], 1, 0, trace)
            entries = spec["per_layer"] if trace else spec["end_to_end"]
            found = ([f"exit {proc.returncode}: {proc.stderr[-500:]}"]
                     if proc.returncode else _check_result(result, entries, trace))
            if trace and result:
                raw = os.path.join(harness.OUT_DIR, "results", f"{w['name']}-seed1-trace1.json")
                with open(raw, encoding="utf-8") as fh:
                    measured |= set(result["metrics"]) - set(json.load(fh)["unmeasured"])
            print(f"smoke {w['name']} trace {trace}: {'ok' if not found else found}")
            problems += found
    idle = sorted({m["name"] for m in spec["per_layer"]} - measured)
    if idle:
        problems.append(f"per-layer metrics no workload measures: {idle}")
        print(problems[-1])
    problems += _check_without_program()
    print("smoke: " + ("PASS" if not problems else f"FAIL ({len(problems)} problems)"))
    return 0 if not problems else 1


def _check_without_program() -> list:
    """In a tree holding only BENCHMARK.json and perfbench/, the run must fail
    with a nonzero exit and print no result."""
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=harness.OUT_DIR)
    try:
        shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.dirname(RUN), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                               "library-sweep", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True,
                              text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and _last_json(proc.stdout) is None
    print(f"smoke without program: {'ok' if ok else 'FAIL'} (exit {proc.returncode})")
    return [] if ok else ["run without the program did not fail cleanly"]
