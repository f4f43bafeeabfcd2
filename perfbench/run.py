"""bwflow benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --smoke

Run from the repository root.  One run prepares the workload's inputs from
the seed, times set-up in fresh interpreters, then repeats rounds of the
workload's operations for S seconds, checking every one.  With --trace 0
the last stdout line carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 spans recorded around the library calls give the per-layer
metrics.  Raw samples, spans and the environment go to
.perfbench_out/results/.  --all runs every workload both ways and prints
each named metric; --smoke is a one-round pass that validates the output
format against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import harness

harness.pin_blas_threads()  # before numpy is imported anywhere

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SPEC_FILE = os.path.join(harness.ROOT, "BENCHMARK.json")
SETUP_REPS = 5

_PROBE = ("import sys; sys.path.insert(0, {bench!r}); import workloads; "
          "workloads.WORKLOADS[{name!r}]().prepare({seed}, {workdir!r}); "
          "print('ready', flush=True)")


def load_spec() -> dict:
    with open(SPEC_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _layer_value(name: str, counters: dict, values: dict, self_times: dict) -> float:
    """Per-layer metric from counts, check values or span self times.

    Residuals and errors report their worst case, ok-flags their minimum,
    everything else the median.  None when the workload never calls it.
    """
    xs = counters.get(name) or values.get(name)
    if not xs and name.endswith("_s"):
        xs = self_times.get(name[:-2])
    if not xs:
        return None
    if "err" in name or "residual" in name:
        return float(max(xs))
    if name.endswith("_ok") or "_ok_" in name:
        return float(min(xs))
    return harness.median(xs)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    import workloads

    wl = workloads.WORKLOADS[name]()
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=harness.OUT_DIR)
    try:
        probe = _PROBE.format(bench=BENCH_DIR, name=name, seed=seed, workdir=workdir)
        setup = [harness.time_to_ready(probe, workdir)]
        wl.prepare(seed, workdir)
        wl.warm_up()
        tr = harness.Tracer() if trace else harness.NullTracer()
        res = workloads.Results()
        # rounds run until their summed time reaches `seconds`; the other
        # set-up probes run between rounds, outside that time, so that they
        # sample the machine across the run like the operations do
        while True:
            r0 = time.perf_counter()
            wl.round(tr, res)
            res.rounds.append(time.perf_counter() - r0)
            if sum(res.rounds) >= seconds:
                break
            if len(setup) < SETUP_REPS:
                setup.append(harness.time_to_ready(probe, workdir))
        while len(setup) < SETUP_REPS:
            setup.append(harness.time_to_ready(probe, workdir))
        if trace and hasattr(wl, "trace_extras"):
            wl.trace_extras(tr, res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return wl, setup, res, tr


def metrics_for(spec: dict, wl, setup, res, tr, trace: bool) -> dict:
    if not trace:
        vals = {"setup_s": harness.median(setup), "round_rel": harness.median(res.rounds_rel)}
        for key, ops in (("op_small_rel", wl.small), ("op_large_rel", wl.large)):
            xs = [x for op in ops for x in res.relative[op]]
            if not xs:
                raise SystemExit(f"no passed {ops} operation; failures: {res.failures}")
            vals[key] = harness.median(xs)
        entries = spec["end_to_end"]
    else:
        self_times = tr.self_times()
        roots = sum(sp.end - sp.start for sp in tr.spans if sp.parent is None)
        vals = {name: _layer_value(name, tr.counters, res.values, self_times)
                for name in (m["name"] for m in spec["per_layer"])}
        vals["trace.spans"] = float(len(tr.spans))
        # computed: measured cost of one span times spans recorded
        vals["trace.overhead_frac"] = len(tr.spans) * harness.span_cost_s() / roots
        # a layer this workload never calls reports 0
        res.unmeasured = sorted(k for k, v in vals.items() if v is None)
        vals = {k: 0.0 if v is None else v for k, v in vals.items()}
        entries = spec["per_layer"]
    return {m["name"]: {"value": vals[m["name"]], "unit": m["unit"]} for m in entries}


def report(wl, setup, res, trace: bool, env: dict) -> list:
    """Human-readable lines: named metrics, failures, environment."""
    import workloads

    lines = [f"# env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
             f"blas {env['blas'].get('name')} {env['blas'].get('version')} x "
             f"{env['blas_threads']} threads, nproc {env['nproc']}, {env['cpu']}, "
             f"commit {env['git_commit']}"]
    traced = " (tracing on)" if trace else ""
    for key, xs in {"setup_s": setup, **{k: res.samples[k] for k in wl.named}}.items():
        s = harness.summary(xs)
        tail = f", p{s['tail_pct']} {s['tail']:.4f} s" if "tail" in s else ""
        med = "n/a" if s["median"] is None else f"{s['median']:.4f} s"
        lines.append(f"# {key}: median {med}{tail} (n = {s['n']}){traced}")
    refs = [sec for name, sec, _ in res.timeline if name == "reference"]
    if refs:
        lines.append(f"# reference timing: median {harness.median(refs):.5f} s, "
                     f"from {min(refs):.5f} to {max(refs):.5f} s (n = {len(refs)})")
    spec_times = [x for k, v in res.samples.items() if k.startswith("spec_n") for x in v]
    if spec_times:
        lines.append(f"# sweep_specs_per_s: {len(spec_times) / sum(spec_times):.4f} 1/s "
                     f"(passed specs per second of sweep work){traced}")
    lines.append(f"# failed_frac: {res.failed / max(1, res.attempted):.4f} "
                 f"({res.failed} of {res.attempted} operations)")
    for f in res.failures:
        tag = f"known defect {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        lines.append(f"# failed {f['op']} [{tag}]: {f['problems'][0]}")
    seen = {f["known_defect"] for f in res.failures if f["known_defect"]}
    for key, xs in sorted(res.values.items()):
        if key.startswith("fock.sign_order_ok") and min(xs) == 0.0:
            lines.append(f"# {key} = 0 [known defect fock-sign-order]")
            seen.add("fock-sign-order")
    if res.values.get("flow.final_hs_b_n64"):
        lines.append(f"# worst final ||B|| at n = 64: {max(res.values['flow.final_hs_b_n64']):.3e}"
                     " vs conv_tol 1e-8 [known defect n64-noise-floor when above]")
    lines += [f"# known defect {tag}: {workloads.KNOWN_DEFECTS[tag]}" for tag in sorted(seen)]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload both ways")
    ap.add_argument("--smoke", action="store_true", help="one-round format check")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(harness.SRC, "bwflow", "cli.py")):
        print(f"bwflow sources not found under {harness.SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.all or args.smoke:
        import suite

        return suite.smoke(spec) if args.smoke else suite.run_all(spec, args.seed, seconds)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    trace = bool(args.trace)
    wl, setup, res, tr = run_workload(args.workload, args.seed, seconds, trace)
    metrics = metrics_for(spec, wl, setup, res, tr, trace)
    env = harness.environment()
    harness.write_json(
        os.path.join(harness.OUT_DIR, "results",
                     f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        {"workload": args.workload, "seed": args.seed, "seconds": seconds,
         "trace": args.trace, "environment": env, "setup_s": setup,
         "samples": res.samples, "rounds_s": res.rounds, "values": res.values,
         "failures": res.failures, "metrics": metrics,
         "unmeasured": res.unmeasured, "timeline": res.timeline,
         "counters": getattr(tr, "counters", {}),
         "spans": tr.dump() if trace else []})
    for line in report(wl, setup, res, trace, env):
        print(line)
    print(json.dumps({"correct": res.unexpected == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
