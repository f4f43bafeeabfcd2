"""The workloads: their inputs, their operations and the checks on them.

Four parts (README commands, Fock oracle, random-spec sweep, long horizon)
make up the two workloads in WORKLOADS.

Every operation is timed from outside bwflow (a subprocess, or the public
calls the matching CLI command makes) and checked against an oracle that
does not share the code path under test.  A failed check makes the
operation failed; failures that match a defect already recorded for the
seed are tagged with that defect's name (see KNOWN_DEFECTS).
"""

from __future__ import annotations

import io
import os
import re
import time
import traceback
from collections import defaultdict

import numpy as np

import oracle
from harness import (CountingPath, NullTracer, import_times, reference_kernel_s,
                     reference_process_s, run_bwflow)

now = time.perf_counter

# CLI defaults of `run` / `diag` in the README quick start.
T_END = 5.0
FOCK_T_END = 2.0
GENERIC_BLOCK = (1.0, 2.0, 0.5)
STIFF_BLOCK = (1.0, 1e4, 0.5)

KNOWN_DEFECTS = {
    "split-stiff": "--method split on the stiff block returns [1, 1e4] and C = 0; "
                   "BdG gives 0.99990001 and -9.999e-5",
    "n64-noise-floor": "at n = 64 the final ||B|| of the CLI defaults sits at the "
                       "integrator noise floor, 1e-9 to 1e-8, next to conv_tol = 1e-8",
    "fock-sign-order": "at the default sector cut (cutoff // 2) the sign -1 "
                       "conjugation residual exceeds the sign +1 one (truncation leakage)",
}


class Results:
    """Per-operation verdicts and latency samples of one run."""

    def __init__(self):
        self.samples = defaultdict(list)   # metric name -> seconds of passed ops
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0                # failures no known defect explains
        self.failures = []
        self.rounds = []                   # wall seconds per round
        self.values = defaultdict(list)    # detail values, e.g. residuals
        self.unmeasured = []               # per-layer metrics the run never hit
        # op seconds over the mean of the reference timings around the op
        self.relative = defaultdict(list)  # metric name -> ratios of passed ops
        self.rounds_rel = []               # summed ratios of all ops, per round
        self.timeline = []                 # (op or "reference", seconds, passed)
        self._pending = []                 # ops since the last reference timing
        self._last_ref = None

    def op(self, name: str, seconds: float, problems: list, known: str = None) -> None:
        self.timeline.append((name, seconds, not problems))
        self._pending.append((name, seconds, not problems))
        self.attempted += 1
        if problems:
            self.failed += 1
            self.unexpected += known is None
            self.failures.append({"op": name, "problems": problems, "known_defect": known})
        else:
            self.samples[name].append(seconds)

    def reference(self, seconds: float) -> float:
        """Record a reference timing; return the summed ratios of the ops
        it closes, each op divided by the mean of its two references."""
        self.timeline.append(("reference", seconds, True))
        total = 0.0
        if self._last_ref is not None:
            unit = (self._last_ref + seconds) / 2
            for name, op_seconds, passed in self._pending:
                total += op_seconds / unit
                if passed:
                    self.relative[name].append(op_seconds / unit)
        self._pending = []
        self._last_ref = seconds
        return total


def _crash(exc: BaseException) -> list:
    return [f"raised {type(exc).__name__}: {exc}",
            traceback.format_exc(limit=-3).strip()[-600:]]


# ---------------------------------------------------------------------------
# inputs

def random_spec(rng: np.random.Generator, n: int):
    """Random complex spec with a spectral gap, so the flow converges.

    Omega = Q diag(lam) Q* with Haar-like Q and lam in [1, 2] (both ends
    pinned, so step-size limits and decay rates match across seeds); B is
    a random complex symmetric matrix of operator norm 1/4, which keeps
    Omega - 4 B Omega^-t B~ >= 3/4 (condition A6).
    """
    from bwflow.opcore import QuadraticSpec

    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    lam = rng.uniform(1.0, 2.0, n)
    lam[0], lam[-1] = 1.0, 2.0
    omega = (q * lam) @ q.conj().T
    omega = (omega + omega.conj().T) / 2
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = (g + g.T) / 2
    b *= 0.25 / np.linalg.norm(b, 2)
    return QuadraticSpec.from_matrices(omega, b, c0=float(rng.uniform(-1, 1)),
                                       label=f"random-n{n}")


def _write_generic(workdir: str) -> str:
    from bwflow import analytic, cli

    spec = analytic.block_spec([GENERIC_BLOCK], label="generic-1-2-0.5")
    path = os.path.join(workdir, "generic.json")
    with open(path, "w", encoding="utf-8") as fh:
        cli.dump_spec(spec, fh)
    return path


def _limit_problems(bdg, omega_inf, c_inf, converged, final_hs_b, conv_tol):
    problems = []
    if not converged:
        problems.append(f"not converged: final ||B|| = {final_hs_b:.3e} >= {conv_tol:g}")
    ok, msg = oracle.limit_ok(bdg, omega_inf, c_inf)
    if not ok:
        problems.append(msg)
    return problems


# ---------------------------------------------------------------------------
# quick-start part (cli-commands)

class CliQuickstart:
    """README quick-start commands, each a fresh `bwflow` process."""

    named = ("cli_check_s", "cli_run_s", "cli_diag_s")

    def prepare(self, seed: int, workdir: str) -> None:
        from bwflow import analytic, cli  # noqa: F401  (what the user pays)

        self.workdir = workdir
        self.spec_path = _write_generic(workdir)
        self.csv_path = os.path.join(workdir, "traj.csv")
        spec = analytic.block_spec([GENERIC_BLOCK])
        self.spec = spec
        self.bdg = oracle.bdg_limit(spec.omega, spec.b, spec.c0)

    def command(self, cmd: str, tr, res: Results) -> None:
        args = {"check": ["check", self.spec_path],
                "run": ["run", self.spec_path, "--t-end", str(T_END), "--csv", self.csv_path],
                "diag": ["diag", self.spec_path, "--t-end", str(T_END)]}[cmd]
        with tr.op(f"cli.{cmd}"):
            proc = run_bwflow(args, self.workdir)
        problems = [f"exit {proc.code}: {proc.err[-300:]}"] if proc.code else []
        if not problems:
            try:
                problems = getattr(self, f"_check_{cmd}")(proc.out)
            except (ValueError, OSError, AttributeError) as exc:
                problems = [f"unreadable output: {exc}"]
        res.op(f"cli_{cmd}_s", proc.seconds, problems)

    def _check_check(self, out: str) -> list:
        return [f"{c} does not hold" for c in ("A1", "A2", "A3")
                if not re.search(rf"^{c}\s+holds\b", out, re.M)]

    def _check_run(self, out: str) -> list:
        from bwflow import cli

        eigs = np.array(oracle.parse_floats_after(out, "OmegaInf eigenvalues:"))
        c_inf = oracle.parse_floats_after(out, "cInf =")[0]
        final_hs_b = float(re.search(r"final \|\|B_t\|\|_2 = (\S+) ", out).group(1))
        problems = _limit_problems(self.bdg, np.diag(eigs), c_inf,
                                   "converged: yes" in out, final_hs_b, 1e-8)
        with open(self.csv_path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if lines[0] != cli.CSV_HEADER or len(lines) < 3:
            problems.append("trajectory CSV header or row count wrong")
        elif float(lines[-1].split(",")[0]) != T_END:
            problems.append("trajectory CSV does not end at t_end")
        return problems

    def _check_diag(self, out: str) -> list:
        from bwflow import bogoliubov

        problems = []
        for key in ("uu_vv", "u_u_vv", "uv_sym", "u_v_sym"):
            val = oracle.parse_floats_after(out, f"  {key} =")[0]
            if not val <= bogoliubov.MAP_TOL:
                problems.append(f"symplectic {key} = {val:.3e} > {bogoliubov.MAP_TOL:g}")
        if "holds: yes" not in out:
            problems.append("norm bounds do not hold")
        m = re.search(r"\|dOmega\| = (\S+), \|dB\| = (\S+), \|dC\| = (\S+)", out)
        if m is None or not max(float(x) for x in m.groups()) <= oracle.ROUNDTRIP_TOL:
            problems.append(f"transform round trip above {oracle.ROUNDTRIP_TOL:g}")
        if "squeeze strengths:" not in out:
            problems.append("no squeeze decomposition printed")
        return problems

    def trace_extras(self, tr, res: Results) -> None:
        from bwflow import conditions

        for _ in range(3):
            with tr.span("cli.importtime"):
                times = import_times("bwflow.cli", self.workdir)
            tr.count("cli.import_s", times["bwflow.cli"])
            for mod in ("scipy.integrate", "scipy.interpolate", "scipy.linalg"):
                tr.count(f"cli.import_{mod.replace('.', '_')}_s", times.get(mod, 0.0))
        for _ in range(20):
            with tr.span("conditions.check_all_n2"):
                conditions.check_all(self.spec)


# ---------------------------------------------------------------------------
# sweep part (library-sweep)

SWEEP_SIZES = (2, 8, 32, 64)
SPECS_PER_SIZE = 8


class FlowSweep:
    """Library path behind `run` and `diag` on seeded random specs."""

    named = ("run_n2_s", "run_n64_s", "diag_n2_s", "diag_n64_s")

    def prepare(self, seed: int, workdir: str) -> None:
        from bwflow import bogoliubov, conditions, flow  # noqa: F401

        rng = np.random.default_rng(seed)
        self.specs = {n: [random_spec(rng, n) for _ in range(SPECS_PER_SIZE)]
                      for n in SWEEP_SIZES}
        self.times = np.sort(rng.uniform(0.0, T_END, 20))
        self.bdg = {}
        self.turn = dict.fromkeys(SWEEP_SIZES, 0)

    def warm_up(self) -> None:
        self.process(self.specs[2][0], _NULL, Results())

    def next_spec(self, n: int, tr, res: Results) -> None:
        """Process the next spec of size n, taking the pool in turn."""
        self.process(self.specs[n][self.turn[n] % SPECS_PER_SIZE], tr, res)
        self.turn[n] += 1

    def process(self, spec, tr, res: Results) -> None:
        from bwflow import conditions, flow
        from bwflow.errors import BwflowError

        n = spec.dim
        controls = flow.Controls()  # CLI defaults: tol 1e-10, conv_tol 1e-8
        problems, known = [], None
        with tr.op(f"sweep.spec_n{n}"):
            t0 = now()
            try:
                with tr.span(f"conditions.check_all_n{n}"):
                    rep = conditions.check_all(spec)
                t1 = now()
                with tr.span(f"flow.integrate_n{n}"):
                    traj = flow.integrate(spec, T_END, controls)
                t_int = now() - t1
                with tr.span(f"flow.limit_extract_n{n}"):
                    omega_inf, c_inf, conv = flow.limit_extract(traj)
                with tr.span(f"flow.decay_fit_n{n}"):
                    try:
                        flow.decay_fit(traj)
                    except BwflowError:
                        pass  # `run` prints "n/a" for this
                with tr.span(f"flow.write_csv_n{n}"):
                    traj.write_csv(io.StringIO())
                t2 = now()
                # `diag` stops with exit 4 when the flow has not converged
                diag = self._diag(traj, tr, n) if conv else None
                t3 = now()
            except Exception as exc:  # a crash is a failed operation
                problems = _crash(exc)
        if not problems:
            problems, known = self._check(spec, rep, traj, omega_inf, c_inf, conv,
                                          diag, res)
        res.op(f"spec_n{n}_s", 0.0 if problems else t3 - t0, problems, known)
        if not problems:
            res.samples[f"run_n{n}_s"].append(t2 - t1)
            res.samples[f"diag_n{n}_s"].append(t3 - t2)
            if tr.enabled:
                self._layer_counts(spec, traj, tr, t_int)

    def _diag(self, traj, tr, n) -> dict:
        from bwflow import bogoliubov

        t_final = traj.final.t
        with tr.span(f"flow.b_path_n{n}"):
            bp = traj.b_path()
        if tr.enabled:
            # time the lazy spline build and single lookups on their own
            name = "flow.spline_build" if n == 64 else f"flow.spline_build_n{n}"
            with tr.span(name):
                traj.state_at(0.5 * t_final)
            if n == 64:
                t0 = now()
                for t in self.times:
                    traj.state_at(min(t, t_final))
                tr.count("flow.state_at_us", 1e6 * (now() - t0) / len(self.times))
            bp = CountingPath(bp)
        with tr.span(f"bogoliubov.integrate_uv_n{n}"):
            m = bogoliubov.integrate_uv(bp, 0.0, t_final, traj.controls)
        if tr.enabled:
            tr.count(f"bogoliubov.uv_bpath_calls_n{n}", bp.calls)
            bp.calls = 0
        with tr.span(f"bogoliubov.symplectic_residuals_n{n}"):
            sym = bogoliubov.symplectic_residuals(m)
        with tr.span(f"bogoliubov.path_integral_n{n}"):
            int_b = bogoliubov.path_hs_integral(bp, 0.0, t_final)
        if tr.enabled:
            tr.count(f"bogoliubov.path_integral_bpath_calls_n{n}", bp.calls)
        with tr.span(f"bogoliubov.norm_bounds_n{n}"):
            bounds = bogoliubov.norm_bounds(m, int_b)
        with tr.span(f"bogoliubov.transform_n{n}"):
            transformed = bogoliubov.transform_spec(m, traj.spec)
        with tr.span(f"bogoliubov.decompose_n{n}"):
            bogoliubov.decompose_generator(m)
        return {"symplectic": max(sym.values()), "bounds": bounds,
                "transformed": transformed}

    def _check(self, spec, rep, traj, omega_inf, c_inf, conv, diag, res):
        from bwflow import bogoliubov

        n = spec.dim
        problems = [f"{c} does not hold" for c in ("A1", "A2", "A3") if not rep.holds(c)]
        if id(spec) not in self.bdg:
            self.bdg[id(spec)] = oracle.bdg_limit(spec.omega, spec.b, spec.c0)
        bdg = self.bdg[id(spec)]
        final = traj.final
        problems += _limit_problems(bdg, omega_inf, c_inf, conv, final.hs_b,
                                    traj.controls.conv_tol)
        res.values[f"flow.limit_err_bdg_n{n}"].append(
            max(oracle.limit_errors(bdg, omega_inf, c_inf)))
        res.values[f"flow.final_hs_b_n{n}"].append(final.hs_b)
        scale = float(np.linalg.norm(spec.omega)) ** 2
        drift = max(d.motion_residual for d in traj.diags) / scale
        if not drift <= 1e-8:  # AC-4
            problems.append(f"trace drift {drift:.3e} > 1e-8 of ||Omega0||^2")
        if diag is not None:
            if not diag["symplectic"] <= bogoliubov.MAP_TOL:
                problems.append(f"symplectic residual {diag['symplectic']:.3e} > "
                                f"{bogoliubov.MAP_TOL:g}")
            if diag["bounds"] != (True, True):
                problems.append(f"norm bounds {diag['bounds']}")
            tf = diag["transformed"]
            rt = max(np.linalg.norm(tf.omega - final.omega),
                     np.linalg.norm(tf.b - final.b), abs(tf.c0 - final.c))
            res.values[f"bogoliubov.roundtrip_residual_n{n}"].append(rt)
            if not rt <= oracle.ROUNDTRIP_TOL:
                problems.append(f"transform round trip {rt:.3e} > {oracle.ROUNDTRIP_TOL:g}")
        # the failure recorded for the seed: non-convergence at n = 64
        only_conv = len(problems) == 1 and problems[0].startswith("not converged")
        known = "n64-noise-floor" if only_conv and n == 64 else None
        return problems, known

    def _layer_counts(self, spec, traj, tr, t_int):
        from bwflow import flow

        n = spec.dim
        steps = traj.stats["n_steps"]
        tr.count(f"flow.steps_n{n}", steps)
        tr.count(f"flow.rhs_evals_n{n}", traj.stats["n_rhs"])
        tr.count(f"flow.step_n{n}_us", 1e6 * t_int / steps)
        if n in (2, 64):
            state = flow.FlowState(0.0, spec.omega, spec.b, spec.c0)
            reps = 400 if n == 2 else 100
            t0 = now()
            for _ in range(reps):
                flow.rhs(state)
            tr.count(f"flow.rhs_eval_n{n}_us", 1e6 * (now() - t0) / reps)
        if n == 64:
            tr.count("flow.wall_time_gap_n64_s", t_int - traj.stats["wall_time"])
            with tr.span("flow.diagnostics_n64"):
                flow.Trajectory(traj.spec, traj.controls, traj.scalar_sign,
                                traj.states, traj.events, traj.stats)


# ---------------------------------------------------------------------------
# long-horizon part (library-sweep)

class LongHorizon:
    """Stepping past convergence and on a stiff Omega."""

    named = ("horizon500_s", "stiff_s")

    def prepare(self, seed: int, workdir: str) -> None:
        from bwflow import analytic, flow  # noqa: F401

        self.cases = {}
        for key, block in (("h500", GENERIC_BLOCK), ("stiff", STIFF_BLOCK)):
            spec = analytic.block_spec([block])
            exact = np.linalg.eigvalsh(analytic.exact_limit_block([block]).mat)
            self.cases[key] = (spec, oracle.bdg_limit(spec.omega, spec.b, spec.c0), exact)

    def warm_up(self) -> None:
        self.solve("h500", 500.0, "rk", _NULL, Results(), "horizon500_s")

    def case(self, name: str, tr, res: Results) -> None:
        if name == "h500":
            self.solve("h500", 500.0, "rk", tr, res, "horizon500_s")
        elif name == "stiff":
            self.solve("stiff", 1.0, "rk", tr, res, "stiff_s")
        else:
            self.solve("stiff", 1.0, "split", tr, res, "split_stiff_s", known="split-stiff")

    def solve(self, key, t_end, method, tr, res, metric, known=None):
        from bwflow import flow
        from bwflow.errors import BwflowError

        spec, bdg, exact = self.cases[key]
        name = {"h500": "flow.integrate_h500", "stiff": "flow.integrate_stiff"}[key]
        if method == "split":
            name = "flow.split_stiff"
        controls = flow.Controls(method=method)
        with tr.op(f"horizon.{metric[:-2]}"):
            t0 = now()
            try:
                with tr.span(name):
                    traj = flow.integrate(spec, t_end, controls)
                with tr.span("flow.limit_extract"):
                    omega_inf, c_inf, conv = flow.limit_extract(traj)
                problems = []
            except Exception as exc:  # a crash is a failed operation
                problems = _crash(exc)
            seconds = now() - t0
        if not problems:
            problems = _limit_problems(bdg, omega_inf, c_inf, conv, traj.final.hs_b,
                                       controls.conv_tol)
            err = float(np.max(np.abs(np.linalg.eigvalsh(omega_inf) - exact)))
            if not err <= oracle.LIMIT_TOL:
                problems.append(f"limit vs exact block: {err:.3e}")
            if tr.enabled and method == "rk":
                self._layer_counts(key, traj, controls, tr)
        res.op(metric, seconds, problems, known if problems else None)

    @staticmethod
    def _layer_counts(key, traj, controls, tr):
        steps = traj.stats["n_steps"]
        tr.count(f"flow.steps_{key}", steps)
        if key == "h500":
            # states hold every accepted step below max_samples (10000)
            hs = np.array([s.hs_b for s in traj.states])
            useful = int(np.argmax(hs < controls.conv_tol)) if hs.min() < controls.conv_tol else steps
            tr.count("flow.useful_step_ratio_h500", useful / steps)
        else:
            # RK45 spends 2 RHS calls on start-up and 6 per attempted step
            attempted = (traj.stats["n_rhs"] - 2) / 6
            tr.count("stepping.accept_ratio_stiff", steps / attempted)


# ---------------------------------------------------------------------------
# Fock part (cli-commands)

FOCK_CUTOFFS = (20, 30)
_FOCK_LINES = {
    "unitarity": r"unitarity residual of U\(t=\S+\) on interior sectors: (\S+)",
    "minus": r"scalar sign -1: (\S+)\n",
    "plus": r"scalar sign \+1: (\S+)\n",
    "ground_gap": r"cInf with scalar sign -1: \S+ \(ground - cInf = (\S+)\)",
}


class FockOracle:
    """README `fock-verify` at cutoff 20 (timed) and 30 (traced run only)."""

    named = ("fock_verify_c20_s", "fock_verify_c30_s")

    def prepare(self, seed: int, workdir: str) -> None:
        from bwflow import analytic, cli  # noqa: F401

        self.workdir = workdir
        self.spec_path = _write_generic(workdir)
        self.spec = analytic.block_spec([GENERIC_BLOCK])
        self.printed = {}

    def verify(self, cutoff: int, tr, res: Results) -> None:
        with tr.op(f"cli.fock_verify_c{cutoff}"):
            proc = run_bwflow(["fock-verify", self.spec_path, "--cutoff", str(cutoff),
                               "--t-end", str(FOCK_T_END)], self.workdir)
        problems = [f"exit {proc.code}: {proc.err[-300:]}"] if proc.code else []
        if not problems:
            try:
                vals = {k: float(re.search(p, proc.out).group(1))
                        for k, p in _FOCK_LINES.items()}
            except AttributeError:
                problems = ["fock-verify output incomplete"]
        if not problems:
            self.printed[cutoff] = vals
            if not vals["unitarity"] <= oracle.UNITARITY_TOL:
                problems.append(f"unitarity {vals['unitarity']:.3e} > "
                                f"{oracle.UNITARITY_TOL:g}")
            if not abs(vals["ground_gap"]) <= oracle.GROUND_TOL:
                problems.append(f"|E0 - cInf| = {abs(vals['ground_gap']):.3e} > "
                                f"{oracle.GROUND_TOL:g}")
            res.values[f"fock.conj_residual_minus_c{cutoff}"].append(vals["minus"])
            res.values[f"fock.conj_residual_plus_c{cutoff}"].append(vals["plus"])
            res.values[f"fock.sign_order_ok_c{cutoff}"].append(
                float(vals["minus"] < vals["plus"]))
        res.op(f"fock_verify_c{cutoff}_s", proc.seconds, problems)

    def trace_extras(self, tr, res: Results) -> None:
        self.verify(30, tr, res)
        for cutoff in FOCK_CUTOFFS:
            t0 = now()
            with tr.op(f"fock.replay_c{cutoff}"):
                got = self.replay(cutoff, tr)
            seconds = now() - t0
            want = self.printed.get(cutoff)
            same = want is not None and all(
                f"{got[k]:.6e}" == f"{want[k]:.6e}" for k in ("minus", "plus")) and \
                f"{got['unitarity']:.3e}" == f"{want['unitarity']:.3e}"
            res.op(f"fock_replay_c{cutoff}_s", seconds,
                   [] if same else [f"replay residuals {got} differ from fock-verify {want}"])

    def replay(self, cutoff: int, tr) -> dict:
        """The public calls `fock-verify` makes, each in its own span."""
        from bwflow import flow, fock
        from bwflow.opcore import QuadraticSpec

        spec = self.spec
        controls = flow.Controls()
        sector_cut = max(0, min(cutoff - 4, cutoff // 2))
        with tr.span(f"fock.build_basis_c{cutoff}"):
            fk = fock.build_basis(spec.dim, cutoff)
        with tr.span(f"fock.hamiltonian_op_c{cutoff}"):
            h0 = fock.hamiltonian_op(fk, spec)
        fock.hermiticity_residual(h0)
        trajs = {}
        for sign in (-1.0, 1.0):
            with tr.span("flow.integrate_fock"):
                trajs[sign] = flow.integrate(spec, FOCK_T_END, controls, scalar_sign=sign)
        t_final = trajs[-1.0].final.t
        path = CountingPath(trajs[-1.0].b_path())
        with tr.span(f"fock.propagate_c{cutoff}"):
            u = fock.propagate(fk, path, 0.0, t_final, tol=controls.tol)
        with tr.span(f"fock.unitarity_residual_c{cutoff}"):
            unitarity = fock.unitarity_residual(fk, u)
        resid = {}
        for sign in (-1.0, 1.0):
            final = trajs[sign].final
            spec_t = QuadraticSpec.from_matrices(final.omega, final.b, c0=final.c,
                                                 sym_tol=np.inf)
            with tr.span(f"fock.conjugation_residual_c{cutoff}"):
                resid[sign] = fock.conjugation_residual(fk, u, spec, spec_t, sector_cut)
        omega_inf, c_inf, _ = flow.limit_extract(trajs[-1.0])
        flow.limit_extract(trajs[1.0])
        spec_inf = QuadraticSpec.from_matrices(omega_inf, np.zeros_like(omega_inf),
                                               c0=c_inf, sym_tol=np.inf)
        with tr.span(f"fock.n_diag_residual_c{cutoff}"):
            fock.n_diag_residual(fk, spec_inf)
        with tr.span(f"fock.ground_energy_c{cutoff}"):
            fock.ground_energy(fk, spec)
        with tr.span(f"fock.ground_shift_c{cutoff}"):
            fock.ground_truncation_shift(fk, spec)
        tr.count(f"fock.propagate_bpath_calls_c{cutoff}", path.calls)
        tr.count(f"fock.basis_dim_c{cutoff}", fk.dim)
        # computed, not measured: one dense complex generator per RHS call
        tr.count(f"fock.generator_bytes_c{cutoff}", 16 * fk.dim ** 2)
        return {"minus": resid[-1.0], "plus": resid[1.0], "unitarity": unitarity}


class Workload:
    """Parts that share one round.

    A round runs the operations in ROUND one at a time, with a reference
    timing before each and after the last, so every op has a reference
    on both sides.
    """

    parts: tuple = ()
    ROUND: tuple = ()

    def prepare(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        for p in self.parts:
            p.prepare(seed, workdir)

    def warm_up(self) -> None:
        self.reference_s()
        for p in self.parts:
            if hasattr(p, "warm_up"):
                p.warm_up()

    def round(self, tr, res: Results) -> None:
        total = res.reference(self.reference_s())
        for step in self.ROUND:
            self.step(step, tr, res)
            total += res.reference(self.reference_s())
        res.rounds_rel.append(total)

    def trace_extras(self, tr, res: Results) -> None:
        for p in self.parts:
            if hasattr(p, "trace_extras"):
                p.trace_extras(tr, res)


class CliCommands(Workload):
    """README commands as fresh processes: the quick start and fock-verify c20."""

    # diag twice, so the heaviest quick-start command gets as many samples
    # as the pool; fock-verify c30 takes about 20 s, too long to repeat in
    # a timed run, so it runs once in the traced run
    ROUND = ("check", "fock", "diag", "run", "fock", "diag")
    named = CliQuickstart.named + FockOracle.named
    small = CliQuickstart.named
    large = ("fock_verify_c20_s",)

    def __init__(self):
        self.quick, self.fock = CliQuickstart(), FockOracle()
        self.parts = (self.quick, self.fock)

    def reference_s(self) -> float:
        return reference_process_s(self.workdir)

    def step(self, step: str, tr, res: Results) -> None:
        if step == "fock":
            self.fock.verify(20, tr, res)
        else:
            self.quick.command(step, tr, res)


class LibrarySweep(Workload):
    """The sweep's specs and the long-horizon cases in one round."""

    # n=2 specs (ints are sweep sizes) alternate with the other ops, so the
    # small-op samples cover the whole run; n=64 runs three times for
    # enough large-op samples
    ROUND = (2, 64, 2, "h500", 2, 8, 2, "stiff", 2, 64,
             2, 8, 2, 32, 2, "split", 2, 64, 2, "h500")
    named = FlowSweep.named + LongHorizon.named
    small = ("spec_n2_s",)
    large = ("spec_n64_s",)

    def __init__(self):
        self.sweep, self.horizon = FlowSweep(), LongHorizon()
        self.parts = (self.sweep, self.horizon)

    def reference_s(self) -> float:
        return reference_kernel_s()

    def step(self, step, tr, res: Results) -> None:
        if isinstance(step, int):
            self.sweep.next_spec(step, tr, res)
        else:
            self.horizon.case(step, tr, res)


_NULL = NullTracer()

# Two workloads, so that each run can last long enough for steady medians
# on a noisy 2-core machine; see NOTES.md.
WORKLOADS = {"cli-commands": CliCommands, "library-sweep": LibrarySweep}
