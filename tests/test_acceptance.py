"""Acceptance gate: one test per criterion AC-1 .. AC-11.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion with the measured numbers next to their thresholds.
"""

import time

import numpy as np
import pytest

from bwflow import analytic, bogoliubov, conditions, flow, fock
from bwflow.conditions import Sandwiches
from bwflow.errors import BlowupDetected
from bwflow.opcore import QuadraticSpec, hs_norm, min_eig_hermitian
from conftest import check_a3_a6
from flow_reference import asymptotic_bound_check, dyson_uv, psd_sqrt

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def seeded_spec(seed: int, n: int = 4, frac: float = 0.8,
                omega_norm: float = 1.5) -> QuadraticSpec:
    """Random n-mode spec with 4*B(Om^T)^-1*B~ strictly below Omega.

    Omega is normalized to a moderate spectral norm so that ||B_t|| is
    still well above the integrator noise floor at the probe times; the
    pointwise bound checks are meaningless on pure roundoff noise.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    omega = a @ a.conj().T + 0.5 * np.eye(n)
    omega *= omega_norm / float(np.linalg.eigvalsh(omega)[-1])
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    raw = (raw + raw.T) / 2
    lam = float(np.linalg.eigvalsh(Sandwiches(raw, omega).matrix(1).mat)[-1])
    lo = float(np.linalg.eigvalsh(omega)[0])
    scale = np.sqrt(frac * lo / (4.0 * lam))
    return QuadraticSpec.from_matrices(omega, scale * raw, label=f"seed{seed}")


def block_deviation(traj, params) -> float:
    """Worst distance of recorded samples from a one-block closed form."""
    worst = 0.0
    for st in traj.states:
        lo, hi, bt2, _ = analytic.exact_block(*params, st.t)
        ref_om = np.diag([lo, hi]).astype(complex)
        bt = np.sqrt(max(float(bt2), 0.0))
        ref_b = np.array([[0.0, bt], [bt, 0.0]], dtype=complex)
        worst = max(worst, hs_norm(st.omega - ref_om), hs_norm(st.b - ref_b))
    return worst


@pytest.fixture(scope="module")
def ac1_run():
    spec = analytic.block_spec([(1.0, 2.0, 0.5)], label="ac1")
    t0 = time.perf_counter()
    traj = flow.integrate(spec, 5.0, flow.Controls(tol=1e-10))
    return spec, traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def flat_run():
    spec = analytic.block_spec([(2.0, 2.0, 0.5)], label="flat")
    traj = flow.integrate(spec, 5.0, flow.Controls(tol=1e-10))
    return spec, traj


@pytest.fixture(scope="module")
def seeded_runs():
    t0 = time.perf_counter()
    runs = []
    for seed in range(20):
        spec = seeded_spec(seed)
        runs.append((spec, flow.integrate(spec, 10.0,
                                          flow.Controls(tol=1e-10))))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fock_setup():
    spec = QuadraticSpec.from_matrices([[2.0]], [[0.5]], label="one-mode")
    t0 = time.perf_counter()
    fk = fock.build_basis(1, 40)
    traj_minus = flow.integrate(spec, 3.0, flow.Controls(tol=1e-10))
    traj_plus = flow.integrate(spec, 2.0, flow.Controls(tol=1e-10),
                               scalar_sign=+1.0)
    u = fock.propagate(fk, traj_minus, 0.0, 2.0)
    return spec, fk, traj_minus, traj_plus, u, time.perf_counter() - t0


def test_ac1_generic_closed_form(ac1_run):
    spec, traj, elapsed = ac1_run
    assert analytic.block_regime(1.0, 2.0, 0.5) == "generic"
    dev = block_deviation(traj, (1.0, 2.0, 0.5))
    omega_inf, _, _ = flow.limit_extract(traj)
    eigs = np.linalg.eigvalsh((omega_inf + omega_inf.conj().T) / 2)
    eig_err = max(abs(eigs[0] - GOLDEN), abs(eigs[1] - GOLDEN - 1.0))
    ok = dev <= 1e-7 and eig_err <= 1e-6 and elapsed < 1.0
    _report("AC-1", ok,
            f"grid deviation {dev:.3e} <= 1e-7, limit eig err {eig_err:.3e}"
            f" <= 1e-6, {elapsed:.3f} s < 1 s")


def test_ac2_equal_product_closed_form():
    t0 = time.perf_counter()
    dev = 0.0
    for om_minus, om_plus in ((1.0, 4.0), (2.0, 2.0)):
        traj = flow.integrate(analytic.block_spec([(om_minus, om_plus, 1.0)]),
                              1.0, flow.Controls(tol=1e-10))
        assert analytic.block_regime(om_minus, om_plus, 1.0) == "equal-product"
        dev = max(dev, block_deviation(traj, (om_minus, om_plus, 1.0)))
    flat = flow.integrate(analytic.block_spec([(2.0, 2.0, 1.0)]), 10.0,
                          flow.Controls(tol=1e-10, conv_tol=1e-8))
    stuck = not flat.converged()
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-7 and stuck and elapsed < 1.0
    _report("AC-2", ok,
            f"grid deviation {dev:.3e} <= 1e-7, flat case converged = "
            f"{not stuck} (want False, final ||B|| = {flat.final.hs_b:.3e}),"
            f" {elapsed:.3f} s < 1 s")


def test_ac3_blowup_detection():
    t0 = time.perf_counter()
    spec = analytic.block_spec([(0.0, 0.0, 1.0)], label="blowup")
    t_star = None
    b_err = np.inf
    try:
        flow.integrate(spec, 1.0, flow.Controls(tol=1e-10))
    except BlowupDetected as exc:
        t_star = exc.event.t
        st = exc.trajectory.state_at(0.15)
        b_err = abs(st.b[0, 1].real - 1.0 / np.cos(1.2))
    elapsed = time.perf_counter() - t0
    window = t_star is not None and 0.15 < t_star < np.pi / 16.0 + 1e-3
    ok = window and b_err <= 1e-6 and elapsed < 1.0
    _report("AC-3", ok,
            f"t* = {t_star}, window (0.15, {np.pi / 16 + 1e-3:.6f}), "
            f"|b(0.15) - sec(1.2)| = {b_err:.3e} <= 1e-6, "
            f"{elapsed:.3f} s < 1 s")


def test_ac4_constant_of_motion(seeded_runs):
    runs, elapsed = seeded_runs
    worst = 0.0
    for spec, traj in runs:
        scale = hs_norm(spec.omega) ** 2
        worst = max(worst,
                    max(d.motion_residual for d in traj.diags) / scale)
    ok = worst <= 1e-8 and elapsed < 30.0
    _report("AC-4", ok,
            f"worst trace drift {worst:.3e} <= 1e-8 of ||Omega0||^2 over "
            f"20 specs, {elapsed:.2f} s < 30 s")


def test_ac5_commuting_limit(flat_run):
    spec, traj = flat_run
    k_worst = max(d.k_norm for d in traj.diags)
    omega_inf, _, _ = flow.limit_extract(traj)
    target = psd_sqrt(spec.omega @ spec.omega
                      - 4.0 * (spec.b @ spec.b.conj())).mat
    lim_err = hs_norm(omega_inf - target)
    sqrt3_err = hs_norm(target - np.sqrt(3.0) * np.eye(2))
    ok = k_worst <= 1e-10 and lim_err <= 1e-6 and sqrt3_err < 1e-12
    _report("AC-5", ok,
            f"kNorm max {k_worst:.3e} <= 1e-10, "
            f"|OmegaInf - (Omega0^2-4B0B0~)^1/2| = {lim_err:.3e} <= 1e-6 "
            f"(target sqrt3*1 to {sqrt3_err:.1e})")


def test_ac6_map_and_transform_consistency(ac1_run):
    spec, traj, _ = ac1_run
    bp = traj.b_path()
    t_final = traj.final.t
    m = bogoliubov.integrate_uv(bp, 0.0, t_final)
    sym_worst = max(bogoliubov.symplectic_residuals(m).values())
    int_b = bogoliubov.path_hs_integral(bp, 0.0, t_final)
    bounds = bogoliubov.norm_bounds(m, int_b)
    trans_worst = 0.0
    for t in (0.5, 1.0, 2.0):
        mt = bogoliubov.integrate_uv(bp, 0.0, t)
        out = bogoliubov.transform_spec(mt, spec)
        st = traj.state_at(t)
        trans_worst = max(trans_worst, hs_norm(out.omega - st.omega),
                          hs_norm(out.b - st.b))
    series, _ = dyson_uv(bp, 0.0, t_final, order=8)
    dyson_err = max(hs_norm(series.u - m.u), hs_norm(series.v - m.v))
    ok = (sym_worst <= 1e-7 and bounds == (True, True)
          and trans_worst <= 1e-6 and dyson_err <= 1e-6)
    _report("AC-6", ok,
            f"symplectic {sym_worst:.3e} <= 1e-7, norm bounds {bounds}, "
            f"transform vs flow {trans_worst:.3e} <= 1e-6, "
            f"dyson(8) vs integrated {dyson_err:.3e} <= 1e-6")


def transform_residual(spec, traj, t) -> float:
    """AC-6's transform vs flow residual at one time."""
    out = bogoliubov.transform_spec(bogoliubov.integrate_uv(traj, 0.0, t), spec)
    st = traj.state_at(t)
    return max(hs_norm(out.omega - st.omega), hs_norm(out.b - st.b))


def test_ac6_transform_residual_is_within_the_tolerance(ac1_run):
    # AC-6 probes t = 0.5, 1 and 2, which are not sample times: there the
    # residual is the dense output's, and it stays below the stepper's
    # tolerance, as at the neighbouring samples
    spec, traj, _ = ac1_run
    ts, tol = traj.ts, traj.controls.tol
    for t in (0.5, 1.0, 2.0):
        i = int(np.searchsorted(ts, t))
        assert ts[i - 1] < t < ts[i]
        for probe in (ts[i - 1], t, ts[i]):
            assert transform_residual(spec, traj, probe) <= tol


def test_ac7_fock_oracle_scalar_sign(fock_setup):
    spec, fk, traj_minus, traj_plus, u, elapsed = fock_setup
    t0 = time.perf_counter()
    e0 = fock.ground_energy(fk, spec)
    e_err = abs(e0 - (np.sqrt(3.0) - 2.0) / 2.0)
    residuals = {}
    for sign, traj in ((-1.0, traj_minus), (+1.0, traj_plus)):
        st = traj.state_at(2.0)
        spec_t = QuadraticSpec.from_matrices(st.omega, st.b, c0=st.c,
                                             sym_tol=np.inf)
        residuals[sign] = fock.conjugation_residual(fk, u, spec, spec_t,
                                                    sector_cut=12)
    elapsed += time.perf_counter() - t0
    ok = (e_err <= 1e-4 and residuals[-1.0] <= 1e-4
          and residuals[+1.0] >= 1e-2 and elapsed < 20.0)
    _report("AC-7", ok,
            f"ground energy err {e_err:.3e} <= 1e-4, conjugation residual "
            f"sign -1: {residuals[-1.0]:.3e} <= 1e-4, "
            f"sign +1: {residuals[+1.0]:.3e} >= 1e-2, {elapsed:.2f} s < 20 s")


def test_ac8_n_diagonalization(fock_setup):
    spec, fk, traj_minus, _, _, _ = fock_setup
    omega_inf, c_inf, conv = flow.limit_extract(traj_minus)
    spec_inf = QuadraticSpec.from_matrices(
        omega_inf, np.zeros_like(omega_inf), c0=c_inf, sym_tol=np.inf)
    nd = fock.n_diag_residual(fk, spec_inf)
    h0 = fock.hamiltonian_op(fk, spec)
    evals = np.linalg.eigvalsh((h0 + h0.conj().T) / 2)
    spec_err = max(abs(evals[n] - (np.sqrt(3.0) * n + c_inf))
                   for n in range(9))
    ok = conv and nd == 0.0 and spec_err <= 1e-3
    _report("AC-8", ok,
            f"n-diag residual {nd} == 0, spectrum vs sqrt3*n + cInf "
            f"(n <= 8) err {spec_err:.3e} <= 1e-3")


def test_ac9_decay_rate(ac1_run, flat_run):
    _, traj, _ = ac1_run
    fit = flow.decay_fit(traj)
    rel = abs(fit.rate - 2.0 * np.sqrt(5.0)) / (2.0 * np.sqrt(5.0))
    flat_spec, flat_traj = flat_run
    gap_nu = check_a3_a6(flat_spec).values["gap_nu"]
    flat_fit = flow.decay_fit(flat_traj)
    ok = rel <= 0.05 and flat_fit.rate >= 2.0 * gap_nu
    _report("AC-9", ok,
            f"fitted rate {fit.rate:.4f} vs 2*sqrt5 = {2 * np.sqrt(5):.4f} "
            f"({100 * rel:.2f}% <= 5%), flat rate {flat_fit.rate:.4f} >= "
            f"2*gapNu = {2 * gap_nu:.1f}")


def test_ac10_conserved_inequalities(seeded_runs):
    runs, _ = seeded_runs
    om_dec = sq_mono = 0.0
    quad_excess = -np.inf
    asym_fail = 0
    for spec, traj in runs:
        om0 = spec.omega
        ref8 = om0 @ om0 - 8.0 * (spec.b @ spec.b.conj())
        for st in traj.states:
            om_dec = min(om_dec, min_eig_hermitian(om0 - st.omega))
            cur8 = st.omega @ st.omega - 8.0 * (st.b @ st.b.conj())
            sq_mono = min(sq_mono, min_eig_hermitian(cur8 - ref8))
        for alpha in (0.5, 1.0):
            for n_iter in (1, 2, 3, 4):
                for t in (0.5, 1.0, 5.0):
                    res = asymptotic_bound_check(traj.state_at(t), spec,
                                                 alpha, n_iter)
                    asym_fail += 0 if res["holds"] else 1
        ts = np.asarray(traj.ts)
        hs2 = np.asarray(traj.hs_bs) ** 2
        lhs = 4.0 * float(np.trapezoid(hs2, ts))
        tr0 = float(np.trace(Sandwiches(spec.b, spec.omega).matrix(1).mat).real)
        trt = float(np.trace(
            Sandwiches(traj.final.b, traj.final.omega).matrix(1).mat).real)
        quad_excess = max(quad_excess, lhs - (tr0 - trt))
    ok = (om_dec >= -1e-8 and sq_mono >= -1e-8 and asym_fail == 0
          and quad_excess <= 1e-8)
    _report("AC-10", ok,
            f"min_eig(Omega0-Omega_t) >= {om_dec:.3e} (>= -1e-8), "
            f"square monotonicity >= {sq_mono:.3e} (>= -1e-8), "
            f"asymptotic bound failures {asym_fail}/480, "
            f"quadrature excess {quad_excess:.3e} <= 1e-8")


def test_ac11_slow_decay_floor():
    t0 = time.perf_counter()
    spec = analytic.pivotal_family(12)
    traj = flow.integrate(spec, 256.0, flow.Controls(tol=1e-10))
    elapsed = time.perf_counter() - t0
    ts = np.asarray(traj.ts)
    hsb = np.asarray(traj.hs_bs)
    mask = ts >= 1.0
    floor = float(np.min(ts[mask] * hsb[mask]))
    ok = floor >= 0.01 and elapsed < 60.0
    _report("AC-11", ok,
            f"min of t*||B_t||_2 on [1, 256] = {floor:.4f} >= 0.01, "
            f"{elapsed:.2f} s < 60 s")
