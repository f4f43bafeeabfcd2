import io
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwflow import analytic, flow
from bwflow.errors import (BlowupDetected, InsufficientData, NotConverged,
                           NotPSD, PathGap)
from bwflow.conditions import Sandwiches
from bwflow.opcore import QuadraticSpec, hs_norm, min_eig_hermitian
from bwflow.stepping import DormandPrince, drive
from flow_reference import CarriedRhsReference, asymptotic_bound_check

GOLDEN = np.array([0.6180339887498948482046, 1.6180339887498948482046])


def test_rhs_worked_example(generic_spec):
    state = flow.FlowState(0.0, generic_spec.omega, generic_spec.b, 0.0)
    dom, db, dc = flow.rhs(state)
    assert np.allclose(dom, np.diag([-4.0, -4.0]))
    assert np.allclose(db, [[0.0, -3.0], [-3.0, 0.0]])
    assert np.isclose(dc, flow.SCALAR_SIGN * 8.0 * 0.5)  # ||B||_2^2 = 1/2


def test_scalar_sign_module_constant():
    assert flow.SCALAR_SIGN == -1.0


def test_integrate_matches_generic_closed_form(generic_traj):
    for s in generic_traj.states:
        lo, hi, b2, _ = analytic.exact_block(1.0, 2.0, 0.5, s.t)
        assert abs(s.omega[0, 0].real - lo) < 1e-7
        assert abs(s.omega[1, 1].real - hi) < 1e-7
        assert abs(s.b[0, 1].real ** 2 - b2) < 1e-7
        assert abs(s.omega[0, 1]) < 1e-9


def test_flow_keeps_structure_exactly():
    # the exactly structured RHS and the stepper's real-coefficient stage
    # sums keep Omega hermitian and B symmetric with no projection step
    rng = np.random.default_rng(8)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    b = 0.1 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    spec = QuadraticSpec.from_matrices(x @ x.conj().T / 8 + np.eye(8), (b + b.T) / 2)
    traj = flow.integrate(spec, t_end=50.0, controls=flow.Controls(tol=1e-12))
    assert len(traj.states) > 50
    assert traj.stats["n_tail"] > 0  # the frozen-Omega tail samples too
    for s in traj.states + [traj.state_at(t) for t in (0.37, 2.5)]:
        assert np.array_equal(s.omega, s.omega.conj().T)
        assert np.array_equal(s.b, s.b.T)


def test_scalar_coefficient_both_signs(generic_spec):
    # c picks up sign * 16 int b^2 on a single block (||B||_2^2 = 2 b^2)
    int_b2 = analytic.exact_block(1.0, 2.0, 0.5, 2.0)[3]
    for sign in (-1.0, +1.0):
        traj = flow.integrate(generic_spec, t_end=2.0, scalar_sign=sign)
        assert np.isclose(traj.final.c, sign * 16.0 * int_b2, atol=1e-9)


def test_stepped_columns_do_not_depend_on_c0_or_the_sign(generic_spec):
    # C is read out of Omega, not stepped: over c0 and both signs the steps
    # and the stepped [Omega, B, u, v, I] samples agree bit for bit, and
    # every C, sampled or interpolated, is the read-out
    runs = {}
    for c0 in (0.0, 0.7, 1e3):
        spec = QuadraticSpec.from_matrices(generic_spec.omega, generic_spec.b, c0=c0)
        for sign in (-1.0, 1.0):
            runs[c0, sign] = traj = flow.integrate(spec, 5.0, scalar_sign=sign)
            mid = traj.state_at(0.5 * (traj.ts[3] + traj.ts[4]))
            for s in traj.states + [mid]:
                assert s.c == flow.scalar_c(c0, spec.omega, s.omega, sign)
            assert flow.limit_extract(traj)[1] == traj.final.c
    ref = runs[0.0, -1.0]
    for traj in runs.values():
        for key in ("n_steps", "n_rhs", "tail_t", "n_tail"):
            assert traj.stats[key] == ref.stats[key]
        assert np.array_equal(traj.ts, ref.ts)
        for s, r in zip(traj.states, ref.states):
            assert np.array_equal(flow._vector(s), flow._vector(r))
            assert np.array_equal(s.dy, r.dy)


def test_zero_length_run_takes_no_step(generic_spec):
    traj = flow.integrate(generic_spec, 0.0)
    assert traj.stats["n_steps"] == 0 and traj.stats["tail_t"] is None
    assert len(traj.states) == 1 and traj.final.t == 0.0
    assert traj.final.c == generic_spec.c0


def test_blowup_detected_with_partial_trajectory():
    spec = analytic.block_spec([(0.0, 0.0, 1.0)])
    with pytest.raises(BlowupDetected) as err:
        flow.integrate(spec, t_end=1.0)
    ev = err.value.event
    assert 0.15 < ev.t < np.pi / 16.0 + 1e-3
    # T_0 = 1/(128 ||B_0||_2) with ||B_0||_2 = sqrt(2)
    assert np.isclose(ev.t0_lower_bound, 1.0 / (128.0 * np.sqrt(2.0)))
    traj = err.value.trajectory
    assert traj.states and traj.states[-1].hs_b > 1e3 * np.sqrt(2.0) * 0.999
    # the numeric solution tracks sec(8t) up to the guard
    st_ = traj.state_at(0.15)
    assert abs(st_.b[0, 1].real - 1.0 / np.cos(1.2)) < 1e-6


def stored_derivatives_match_the_rhs(traj):
    """Each sample's dy is _CarriedRhs at that sample, bit for bit."""
    rhs = flow._CarriedRhs(traj.spec.dim, traj.states[0].dy.dtype)
    for s in traj.states:
        assert np.array_equal(s.dy, rhs(s.t, flow._vector(s)))


def test_samples_keep_the_rhs_derivative(generic_spec):
    # stepped samples keep the stepper's FSAL stage, the first sample and
    # the frozen-Omega tail samples one evaluation each
    traj = flow.integrate(generic_spec, t_end=20.0)
    assert traj.stats["n_tail"] > 0
    stored_derivatives_match_the_rhs(traj)
    stored_derivatives_match_the_rhs(flow.integrate(generic_spec, 2.0, scalar_sign=1.0))
    with pytest.raises(BlowupDetected) as err:
        flow.integrate(analytic.block_spec([(0.0, 0.0, 1.0)]), t_end=1.0)
    blowup = err.value.trajectory
    assert blowup.final.hs_b > flow.BLOWUP_FACTOR * blowup.stats["hs_b0"]
    stored_derivatives_match_the_rhs(blowup)


def test_wall_time_covers_stepping_and_tail(generic_spec, monkeypatch):
    # integrate computes no diagnostics, and wall_time covers the stepping
    # and the frozen-Omega tail
    read, spent = [], []
    plain_columns = flow.Trajectory._diag_columns

    def columns(self, name):
        read.append(name)
        return plain_columns(self, name)

    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            spent.append(time.perf_counter() - t0)
            return out
        return wrapper

    monkeypatch.setattr(flow.Trajectory, "_diag_columns", columns)
    monkeypatch.setattr(flow, "drive", timed(flow.drive))
    monkeypatch.setattr(flow.FrozenTail, "at", timed(flow.FrozenTail.at))
    traj = flow.integrate(generic_spec, t_end=5.0)
    assert traj.stats["n_tail"] > 0 and len(spent) == 1 + traj.stats["n_tail"]
    assert traj.stats["wall_time"] >= sum(spent)
    assert read == []
    traj.write_csv(io.StringIO())  # reads only the columns it prints
    assert sorted(read) == ["c", "hs_b", "k_norm", "min_eig_omega", "motion_residual"]


def reference_diagnostics(state, spec):
    """FlowDiagnostics of one state, computed on its own."""
    om0, b0 = spec.omega, spec.b
    ref = om0 @ om0 - 4.0 * (b0 @ b0.conj())
    cur = state.omega @ state.omega - 4.0 * (state.b @ state.b.conj())
    k = state.omega @ state.b - state.b @ state.omega.T
    sq0 = om0 @ om0 - 8.0 * (b0 @ b0.conj())
    sqt = state.omega @ state.omega - 8.0 * (state.b @ state.b.conj())
    return flow.FlowDiagnostics(
        hs_b=state.hs_b, c=state.c, min_eig_omega=min_eig_hermitian(state.omega),
        motion_residual=abs(float(np.trace(cur).real) - float(np.trace(ref).real)),
        k_norm=hs_norm(k), matrix_motion_residual=hs_norm(cur - ref),
        omega_decrease_margin=min_eig_hermitian(om0 - state.omega),
        square_mono_margin=min_eig_hermitian(sqt - sq0))


def test_lazy_columns_match_per_sample_reference():
    # batched columns may sum in another order: equal to within rounding
    # of the largest quantities they difference, of order ||Omega_0||_2^2
    rng = np.random.default_rng(8)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    b = 0.1 * (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    spec = QuadraticSpec.from_matrices(x @ x.conj().T / 8 + np.eye(8), (b + b.T) / 2)
    traj = flow.integrate(spec, t_end=10.0)
    assert traj.stats["n_tail"] > 0
    atol = 8 * np.finfo(float).eps * hs_norm(spec.omega) ** 2
    expected = [reference_diagnostics(s, spec) for s in traj.states]
    for name in flow.FlowDiagnostics.__slots__:
        ref = np.array([getattr(d, name) for d in expected])
        assert np.allclose(traj.column(name), ref, rtol=1e-13, atol=atol), name
        assert np.allclose([getattr(d, name) for d in traj.diags], ref,
                           rtol=1e-13, atol=atol), name
    assert np.array_equal(traj.hs_bs, traj.column("hs_b"))


def test_rejects_non_finite_horizon(generic_spec):
    for t_end in (np.nan, np.inf):
        with pytest.raises(ValueError):
            flow.integrate(generic_spec, t_end)
    # the adaptive pair is the only method
    with pytest.raises(ValueError):
        flow.integrate(generic_spec, 1.0, flow.Controls(method="split"))


def test_t0_horizon():
    assert flow.t0_horizon(0.0) == np.inf
    assert np.isclose(flow.t0_horizon(2.0), 1.0 / 256.0)


def test_rejects_negative_omega():
    spec = QuadraticSpec.from_matrices(np.diag([-1.0, 1.0]), np.zeros((2, 2)))
    with pytest.raises(NotPSD):
        flow.integrate(spec, t_end=1.0)
    with pytest.raises(ValueError):
        flow.integrate(analytic.block_spec([(1.0, 2.0, 0.5)]), t_end=-1.0)


def test_tolerance_scaling(generic_spec):
    devs = {}
    for tol in (1e-6, 1e-10):
        traj = flow.integrate(generic_spec, t_end=2.0,
                              controls=flow.Controls(tol=tol))
        lo, hi, _, _ = analytic.exact_block(1.0, 2.0, 0.5, 2.0)
        devs[tol] = abs(traj.final.omega[0, 0].real - lo)
    assert devs[1e-10] < devs[1e-6]
    assert devs[1e-10] < 1e-9


def test_motion_residuals_small(generic_traj, generic_spec):
    scale = hs_norm(generic_spec.omega) ** 2
    assert (generic_traj.column("motion_residual") <= 1e-8 * scale).all()
    # k_norm stays at zero for the commuting block family
    spec = analytic.block_spec([(2.0, 2.0, 0.5)])
    traj = flow.integrate(spec, t_end=3.0)
    assert max(d.k_norm for d in traj.diags) <= 1e-10


def test_monotone_diagnostics(generic_traj):
    for d in generic_traj.diags:
        assert d.omega_decrease_margin >= -1e-8
        assert d.square_mono_margin >= -1e-8
        assert d.min_eig_omega >= -1e-9


def test_a3_condition_preserved_along_flow(generic_traj):
    # Omega_t - 4 B_t (Omega_t^t)^{-1} B_t~ stays PSD when it starts PSD
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        s = generic_traj.state_at(t)
        frak = Sandwiches(s.b, s.omega).matrix(1)
        assert min_eig_hermitian(s.omega - 4.0 * frak.mat) >= -1e-8


def test_trace_of_p2_sandwich_nonincreasing(generic_traj):
    values = []
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        s = generic_traj.state_at(t)
        values.append(float(np.trace(Sandwiches(s.b, s.omega).matrix(2).mat).real))
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_limit_extract_generic(generic_traj):
    omega_inf, c_inf, converged = flow.limit_extract(generic_traj)
    assert converged
    assert np.allclose(np.linalg.eigvalsh(omega_inf), GOLDEN, atol=1e-6)
    # C_inf against the BdG spectrum: c0 + (sum eps - tr Omega_0) / 2
    spec = generic_traj.spec
    eps = bdg_spectrum(spec.omega, spec.b)
    assert abs(c_inf - spec.c0 - 0.5 * (eps.sum() - np.trace(spec.omega).real)) <= 1e-9
    assert c_inf < 0.0  # sign convention: c decreases along the flow


def test_limit_extract_flat_not_converged():
    traj = flow.integrate(analytic.block_spec([(2.0, 2.0, 1.0)]), t_end=5.0)
    _, _, converged = flow.limit_extract(traj)
    assert not converged  # ||B_t|| ~ 1/t never reaches 1e-8 by t=5


def test_limit_extract_raises_on_blowup():
    spec = analytic.block_spec([(0.0, 0.0, 1.0)])
    with pytest.raises(BlowupDetected) as err:
        flow.integrate(spec, t_end=1.0)
    with pytest.raises(NotConverged):
        flow.limit_extract(err.value.trajectory)


def test_decay_fit_rate(generic_traj):
    fit = flow.decay_fit(generic_traj)
    assert abs(fit.rate - 2.0 * np.sqrt(5.0)) < 0.05 * 2.0 * np.sqrt(5.0)
    assert fit.n_samples >= 10
    assert fit.max_residual < 0.1
    explicit = flow.decay_fit(generic_traj, window=(1.0, 3.0))
    assert abs(explicit.rate - 2.0 * np.sqrt(5.0)) < 0.1


def test_decay_fit_takes_a_value_and_a_slope_row_per_sample(generic_traj):
    # the fit takes two rows per sample in the window, log ||B|| and its
    # slope, for the default window and an explicit one alike
    ts = generic_traj.ts
    for window in (None, (1.0, 3.0)):
        fit = flow.decay_fit(generic_traj, window=window)
        inside = ts[(ts >= fit.window[0]) & (ts <= fit.window[1])]
        assert (fit.window[0], fit.window[1]) == (inside[0], inside[-1])
        assert fit.n_samples == 2 * inside.size


def test_slope_at_the_hand_over_is_the_limit_rate(generic_traj):
    # -d log ||B|| / dt = -Re<B, dB> / ||B||^2 from the stored derivative
    # is, once the flow has converged, the decay rate 2 (lambda_0 + lambda_1)
    # of the one coupled pair of modes under Omega_inf
    traj, n2 = generic_traj, generic_traj.spec.dim ** 2
    s = traj.states[int(np.searchsorted(traj.ts, traj.stats["tail_t"]))]
    slope = -np.vdot(s.b, s.dy[n2:2 * n2]).real / s.hs_b ** 2
    lam = np.linalg.eigvalsh(traj.final.omega)
    assert abs(slope - 2.0 * (lam[0] + lam[1])) <= 1e-14 * slope


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decay_fit_on_seeded_n64_specs(seed):
    # at n = 64 the default window holds fewer than ten samples; with a
    # slope row per sample the fit has enough rows, and its rate is at
    # least 2 nu
    spec = seeded_n64_spec(seed)
    traj = flow.integrate(spec, t_end=5.0)
    fit = flow.decay_fit(traj)
    assert fit.n_samples >= 10
    w = np.linalg.eigvalsh(spec.omega)
    assert 2.0 * w[0] <= fit.rate <= 4.0 * w[-1]


def test_decay_fit_insufficient_data(generic_spec):
    short = flow.integrate(generic_spec, t_end=1e-4)
    with pytest.raises(InsufficientData):
        flow.decay_fit(short)


def test_asymptotic_bound(generic_traj, generic_spec):
    for t in (0.5, 1.0, 5.0):
        s = generic_traj.state_at(t)
        for alpha in (0.5, 1.0):
            for n_iter in (1, 2, 4):
                out = asymptotic_bound_check(s, generic_spec, alpha, n_iter)
                assert out["holds"], (t, alpha, n_iter, out)
    with pytest.raises(ValueError):
        asymptotic_bound_check(generic_traj.state_at(0.0), generic_spec, 1.0, 1)


def test_state_interpolation(generic_traj):
    s = generic_traj.state_at(1.3)
    lo, hi, b2, _ = analytic.exact_block(1.0, 2.0, 0.5, 1.3)
    assert abs(s.omega[0, 0].real - lo) < 1e-7
    assert abs(s.b[0, 1].real - np.sqrt(b2)) < 1e-7
    with pytest.raises(PathGap):
        generic_traj.state_at(6.0)
    with pytest.raises(PathGap):
        generic_traj.state_at(-0.5)


def test_csv_deterministic(generic_traj):
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        generic_traj.write_csv(buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    lines = bufs[0].splitlines()
    assert lines[0] == "t,hsB,c,minEigOmega,motionResidual,kNorm"
    assert len(lines) == len(generic_traj.states) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert np.isclose(float(first[1]), np.sqrt(0.5), rtol=1e-15)


def test_recorder_thinning(generic_spec, monkeypatch):
    # thinning keeps the final sample, also for an odd MAX_SAMPLES
    for max_samples in (40, 7):
        monkeypatch.setattr(flow, "MAX_SAMPLES", max_samples)
        for t_end in (3.0, 5.0):  # without and with the frozen-Omega tail
            traj = flow.integrate(generic_spec, t_end=t_end)
            assert len(traj.states) <= max_samples + 1
            assert traj.states[0].t == 0.0
            assert traj.states[-1].t == t_end


def rebuilt(traj):
    """A Trajectory made from the six constructor parts of traj."""
    return flow.Trajectory(traj.spec, traj.controls, traj.scalar_sign,
                           traj.states, traj.events, traj.stats)


def stepped_midpoints(traj):
    """The midpoint of every stepped sample interval (before any tail)."""
    ts = traj.ts
    tail_t = traj.stats.get("tail_t")  # a stopped run has none
    ts = ts if tail_t is None else ts[ts <= tail_t]
    return (ts[:-1] + ts[1:]) / 2


@pytest.mark.parametrize("make", [
    lambda: flow.integrate(analytic.block_spec([(1.0, 2.0, 0.5)]), 5.0),
    lambda: flow.integrate(random_a6_spec(8, n=8), 4.0),
    lambda: flow.integrate(seeded_n64_spec(0), 5.0),
], ids=["real-n2", "complex-n8", "complex-n64"])
def test_replayed_steps_end_on_their_samples(make, monkeypatch):
    # a trajectory re-runs each step from its left sample: one attempt of
    # the accepted size, the same stages, so it ends bit for bit on the
    # stored right sample, at 12 evaluations plus 3 for the dense output
    traj = rebuilt(make())
    runs, plain = [], flow.drive

    def spy(stepper, on_step=None):
        runs.append(plain(stepper, on_step))
        return runs[-1]

    monkeypatch.setattr(flow, "drive", spy)
    mids = stepped_midpoints(traj)
    for t in mids:
        traj.state_at(t)
    assert len(runs) == len(mids)
    for stepper, right in zip(runs, traj.states[1:]):
        assert stepper.t == right.t and stepper.nfev == 15
        assert np.array_equal(stepper.state, flow._vector(right))
        assert np.array_equal(stepper.derivative, right.dy)


@pytest.mark.parametrize("make", [
    lambda: (analytic.block_spec([(1.0, 2.0, 0.5)]), 20.0),
    lambda: (random_a6_spec(8, n=8), 10.0),
], ids=["real-n2", "complex-n8"])
def test_rebuilt_trajectory_interpolates_alike(make):
    # a Trajectory rebuilt from the six parts of an integrated one answers
    # off the samples bit for bit alike, in a stepped and in a tail interval
    spec, t_end = make()
    traj = flow.integrate(spec, t_end)
    again = rebuilt(traj)
    ts, tail_t = traj.ts, traj.stats["tail_t"]
    k = int(np.searchsorted(ts, tail_t))
    assert 3 < k < len(ts) - 2
    for t in (0.5 * (ts[2] + ts[3]), 0.5 * (ts[k + 1] + ts[k + 2])):
        for name in ("b_at", "map_at"):
            ours, theirs = getattr(traj, name)(t), getattr(again, name)(t)
            assert all(np.array_equal(a, b) for a, b in zip(np.atleast_3d(ours),
                                                           np.atleast_3d(theirs)))
        assert np.array_equal(flow._vector(traj.state_at(t)),
                              flow._vector(again.state_at(t)))


def test_thinned_trajectory_interpolates_like_the_full_one(generic_spec, monkeypatch):
    # on an interval that thinning merged, the re-run takes the first run's
    # steps, so off-sample values match the unthinned trajectory's
    for t_end in (3.0, 5.0):  # without and with the frozen-Omega tail
        full = flow.integrate(generic_spec, t_end)
        monkeypatch.setattr(flow, "MAX_SAMPLES", 7)
        thin = flow.integrate(generic_spec, t_end)
        monkeypatch.undo()
        assert len(thin.states) < len(full.states)
        probes = np.random.default_rng(1).uniform(0.0, t_end, 60)
        merged = [t for t in probes
                  if np.searchsorted(full.ts, t) - np.searchsorted(thin.ts, t) > 0]
        assert len(merged) > 30
        for t in probes:
            assert np.abs(flow._vector(thin.state_at(t))
                          - flow._vector(full.state_at(t))).max() <= 1e-12


def fit_fields(fit):
    return fit.rate, fit.log_intercept, fit.n_samples, fit.window, fit.max_residual


def assert_answers_alike(fresh, again, times, window=None):
    """fresh and again give bitwise-equal decay fits in window and b_at and
    map_at at times."""
    assert fit_fields(flow.decay_fit(fresh, window)) == fit_fields(flow.decay_fit(again, window))
    for t in times:
        assert np.array_equal(fresh.b_at(t), again.b_at(t))
        assert all(np.array_equal(a, b) for a, b in zip(fresh.map_at(t), again.map_at(t)))


@pytest.mark.parametrize("make", [
    lambda: flow.integrate(analytic.block_spec([(1.0, 2.0, 0.5)]), 5.0),
    lambda: flow.integrate(random_a6_spec(8, n=8), 4.0),
    lambda: flow.integrate(seeded_n64_spec(0), 5.0),
], ids=["readme", "complex-n8", "complex-n64"])
def test_decay_fit_runs_no_step(make, monkeypatch):
    # decay_fit reads the samples and their derivatives only: on a fresh
    # or a rebuilt trajectory, in the default window or an explicit one, it
    # builds no stepper, re-runs no step and evaluates no right-hand side
    fresh = make()
    for traj in (fresh, rebuilt(fresh)):
        for window in (None, (1.0, 3.0)):
            runs = []
            with monkeypatch.context() as m:
                m.setattr(flow, "drive", lambda *args: runs.append(args))
                m.setattr(flow, "DormandPrince", lambda *args, **kwargs: runs.append(args))
                m.setattr(flow._CarriedRhs, "__call__", lambda *args: runs.append(args))
                fit = flow.decay_fit(traj, window)
            assert runs == [] and traj.n_interp_rhs == 0
            assert fit_fields(fit) == fit_fields(flow.decay_fit(fresh, window))


def test_interpolation_counts_its_rhs_calls(generic_spec, monkeypatch):
    # integrate builds no dense output, and stats["n_rhs"] counts every call
    # but those of the tail samples; a rebuilt trajectory copies it.
    # n_interp_rhs starts at 0 and counts each re-run of a step, 12 + 3
    calls, built = [], []
    call, dense_output = flow._CarriedRhs.__call__, DormandPrince.dense_output
    monkeypatch.setattr(flow._CarriedRhs, "__call__",
                        lambda self, t, y, out=None: calls.append(t) or call(self, t, y, out))
    monkeypatch.setattr(DormandPrince, "dense_output",
                        lambda self: built.append(self.t) or dense_output(self))
    fresh = flow.integrate(generic_spec, 5.0)
    monkeypatch.undo()
    n_rhs = fresh.stats["n_rhs"]
    assert built == [] and n_rhs == len(calls) - fresh.stats["n_tail"]
    mids = stepped_midpoints(fresh)
    for traj in (fresh, rebuilt(fresh)):
        assert traj.n_interp_rhs == 0
        for k, t in enumerate(mids, 1):
            traj.b_at(t)
            assert traj.n_interp_rhs == 15 * k
        assert traj.stats["n_rhs"] == n_rhs


def test_blowup_trajectory_answers_like_a_rebuilt_one():
    with pytest.raises(BlowupDetected) as err:
        flow.integrate(analytic.block_spec([(0.0, 0.0, 1.0)]), t_end=1.0)
    fresh = err.value.trajectory
    assert_answers_alike(fresh, rebuilt(fresh), stepped_midpoints(fresh), window=(0.0, 0.15))


def test_tail_times_stop_growing_at_the_float_range():
    # (2^k - 1) h below the float range, as ever; past 2^1023 it used to
    # raise OverflowError
    assert flow._tail_times(1.0, 0.5, 4.0) == [1.5, 2.5, 4.0]
    times = flow._tail_times(0.5, 1e-3, 1e308)
    assert len(times) == 1024 and times[-1] == 1e308
    assert all(a < b for a, b in zip(times, times[1:]))


def test_b_zero_is_stationary():
    spec = QuadraticSpec.from_matrices(np.diag([1.0, 3.0]), np.zeros((2, 2)))
    traj = flow.integrate(spec, t_end=2.0)
    assert traj.converged()
    assert traj.stats["n_tail"] > 0
    for s in traj.states:
        assert np.array_equal(s.omega, spec.omega)
        assert not s.b.any() and s.c == 0.0


def random_a6_spec(seed, n=3):
    """Random spec with a spectral gap: B scaled until 4 frak(B) < Omega."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    omega = a @ a.conj().T + 0.5 * np.eye(n)
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = (b + b.T) / 2
    frak = Sandwiches(b, omega).matrix(1).mat
    lam = float(np.linalg.eigvalsh(frak)[-1])
    floor = min_eig_hermitian(omega)
    scale = np.sqrt(0.8 * floor / (4.0 * lam)) if lam > 0 else 1.0
    return QuadraticSpec.from_matrices(omega, scale * b)


@settings(max_examples=10)
@given(st.integers(0, 10**6))
def test_constant_of_motion_random_specs(seed):
    spec = random_a6_spec(seed)
    traj = flow.integrate(spec, t_end=1.0)
    scale = hs_norm(spec.omega) ** 2
    assert (traj.column("motion_residual") <= 1e-8 * scale).all()


@settings(max_examples=10)
@given(st.integers(0, 10**6))
def test_omega_stays_psd_and_decreasing(seed):
    spec = random_a6_spec(seed)
    traj = flow.integrate(spec, t_end=1.0)
    for d in traj.diags:
        assert d.min_eig_omega >= -1e-8
        assert d.omega_decrease_margin >= -1e-8


def bdg_spectrum(omega, b):
    """Positive eigenvalues of the BdG matrix [[Omega, 2B], [-2B~, -Omega~]]
    (Colpa), which are the eigenvalues of Omega_inf."""
    d = np.block([[omega, 2.0 * b], [-2.0 * b.conj(), -omega.conj()]])
    ev = np.linalg.eigvals(d)
    assert np.max(np.abs(ev.imag)) < 1e-12
    return np.sort(ev.real)[omega.shape[0]:]


def test_tail_finishes_the_stiff_block():
    # the stepper alone needs thousands of steps here, held by the 1e4 eigenvalue
    block = (1.0, 1e4, 0.5)
    traj = flow.integrate(analytic.block_spec([block]), t_end=1.0)
    assert traj.stats["n_steps"] < 200 and traj.stats["n_tail"] > 0
    assert traj.final.t == 1.0
    omega_inf, _, converged = flow.limit_extract(traj)
    exact = np.linalg.eigvalsh(analytic.exact_limit_block([block]).mat)
    assert converged
    assert np.max(np.abs(np.linalg.eigvalsh(omega_inf) - exact)) <= 1e-9


@pytest.fixture(scope="module")
def h500_traj(generic_spec):
    return flow.integrate(generic_spec, t_end=500.0)


def test_tail_long_horizon_matches_bdg_spectrum(h500_traj, generic_spec):
    assert h500_traj.stats["n_steps"] <= 150
    assert h500_traj.final.t == 500.0
    omega_inf, c_inf, converged = flow.limit_extract(h500_traj)
    eps = bdg_spectrum(generic_spec.omega, generic_spec.b)
    assert converged
    assert np.max(np.abs(np.linalg.eigvalsh(omega_inf) - eps)) <= 1e-9
    assert abs(c_inf - 0.5 * (eps.sum() - np.trace(generic_spec.omega).real)) <= 1e-9


def test_tail_b_path_never_exceeds_the_handover_norm(h500_traj):
    t_tail = h500_traj.stats["tail_t"]
    ts = h500_traj.ts
    tail = [s for s in h500_traj.states if s.t >= t_tail]
    assert tail[0].t == t_tail and len(tail) == h500_traj.stats["n_tail"] + 1
    handover = tail[0].hs_b
    norms = [s.hs_b for s in tail]
    assert all(b <= a for a, b in zip(norms, norms[1:]))
    knots = ts[ts >= t_tail]
    grid = np.concatenate([np.linspace(a, b, 200) for a, b in zip(knots, knots[1:])])
    assert max(hs_norm(h500_traj.b_at(t)) for t in grid) <= handover


def seeded_n64_spec(seed):
    """Random gapped n = 64 spec: Omega eigenvalues in [2, 4], ||B||_op = 1/2."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    lam = rng.uniform(1.0, 2.0, 64)
    lam[0], lam[-1] = 1.0, 2.0
    omega = (q * lam) @ q.conj().T
    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    b = (g + g.T) / 2
    b *= 0.25 / np.linalg.norm(b, 2)
    return QuadraticSpec.from_matrices(2.0 * (omega + omega.conj().T) / 2, 2.0 * b)


def test_tail_keeps_n64_below_the_noise_floor():
    # stepped to t = 12, this spec's ||B_t|| bounces back above 1e-8 from
    # the pair's noise floor; the tail takes over below it
    traj = flow.integrate(seeded_n64_spec(0), t_end=12.0)
    assert traj.stats["n_tail"] > 0
    assert traj.converged()


def carried_state(t, omega, b, c):
    """A FlowState carrying the identity map and int ||B|| = 0."""
    n = omega.shape[0]
    return flow.FlowState(t, omega, b, c, np.eye(n, dtype=complex),
                          np.zeros((n, n), complex), 0.0)


def test_tail_drift_guard():
    omega = np.zeros((2, 2), dtype=complex)
    b = np.array([[0, 1e-9], [1e-9, 0]]) / np.sqrt(2.0)  # ||B||_2 = 1e-9
    state = carried_state(0.0, omega, b.astype(complex), 0.0)
    tol = 1e-10
    long_span = 2.0 * tol / (16.0 * 1e-18)  # 16 ||B||^2 span = 2 tol
    assert flow.frozen_tail(state, long_span, tol) is None
    tail = flow.frozen_tail(state, 1.0, tol)
    assert tail is not None
    assert np.isclose(tail.omega_drift(1.0), 16.0 * 1e-18)
    # B is not yet below TAIL_FACTOR * tol, or no span is left
    assert flow.frozen_tail(carried_state(0.0, omega, 1e4 * b, 0.0), 1.0, tol) is None
    assert flow.frozen_tail(state, 0.0, tol) is None
    # the carried map also needs the terms its first-order update drops,
    # 8 I^2 (||u|| + ||v||) with I = 1e-9 tau here, within tol: over 1e4
    # the drift guard alone would pass, the map guard does not
    assert np.isclose(tail.omega_drift(1e4), 1.6e-13)
    assert tail.omega_drift(1e4) <= tol
    assert flow.frozen_tail(state, 1e4, tol) is None  # 8 I^2 sqrt(2) = 1.1e-9


def test_tail_refuses_an_omega_with_a_negative_eigenvalue():
    # the state `run` reaches on {"blocks": [[0, 1e4, 1]]} at --tol 1e-13:
    # along a negative eigenvalue the frozen decay grows, so the tail may not
    # take over, and its bounds are not even formed; a zero weight on that
    # eigenvalue adds exactly 0 to the triangle bound, not 0 * inf = nan
    omega = np.diag([-4e-4, 1e4]).astype(complex)
    b = np.array([[0, 1e-12], [1e-12, 0]], dtype=complex)
    state = carried_state(0.0, omega, b, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert flow.frozen_tail(state, 1e40, 1e-13) is None
        assert math.isfinite(flow.FrozenTail(state, 1e-13).int_b_bound(1e40))


def test_frozen_tail_closed_form():
    # Omega = diag(1, 2) frozen, B = antidiag(b): B_t = b e^{-6 tau} and
    # int ||B||^2 = 2 b^2 (1 - e^{-12 tau}) / 12
    b, c0, tau = 0.1, 0.3, 0.25
    rng = np.random.default_rng(2)
    u0, v0 = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    state = flow.FlowState(1.0, np.diag([1.0, 2.0]).astype(complex),
                           np.array([[0, b], [b, 0]], dtype=complex), c0, u0, v0, 0.7)
    tail = flow.FrozenTail(state)
    int_b2 = 2.0 * b * b * -np.expm1(-12.0 * tau) / 12.0
    assert np.isclose(tail.omega_drift(tau), 16.0 * int_b2, rtol=1e-14)
    spec = QuadraticSpec.from_matrices(state.omega, state.b, c0=c0)

    def tail_state(t, prev=None):
        return flow._state(t, tail.at(t, prev), spec, flow.SCALAR_SIGN)

    s = tail_state(1.0 + tau)
    assert s.t == 1.0 + tau
    assert np.allclose(s.b, [[0, b * np.exp(-6.0 * tau)], [b * np.exp(-6.0 * tau), 0]],
                       rtol=0, atol=1e-15)
    assert np.allclose(s.omega, np.diag([1.0, 2.0]) - 8.0 * int_b2 * np.eye(2),
                       rtol=0, atol=1e-15)
    # the read-out C of a tail state is the flow's C, c0 + sign * 8 int ||B||^2
    for sign in (-1.0, 1.0):
        c = flow.scalar_c(c0, state.omega, s.omega, sign)
        assert np.isclose(c, c0 + sign * 8.0 * int_b2, rtol=0, atol=1e-15)
    # the carried map: int B = b phi(6, tau) antidiag and int ||B|| = sqrt(2) of it
    int_bmat = b * -np.expm1(-6.0 * tau) / 6.0 * np.array([[0, 1], [1, 0]])
    assert np.allclose(s.u, u0 - 4.0 * v0 @ int_bmat, rtol=0, atol=1e-15)
    assert np.allclose(s.v, v0 - 4.0 * u0 @ int_bmat, rtol=0, atol=1e-15)
    assert abs(s.int_b - (0.7 + np.sqrt(2.0) * b * -np.expm1(-6.0 * tau) / 6.0)) <= 1e-15
    mid = tail_state(1.0 + tau / 3)
    assert abs(tail_state(1.0 + tau, prev=mid).int_b - s.int_b) <= 1e-15


# A real spec is stepped as a float64 state at sqrt(2) tol; the complex128
# state of the same flow has an exactly zero imaginary half, so both take
# the same steps and reach the same states.  The BLAS kernels of the two
# dtypes (dgemm and zgemm, ddot and zdotc) need not sum in the same order,
# so their real parts agree to rounding rather than always bit for bit.

def seeded_real_spec(n, seed):
    """Random real gapped spec: Omega eigenvalues in [1, 2], ||B||_op = 1/4."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    omega = (q * rng.uniform(1.0, 2.0, n)) @ q.T
    g = rng.standard_normal((n, n))
    b = (g + g.T) / 2
    return QuadraticSpec.from_matrices((omega + omega.T) / 2, 0.25 * b / np.linalg.norm(b, 2))


@pytest.mark.parametrize("n", [2, 8, 64])
def test_real_carried_rhs_is_the_complex_one(n):
    y = np.random.default_rng(n).standard_normal(4 * n * n + 1)
    d_real = flow._CarriedRhs(n, float)(0.0, y)
    d_cplx = flow._CarriedRhs(n, complex)(0.0, y.astype(complex))
    assert d_real.dtype == float and d_cplx.dtype == complex
    assert not d_cplx.imag.any()
    assert np.abs(d_real - d_cplx.real).max() <= 1e-15 * np.abs(d_real).max()


@pytest.mark.parametrize("n", [2, 8, 64])
def test_real_state_steps_like_the_complex_one(n, generic_spec):
    spec = generic_spec if n == 2 else seeded_real_spec(n, n)
    state0 = flow.FlowState(0.0, spec.omega.real, spec.b.real, spec.c0,
                            np.eye(n), np.zeros((n, n)), 0.0)
    y_real = flow._vector(state0)
    runs = []
    for y0, tol in ((y_real, np.sqrt(2.0) * 1e-10), (y_real.astype(complex), 1e-10)):
        ts = []
        solver = drive(DormandPrince(flow._CarriedRhs(n, y0.dtype), 0.0, y0, 60.0, tol, tol),
                       on_step=lambda stepper: ts.append(stepper.t))
        runs.append((solver.nfev, np.array(ts), solver.state))
    (nfev_r, ts_r, y_r), (nfev_c, ts_c, y_c) = runs
    assert nfev_r == nfev_c and len(ts_r) == len(ts_c) > 50
    assert np.allclose(ts_r, ts_c, rtol=1e-8, atol=0)
    assert y_r.dtype == float and not y_c.imag.any()
    assert np.abs(y_r - y_c.real).max() < 1e-14


def test_realness_rule_has_no_tolerance(generic_spec):
    # one imaginary part of 1e-300 keeps the whole flow complex128; the two
    # runs still take the same steps to the same limit
    b = generic_spec.b.copy()
    b[0, 0] += 1e-300j
    tiny = QuadraticSpec.from_matrices(generic_spec.omega, b)
    assert generic_spec.is_real and not tiny.is_real
    real, cplx = flow.integrate(generic_spec, 5.0), flow.integrate(tiny, 5.0)
    assert real.final.omega.dtype == real.final.dy.dtype == float
    assert cplx.final.omega.dtype == cplx.final.dy.dtype == complex
    assert real.stats["n_rhs"] == cplx.stats["n_rhs"]
    assert real.stats["n_steps"] == cplx.stats["n_steps"]
    assert hs_norm(real.final.omega - cplx.final.omega) < 1e-14


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [2, 8, 64])
def test_carried_rhs_into_out_is_the_allocating_call(n, dtype):
    # the stepper's call writes into its stage row, and the allocating one
    # serves rhs and the first and tail samples: the same bits either way
    rng = np.random.default_rng(n)
    y = rng.standard_normal(4 * n * n + 1).astype(dtype)
    if dtype is complex:
        y += 1j * rng.standard_normal(y.size)
    rhs = flow._CarriedRhs(n, dtype)
    fresh = rhs(0.0, y)
    rhs(0.0, rng.standard_normal(y.size).astype(dtype))  # overwrites the product stack
    rows = np.full((2, 2 * y.size if dtype is complex else y.size), np.nan)
    out = rows[1].view(dtype)  # a stage row, as the stepper passes it
    assert rhs(0.0, y, out) is out
    assert fresh.dtype == out.dtype and np.array_equal(out, fresh)


def rhs_states(n, dtype, rng):
    """States [Omega, B, u, v, I] for the right-hand side: dense, made of
    2 x 2 blocks (and a 1 x 1 one for odd n) with exact zeros between them
    and on B's diagonal, and with entries from 1e-150 to 1e150."""
    def matrix(scale=1.0):
        x = rng.standard_normal((n, n)) * scale
        if dtype is complex:
            x = x + 1j * rng.standard_normal((n, n)) * scale
        return x

    def state(mats):
        omega, b, u, v = mats
        return np.concatenate([((omega + omega.conj().T) / 2).ravel(), ((b + b.T) / 2).ravel(),
                               u.ravel(), v.ravel(), [0.5]]).astype(dtype)

    idx = np.arange(n) // 2
    blocks = idx[:, None] == idx[None, :]
    block_mats = [matrix() * blocks for _ in range(4)]
    np.fill_diagonal(block_mats[1], 0.0)
    wide = [matrix(10.0 ** rng.uniform(-150, 150, (n, n))) for _ in range(4)]
    return [state([matrix() for _ in range(4)]), state(block_mats), state(wide)]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64])
def test_carried_rhs_is_the_product_then_scale_form(n, dtype):
    # the one-product form equals the reference form entry for entry;
    # np.array_equal lets the sign of an exact zero differ, and only that
    # may; odd n gives the products BLAS edge tiles
    rng = np.random.default_rng(n)
    rhs, ref = flow._CarriedRhs(n, dtype), CarriedRhsReference(n, dtype)
    for y in rhs_states(n, dtype, rng):
        want = ref(0.0, y)
        assert np.isfinite(want).all()
        assert np.array_equal(rhs(0.0, y), want)
        out = np.full_like(y, np.nan)
        assert rhs(0.0, y, out) is out and np.array_equal(out, want)


@pytest.mark.parametrize("dtype", [float, complex])
def test_carried_rhs_into_out_allocates_no_matrix(dtype):
    # a ufunc with a transposed operand buffers it (up to 8192 entries), so
    # the transposed terms are copied into place instead: a call into out
    # allocates views and scalars only, far below one n x n matrix
    n = 64
    y = rhs_states(n, dtype, np.random.default_rng(0))[0]
    rhs, out = flow._CarriedRhs(n, dtype), np.empty_like(y)
    rhs(0.0, y, out)
    tracemalloc.start()
    try:
        rhs(0.0, y, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * y.itemsize // 16


@pytest.mark.parametrize("make", [
    lambda: (analytic.block_spec([(1.0, 2.0, 0.5)]), 20.0),
    lambda: (analytic.block_spec([(1.0, 2.0, 0.5), (0.5, 3.0, 0.25)]), 20.0),
    lambda: (random_a6_spec(2, n=2), 10.0),
    lambda: (random_a6_spec(8, n=8), 10.0),
    lambda: (seeded_n64_spec(0), 12.0),
], ids=["real-block", "real-two-blocks", "complex-n2", "complex-n8", "complex-n64"])
def test_min_eig_column_needs_no_hermitian_part(make):
    # every stored Omega is exactly hermitian, tail samples included, so
    # eigvalsh on the stack gives the bits of its hermitian part's eigenvalues
    spec, t_end = make()
    traj = flow.integrate(spec, t_end)
    assert traj.stats["n_tail"] > 0
    om = np.stack([s.omega for s in traj.states])
    assert np.array_equal(om, om.conj().swapaxes(-1, -2))
    assert np.array_equal(traj.column("min_eig_omega"), flow._min_eigs(om))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_hs_b_is_its_stored_integrand(seed):
    # a sample's ||B||_2 is the dI/dt its derivative holds; a state without
    # a derivative takes the norm of its B
    traj = flow.integrate(random_a6_spec(seed, n=4), t_end=40.0)
    assert traj.stats["n_tail"] > 0
    for s in traj.states:
        assert s.hs_b == s.dy[-1].real
        assert abs(s.hs_b - np.linalg.norm(s.b)) <= 4e-16 * s.hs_b
    # one ||B_t|| per sample: the column (CSV hsB, hs_bs, decay_fit) is the
    # value run and diag print
    assert traj.column("hs_b").tobytes() == np.array([s.hs_b for s in traj.states]).tobytes()
    mid = traj.state_at(0.5 * (traj.ts[1] + traj.ts[2]))
    assert mid.dy is None and mid.hs_b == np.linalg.norm(mid.b)
