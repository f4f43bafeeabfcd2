"""The in-repo integrator, interpolant and quadrature against scipy.

bwflow steps with its own DOP853 pair, interpolates with that pair's own
dense output and integrates ||B|| along paths that do not carry it with its
own Gauss-Kronrod rule, so that the command line never imports scipy
(test_cli checks each command's modules).  These tests pin each piece to
the scipy routine it replaced, and the pair's literal coefficients to the
order conditions they must satisfy.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import DOP853, quad

from bwflow import analytic, bogoliubov, flow, stepping
from bwflow.errors import StepSizeUnderflow
from bwflow.opcore import QuadraticSpec
from bwflow.stepping import RTOL_FLOOR, DormandPrince, drive
from conftest import writes_into
from flow_reference import FunctionBPath


def random_spec(seed: int, n: int) -> QuadraticSpec:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    omega = x @ x.conj().T / n + np.eye(n)
    b = 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return QuadraticSpec.from_matrices(omega, (b + b.T) / 2)


def pack(z):
    """A complex array as one real vector, Re and Im of each entry in turn."""
    return np.stack([z.real, z.imag], axis=-1).ravel()


def unpack(y, shape):
    return (y[0::2] + 1j * y[1::2]).reshape(shape)


def flow_vector(omega, b, c):
    """(Omega, B, C) as one complex vector."""
    return np.concatenate([omega.ravel(), b.ravel(), [c]])


def flow_fun(n):
    """The flow on (Omega, B, C) as a function of flow_vector states."""
    def fun(t, y):
        omega, b = y[:-1].reshape(2, n, n)
        return flow_vector(*flow.rhs(flow.FlowState(t, omega, b, y[-1].real)))

    return fun


def packed_flow(spec):
    """(rhs, y0) of the flow on a real packing of its complex state vector."""
    y0 = flow_vector(spec.omega, spec.b, spec.c0)
    fun = flow_fun(spec.dim)
    return (lambda t, y: pack(fun(t, unpack(y, y0.shape)))), pack(y0)


def scipy_drive(fun, y0, t_bound, tol):
    """scipy's DOP853 stepped to t_bound, recording every accepted step."""
    solver = DOP853(fun, 0.0, y0, t_bound, rtol=tol, atol=tol)
    ts, ys = [], []
    while solver.status == "running":
        solver.step()
        ts.append(solver.t)
        ys.append(solver.y.copy())
    return np.array(ts), np.array(ys), solver.nfev


@pytest.mark.parametrize("spec", [
    pytest.param(QuadraticSpec.from_matrices(np.diag([1.0, 2.0]),
                                             np.array([[0, 0.5], [0.5, 0]])), id="readme-n2"),
    pytest.param(random_spec(8, 8), id="seeded-n8"),
])
@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_driver_matches_scipy_dop853(spec, tol):
    fun, y0 = packed_flow(spec)
    ref_ts, ref_ys, ref_nfev = scipy_drive(fun, y0, 5.0, tol)
    ts, ys = [], []

    def on_step(stepper):
        ts.append(stepper.t)
        ys.append(stepper.state.copy())

    solver = drive(DormandPrince(writes_into(fun), 0.0, y0, 5.0, tol, tol), on_step=on_step)
    assert solver.status == "finished" and solver.t == 5.0
    assert np.array_equal(np.array(ts), ref_ts)  # same accepted t-grid
    assert solver.nfev == ref_nfev
    assert np.max(np.abs(np.array(ys) - ref_ys)) <= 1e-12


def test_stepper_matches_scipy_without_hooks():
    # a stiff block exercises rejections and the no-growth-after-reject
    # rule; every third step also builds the dense output, whose three
    # extra evaluations both steppers count
    fun, y0 = packed_flow(QuadraticSpec.from_matrices(
        np.diag([1.0, 1e4]), np.array([[0, 0.5], [0.5, 0]])))
    ref = DOP853(fun, 0.0, y0, 0.05, rtol=1e-8, atol=1e-8)
    ours = DormandPrince(writes_into(fun), 0.0, y0, 0.05, 1e-8, 1e-8)
    steps = 0
    while ref.status == "running":
        ref.step()
        ours.step()
        steps += 1
        assert (ours.status, ours.t, ours.h_abs, ours.nfev) == \
            (ref.status, ref.t, ref.h_abs, ref.nfev)
        assert np.array_equal(ours.y, ref.y)
        if steps % 3 == 0:
            dense, ref_dense = ours.dense_output(), ref.dense_output()
            for t in np.linspace(ref.t_old, ref.t, 9):
                assert np.array_equal(dense(t), ref_dense(t))
            assert ours.nfev == ref.nfev
    assert ours.nfev > 2 + 12 * steps + 3 * (steps // 3)  # some steps were rejected


@pytest.mark.parametrize("spec", [analytic.block_spec([(1.0, 2.0, 0.5)]), random_spec(4, 3)],
                         ids=["real-n2", "complex-n3"])
def test_dense_output_evaluates_only_the_requested_entries(spec):
    # the entries the trajectory asks for (B, the map, int ||B||) equal the
    # same slice of the whole evaluated state bit for bit
    n = spec.dim
    fun, tol = flow._carried(spec, flow.Controls())
    y0 = flow._vector(flow.integrate(spec, 0.0).states[0])
    stepper = DormandPrince(fun, 0.0, y0, 1.0, tol, tol)
    stepper.step()
    dense = stepper.dense_output()
    for tau in np.linspace(stepper.t_old, stepper.t, 5):
        whole = dense(tau)
        assert whole.dtype == y0.dtype and whole.shape == y0.shape
        for cols in (slice(None), slice(n * n, 2 * n * n), slice(2 * n * n, 4 * n * n),
                     slice(-1, None), slice(0, 0)):
            assert np.array_equal(dense(tau, cols), whole[cols])
    with pytest.raises(ValueError):
        dense(stepper.t, slice(0, 4, 2))


def test_tableau_order_conditions():
    # the literal coefficients against the conditions they must meet, with
    # no scipy in the comparison: a mistyped digit fails here
    c, a = stepping._C, stepping._A
    assert np.allclose(a.sum(axis=1), c, rtol=0, atol=1e-14)  # row sums A 1 = c
    b, bc = stepping._B, c[:stepping._N_STAGES]
    for k in range(8):  # the quadrature conditions of order 8
        assert abs(b @ bc ** k - 1 / (k + 1)) <= 1e-14
    for e in (stepping._E5, stepping._E3):
        assert abs(e.sum()) <= 1e-14


def test_driver_validation():
    fun = writes_into(lambda t, y: -y)
    for bad_y0 in ([np.nan, 1.0], [np.inf], np.array([[1.0, complex(0.0, np.nan)]]), []):
        with pytest.raises(ValueError):
            DormandPrince(fun, 0.0, bad_y0, 1.0, 1e-8, 1e-8)
    for bad_t in (np.nan, np.inf):
        with pytest.raises(ValueError):
            DormandPrince(fun, 0.0, [1.0], bad_t, 1e-8, 1e-8)
    with pytest.raises(ValueError):
        DormandPrince(fun, 1.0, [1.0], 0.0, 1e-8, 1e-8)


def test_complex_state_keeps_its_shape():
    rng = np.random.default_rng(5)
    b = 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    uv0 = np.stack((np.eye(3, dtype=complex), np.zeros((3, 3), complex)))
    seen = []

    def fun(t, uv):
        seen.append((uv.shape, uv.dtype))
        return np.stack((-4.0 * uv[1] @ b.conj(), -4.0 * uv[0] @ b))

    solver = drive(DormandPrince(writes_into(fun), 0.0, uv0, 1.0, 1e-8, 1e-8),
                   on_step=lambda s: seen.append((s.state.shape, s.state.dtype)))
    assert len(seen) > solver.nfev  # every RHS call and every accepted step
    assert set(seen) == {((2, 3, 3), np.dtype(complex))}
    assert solver.state.shape == (2, 3, 3) and solver.state.dtype == complex
    assert np.shares_memory(solver.state, solver.y) and solver.y.dtype == float


def test_on_step_receives_the_fsal_derivative():
    # the derivative handed to on_step is the step's last stage, evaluated
    # once: fun at the accepted state, bit for bit, at no extra evaluation
    b = np.array([[0.2, 0.1j], [0.1j, -0.3]])

    def fun(t, uv):
        return np.stack((-4.0 * uv[1] @ b.conj(), -4.0 * (1.0 + t) * uv[0] @ b))

    seen = []
    uv0 = np.stack((np.eye(2, dtype=complex), np.zeros((2, 2), complex)))
    solver = drive(DormandPrince(writes_into(fun), 0.0, uv0, 1.0, 1e-8, 1e-8),
                   on_step=lambda s: seen.append((s.t, s.state.copy(), s.derivative.copy())))
    assert solver.nfev == 2 + 12 * len(seen)  # no rejected step on this path
    for t, uv, duv in seen:
        assert duv.shape == uv.shape and duv.dtype == complex
        assert np.array_equal(duv, fun(t, uv))


def test_kept_states_and_derivatives_are_not_reused():
    # the flow recorder keeps the views on_step receives without copying:
    # the stepper's scratch buffers must never alias an accepted state or
    # derivative, through rejected steps too
    fun, y0 = packed_flow(QuadraticSpec.from_matrices(
        np.diag([1.0, 1e4]), np.array([[0, 0.5], [0.5, 0]])))
    kept, copies = [], []

    def on_step(stepper):
        y, dy = stepper.state, stepper.derivative
        kept.append((y, dy))
        copies.append((y.copy(), dy.copy()))

    solver = drive(DormandPrince(writes_into(fun), 0.0, y0, 0.05, 1e-8, 1e-8), on_step=on_step)
    assert solver.nfev > 2 + 12 * len(kept)  # some steps were rejected
    for (y, dy), (y_then, dy_then) in zip(kept, copies):
        assert np.array_equal(y, y_then) and np.array_equal(dy, dy_then)



def test_a_warm_step_allocates_only_its_accepted_state_and_derivative():
    # every stage writes into its row of the stage matrix, and the carried
    # right-hand side forms its products in reused scratch, so an accepted
    # step allocates two state-sized arrays: the new state and its FSAL
    # derivative, both kept by the caller; the rest of the peak is views
    # and scalars, far below one n x n matrix (32 or 64 KiB here)
    n = 64
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    spec = QuadraticSpec.from_matrices((q * rng.uniform(1.0, 2.0, n)) @ q.conj().T,
                                       0.25 * (g + g.T) / np.linalg.norm(g + g.T, 2))
    y_complex = flow._vector(flow.FlowState(0.0, spec.omega, spec.b, spec.c0,
                                            np.eye(n, dtype=complex), np.zeros((n, n), complex),
                                            0.0))
    for y0 in (y_complex, y_complex.real.copy()):
        solver = DormandPrince(flow._CarriedRhs(n, y0.dtype), 0.0, y0, 5.0, 1e-10, 1e-10)
        for _ in range(3):
            solver.step()
        nfev = solver.nfev
        tracemalloc.start()
        try:
            solver.step()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert solver.nfev == nfev + 12  # one accepted attempt
        assert 2 * y0.nbytes <= kept and peak - 2 * y0.nbytes < 4096

@pytest.mark.parametrize("spec", [
    pytest.param(QuadraticSpec.from_matrices(np.diag([1.0, 2.0]),
                                             np.array([[0, 0.5], [0.5, 0]])), id="readme-n2"),
    pytest.param(random_spec(8, 8), id="seeded-n8"),
])
def test_complex_state_matches_real_packing(spec):
    # the same ODE on the complex state vector and on a real packing of it:
    # error control on a complex state is per real component
    fun_real, y0_real = packed_flow(spec)
    y0 = flow_vector(spec.omega, spec.b, spec.c0)
    fun = flow_fun(spec.dim)
    runs = []
    for f, init, shaped in ((fun, y0, lambda y: y),
                            (fun_real, y0_real, lambda y: unpack(y, y0.shape))):
        ts, ys = [], []
        solver = drive(DormandPrince(writes_into(f), 0.0, init, 5.0, 1e-10, 1e-10),
                       on_step=lambda s: (ts.append(s.t), ys.append(shaped(s.state))))
        runs.append((solver.nfev, np.array(ts), np.array(ys)))
    (nfev, ts, ys), (ref_nfev, ref_ts, ref_ys) = runs
    assert nfev == ref_nfev and ts.shape == ref_ts.shape
    assert np.max(np.abs(ts - ref_ts)) <= 1e-12
    assert np.max(np.abs(ys - ref_ys)) <= 1e-12


def test_rtol_is_clamped_silently():
    fun = writes_into(lambda t, y: -y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = drive(DormandPrince(fun, 0.0, [1.0], 1.0, 1e-20, 1e-12))
    floor = drive(DormandPrince(fun, 0.0, [1.0], 1.0, RTOL_FLOOR, 1e-12))
    assert tiny.nfev == floor.nfev and np.array_equal(tiny.y, floor.y)
    assert abs(tiny.y[0] - np.exp(-1.0)) < 1e-11


def test_zero_length_interval_and_h_min(monkeypatch):
    # a zero-length interval takes no step, so on_step is never called
    fun = writes_into(lambda t, y: -y)
    seen = []
    solver = drive(DormandPrince(fun, 0.0, [1.0], 0.0, 1e-8, 1e-8),
                   on_step=lambda s: seen.append(s.t))
    assert solver.status == "finished" and seen == [] and solver.y[0] == 1.0
    monkeypatch.setattr(stepping, "H_MIN", 10.0)
    with pytest.raises(StepSizeUnderflow):
        drive(DormandPrince(fun, 0.0, [1.0], 1.0, 1e-8, 1e-8))


def test_nan_step_size_or_error_estimate_fails_the_step():
    # neither is below the minimum step or below 1, so the attempt loop
    # rejected the step forever
    fun = writes_into(lambda t, y: np.full_like(y, np.nan) if t > 0 else -y)
    nan_error = DormandPrince(fun, 0.0, [1.0], 1.0, 1e-8, 1e-8, h_abs=0.1)
    nan_error.step()
    nan_step = DormandPrince(writes_into(lambda t, y: -y), 0.0, [1.0], 1.0, 1e-8, 1e-8,
                             h_abs=np.nan)
    nan_step.step()
    for solver in (nan_error, nan_step):
        assert solver.status == "failed" and solver.t == 0.0 and solver.y[0] == 1.0


def test_interpolant_matches_scipy_bitwise(generic_traj):
    # the README spec is real, so its flow steps a real 1-d state: scipy's
    # DOP853 on the same right-hand side and tolerance takes the same steps,
    # and its dense output is the trajectory's interpolant on every stepped
    # interval, built by re-running the step; at the sample times the
    # trajectory holds the stored samples
    traj, rng = generic_traj, np.random.default_rng(0)
    ts = traj.ts
    rhs = flow._CarriedRhs(traj.spec.dim, float)
    tol = np.sqrt(2.0) * traj.controls.tol
    ref = DOP853(lambda t, y: rhs(t, y), 0.0, flow._vector(traj.states[0]), traj.stats["t_end"],
                 rtol=tol, atol=tol)
    stepped = ts[ts <= traj.stats["tail_t"]]
    for t_old, t_new in zip(stepped, stepped[1:]):
        ref.step()
        assert ref.t == t_new
        dense = ref.dense_output()
        for t in rng.uniform(t_old, t_new, 5):
            assert np.array_equal(flow._vector(traj.state_at(t)), dense(t))
    for s in traj.states:
        assert np.array_equal(flow._vector(traj.state_at(s.t)), flow._vector(s))


def test_gauss_kronrod_rules():
    calls = []

    def poly(x):
        calls.append(len(x))
        return x ** 12

    # both embedded rules are exact at degree 12: one panel, no bisection
    val, err = bogoliubov.gauss_kronrod(poly, -1.0, 1.0)
    assert abs(val - 2.0 / 13.0) <= 1e-15 and calls == [15]
    val, _ = bogoliubov.gauss_kronrod(lambda x: x ** 22, -1.0, 1.0)
    assert abs(val - 2.0 / 23.0) <= 1e-15
    val, err = bogoliubov.gauss_kronrod(np.sin, 0.0, np.pi)
    assert abs(val - 2.0) <= 1e-14 and err <= 1.49e-8
    # a kink inside the interval is found by bisection
    val, err = bogoliubov.gauss_kronrod(np.abs, -1.0, 2.0)
    assert abs(val - 2.5) <= max(err, 1.49e-8 * 2.5)


@pytest.mark.parametrize("f, want", [
    (np.ones_like, 0.7e308),
    (lambda x: (x - 1e308) / 0.7e308, 0.35e308),
], ids=["constant", "linear"])
def test_gauss_kronrod_nodes_stay_finite_near_the_float_range(f, want):
    # a centre formed as 0.5 * (lo + hi) is inf when lo + hi overflows
    nodes = []

    def recorded(x):
        nodes.append(x)
        return f(x)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, err = stepping.gauss_kronrod(recorded, 1e308, 1.7e308)
    x = np.concatenate(nodes)
    assert np.isfinite(x).all() and 1e308 <= x.min() and x.max() <= 1.7e308
    assert val == pytest.approx(want, rel=1e-14) and err <= 1.49e-8 * val


class SampledPath:
    """The flow's interpolated B-path without the carried map and integral,
    with its sample times as knots for scipy's quad."""

    def __init__(self, traj):
        self.t0, self.t1, self.knots = traj.t0, traj.t1, traj.ts
        self._b_at = traj.b_at

    def __call__(self, t):
        return self._b_at(t)


def readme_b_path(t1):
    """The README flow's B_t in closed form (analytic.exact_block): a
    smooth explicit B-path on [0, t1] whose values do not come from the flow."""
    def b_at(t):
        bt = np.sqrt(analytic.exact_block(1.0, 2.0, 0.5, t)[2])
        return np.array([[0.0, bt], [bt, 0.0]])

    return FunctionBPath(b_at, 0.0, t1)


def test_path_integral_matches_quad_on_readme_path(generic_traj):
    # the quadrature path: a B-path that carries no integral
    bp = SampledPath(generic_traj)
    t1 = generic_traj.final.t

    def norm(path):
        return lambda tau: float(np.linalg.norm(path(tau)))

    ours = bogoliubov.path_hs_integral(bp, 0.0, t1)
    # the interpolant has kinks at every sample time: told about them and
    # held to a tight tolerance, quad agrees closely with the quadrature
    # that is not told
    tight, _ = quad(norm(bp), 0.0, t1, points=bp.knots[1:-1], limit=1000,
                    epsabs=1e-14, epsrel=1e-13)
    assert abs(ours - tight) <= 1e-10
    sub = bogoliubov.path_hs_integral(bp, 0.7, 3.2)
    inner = bp.knots[(bp.knots > 0.7) & (bp.knots < 3.2)]
    tight_sub, _ = quad(norm(bp), 0.7, 3.2, points=inner, limit=1000,
                        epsabs=1e-14, epsrel=1e-13)
    assert abs(sub - tight_sub) <= 1e-10
    # on the smooth closed-form path, which does not depend on where the
    # flow puts its samples, quad at its defaults agrees within its own
    # error estimate, and a tight quad within the default tolerance
    smooth = readme_b_path(t1)
    plain = bogoliubov.path_hs_integral(smooth, 0.0, t1)
    q_val, q_err = quad(norm(smooth), 0.0, t1, limit=200)
    assert abs(plain - q_val) <= q_err
    exact, _ = quad(norm(smooth), 0.0, t1, limit=1000, epsabs=1e-14, epsrel=1e-13)
    assert abs(plain - exact) <= 1.49e-8 * exact
    # the flow's own path carries the integral, stepped with the flow: both
    # it and the quadrature of the interpolant sit about 3e-13 from the
    # closed form, and the carried one is no farther than the quadrature
    # but for the rounding of their sums, a few ulps of the value
    carried = bogoliubov.path_hs_integral(generic_traj.b_path(), 0.0, t1)
    assert carried == generic_traj.final.int_b
    assert abs(carried - exact) <= 2e-9
    assert abs(carried - exact) <= abs(ours - exact) + 16 * np.spacing(exact)
