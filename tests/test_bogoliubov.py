import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import expm, logm, sqrtm

from bwflow import analytic, bogoliubov, flow, fock
from bwflow.bogoliubov import BogoliubovMap
from bwflow.errors import LogBranch, MapInvalid, PathGap
from bwflow.opcore import hs_norm
import flow_reference as flow_ref
from flow_reference import FunctionBPath


def ident_map(n):
    return BogoliubovMap(u=np.eye(n, dtype=complex), v=np.zeros((n, n), complex))


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_symplectic(rng, n, alphas=None):
    """Build (u, v) from frames and squeeze angles; exactly symplectic."""
    if alphas is None:
        alphas = rng.uniform(0.0, 1.2, size=n)
    p = rand_unitary(rng, n)
    q = rand_unitary(rng, n)
    u = (p * np.cosh(alphas)) @ q.conj().T
    v = (p * np.sinh(alphas)) @ q.T
    return BogoliubovMap(u=u, v=v), np.sort(np.asarray(alphas, float))[::-1]


def gapped_spec(seed, n):
    """Random complex spec with Omega eigenvalues in [1, 2] and ||B||_op = 1/4,
    so the flow converges; its B_t do not commute."""
    rng = np.random.default_rng(seed)
    q = rand_unitary(rng, n)
    lam = rng.uniform(1.0, 2.0, n)
    lam[0], lam[-1] = 1.0, 2.0
    omega = (q * lam) @ q.conj().T
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = (g + g.T) / 2
    b *= 0.25 / np.linalg.norm(b, 2)
    return flow.QuadraticSpec.from_matrices((omega + omega.conj().T) / 2, b,
                                            c0=float(rng.uniform(-1, 1)))


@pytest.fixture(scope="module")
def generic_bpath(generic_traj):
    return generic_traj.b_path()


@pytest.fixture(scope="module")
def gapped_traj():
    return flow.integrate(gapped_spec(1, 8), t_end=5.0)


def test_symplectic_residuals_trivial():
    res = bogoliubov.symplectic_residuals(ident_map(3))
    assert all(v == 0.0 for v in res.values())


def test_symplectic_residuals_scalar_squeeze():
    r = 0.3
    m = BogoliubovMap(u=np.array([[np.cosh(r)]], dtype=complex),
                      v=np.array([[np.sinh(r)]], dtype=complex))
    assert max(bogoliubov.symplectic_residuals(m).values()) < 1e-14


def test_integrate_uv_trivial_cases(generic_bpath):
    m = bogoliubov.integrate_uv(generic_bpath, 1.0, 1.0)
    assert hs_norm(m.u - np.eye(2)) == 0.0 and hs_norm(m.v) == 0.0
    zero = FunctionBPath(lambda t: np.zeros((2, 2)), 0.0, 1.0)
    m = bogoliubov.integrate_uv(zero, 0.0, 1.0)
    assert hs_norm(m.u - np.eye(2)) < 1e-12 and hs_norm(m.v) < 1e-12


def test_integrate_uv_dtype_follows_the_path(generic_traj, gapped_traj):
    # a real trajectory gives a real pair over every span, the empty one
    # included; a complex trajectory and an integrated path give complex ones
    integrated = FunctionBPath(generic_traj, generic_traj.t0, generic_traj.t1)
    for path, dtype in ((generic_traj, np.float64), (gapped_traj, np.complex128),
                        (integrated, np.complex128)):
        for s, t in ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 1.0)):
            m = bogoliubov.integrate_uv(path, s, t)
            assert (m.u.dtype, m.v.dtype) == (dtype, dtype), (path, s, t)


def test_integrate_uv_constant_b_oracle():
    # constant real symmetric B decouples: u = cosh(4tB), v = -sinh(4tB)
    b = np.array([[0.3, 0.1], [0.1, -0.2]])
    path = FunctionBPath(lambda t: b, 0.0, 1.0)
    m = bogoliubov.integrate_uv(path, 0.0, 1.0)
    arg = 4.0 * b
    assert hs_norm(m.u - (expm(arg) + expm(-arg)) / 2) < 1e-8
    assert hs_norm(m.v + (expm(-arg) - expm(arg)) / (-2)) < 1e-8
    assert max(bogoliubov.symplectic_residuals(m).values()) < 1e-8


def test_integrate_uv_on_flow_path(generic_bpath):
    m = bogoliubov.integrate_uv(generic_bpath, 0.0, 2.0)
    assert max(bogoliubov.symplectic_residuals(m).values()) < 1e-8
    # commuting-case entrywise sign: v entries start at 0 and go negative
    one_mode = flow.integrate(
        analytic.block_spec([(2.0, 2.0, 0.5)]), t_end=1.0)
    m1 = bogoliubov.integrate_uv(one_mode.b_path(), 0.0, 1.0)
    assert m1.v[0, 1].real < 0
    int_b = bogoliubov.path_hs_integral(one_mode.b_path(), 0.0, 1.0)
    assert hs_norm(m1.v) < np.sinh(4.0 * int_b)


class RecordingPath:
    """Forwards a path's window and samples, and records each query time
    with the B it got."""

    def __init__(self, path):
        self._path, self.t0, self.t1, self.queries = path, path.t0, path.t1, []

    def __call__(self, t):
        b = self._path(t)
        self.queries.append((t, b))
        return b


PATH_CONSUMERS = {
    "integrate_uv": bogoliubov.integrate_uv,
    "dyson_uv": lambda path, s, t: flow_ref.dyson_uv(path, s, t, order=2),
    "path_hs_integral": bogoliubov.path_hs_integral,
    "propagate": lambda path, s, t: fock.propagate(fock.build_basis(2, 6), path, s, t),
}


@pytest.mark.parametrize("consumer", PATH_CONSUMERS)
@pytest.mark.parametrize("kind", ["trajectory", "function"])
def test_path_window_contract(consumer, kind, generic_bpath):
    # every consumer of a B-path keeps the one window contract of
    # flow.check_span, on the trajectory and on an explicit function
    run = PATH_CONSUMERS[consumer]
    path = generic_bpath if kind == "trajectory" else FunctionBPath(generic_bpath, 0.0, 2.0)
    t0, t1 = path.t0, path.t1
    for s, t in [(t0, t1 + 2e-9), (t0 - 2e-9, t1)]:
        with pytest.raises(PathGap):
            run(path, s, t)
    with pytest.raises(ValueError):
        run(path, 1.0, 0.5)
    # within the slack a span runs, the trajectory's carried columns included,
    # and the path answers every query past t1 with B(t1) exactly
    run(path, t1 - 1e-9, t1 + 5e-10)
    rec = RecordingPath(path)
    run(rec, t1 - 1e-9, t1 + 5e-10)
    at_end = [b for tau, b in rec.queries if tau >= t1]
    assert at_end
    for b in at_end:
        assert np.array_equal(b, path(t1))


def test_cocycle_composition(generic_bpath, gapped_traj):
    # the second path does not commute with itself at different times, so
    # only the time order compose(s -> x, x -> t) holds on it
    stepped = gapped_traj.b_path()
    stepped = FunctionBPath(stepped, stepped.t0, stepped.t1)
    for path in (generic_bpath, stepped):
        early = bogoliubov.integrate_uv(path, 0.0, 1.0)
        late = bogoliubov.integrate_uv(path, 1.0, 2.0)
        direct = bogoliubov.integrate_uv(path, 0.0, 2.0)
        joined = bogoliubov.compose(early, late)
        assert (joined.s, joined.t) == (0.0, 2.0)
        assert hs_norm(joined.u - direct.u) < 1e-8
        assert hs_norm(joined.v - direct.v) < 1e-8
    assert hs_norm(bogoliubov.compose(late, early).u - direct.u) > 1e-6


def test_trajectory_is_its_own_b_path(generic_traj):
    # a trajectory goes wherever a B-path does, with the answers of b_path()
    traj, bp = generic_traj, generic_traj.b_path()
    assert (traj.t0, traj.t1) == (bp.t0, bp.t1) == (0.0, traj.final.t)
    assert np.array_equal(traj(1.3), bp(1.3)) and np.array_equal(traj(1.3), traj.b_at(1.3))
    for s, t in ((0.0, traj.t1), (0.37, 2.5)):
        direct, via = bogoliubov.integrate_uv(traj, s, t), bogoliubov.integrate_uv(bp, s, t)
        assert np.array_equal(direct.u, via.u) and np.array_equal(direct.v, via.v)
        assert bogoliubov.path_hs_integral(traj, s, t) == bogoliubov.path_hs_integral(bp, s, t)
    fk = fock.build_basis(2, 8)
    assert np.array_equal(fock.propagate(fk, traj, 0.0, 1.0), fock.propagate(fk, bp, 0.0, 1.0))


def test_carried_map_matches_stepping_between_samples(gapped_traj):
    spec, bp = gapped_traj.spec, gapped_traj.b_path()
    assert bp is gapped_traj
    stepped = FunctionBPath(bp, bp.t0, bp.t1)
    t_final = gapped_traj.final.t
    # at sample times the map is the stored sample itself
    m = bogoliubov.integrate_uv(bp, 0.0, t_final)
    assert np.array_equal(m.u, gapped_traj.final.u)
    assert np.array_equal(m.v, gapped_traj.final.v)
    # between samples it is the dense output of the carried columns
    for s, t in ((0.0, 2.5), (0.37, 2.5), (0.37, t_final), (1.3, 1.9)):
        m = bogoliubov.integrate_uv(bp, s, t)
        ref = bogoliubov.integrate_uv(stepped, s, t)
        assert (m.s, m.t) == (s, t)
        assert max(hs_norm(m.u - ref.u), hs_norm(m.v - ref.v)) <= 1e-6
        assert max(bogoliubov.symplectic_residuals(m).values()) <= bogoliubov.MAP_TOL
        if s == 0.0:
            out = bogoliubov.transform_spec(m, spec)
            st_ = gapped_traj.state_at(t)
            assert max(hs_norm(out.omega - st_.omega), hs_norm(out.b - st_.b),
                       abs(out.c0 - st_.c)) <= 1e-8
    int_b = bogoliubov.path_hs_integral(bp, 0.37, 2.5)
    assert abs(int_b - bogoliubov.path_hs_integral(stepped, 0.37, 2.5)) <= 1e-8


@pytest.mark.parametrize("n", [32, 64])
def test_seeded_round_trips(n):
    spec = gapped_spec(1, n)
    traj = flow.integrate(spec, t_end=5.0)
    m = bogoliubov.integrate_uv(traj.b_path(), 0.0, traj.final.t)
    out = bogoliubov.transform_spec(m, spec)
    final = traj.final
    assert max(hs_norm(out.omega - final.omega), hs_norm(out.b - final.b),
               abs(out.c0 - final.c)) <= 1e-8


def test_inverse_map(generic_bpath):
    m = bogoliubov.integrate_uv(generic_bpath, 0.0, 2.0)
    round_trip = bogoliubov.compose(bogoliubov.inverse(m), m)
    assert hs_norm(round_trip.u - np.eye(2)) < 1e-8
    assert hs_norm(round_trip.v) < 1e-8


def test_dyson_low_orders(generic_bpath):
    m0, _ = flow_ref.dyson_uv(generic_bpath, 0.0, 2.0, order=0)
    assert hs_norm(m0.u - np.eye(2)) == 0.0 and hs_norm(m0.v) == 0.0
    b = np.array([[0.0, 0.25], [0.25, 0.0]])
    path = FunctionBPath(lambda t: b, 0.0, 2.0)
    m1, _ = flow_ref.dyson_uv(path, 0.0, 2.0, order=1)
    assert hs_norm(m1.u - np.eye(2)) < 1e-12
    assert hs_norm(m1.v + 4.0 * 2.0 * b) < 1e-10  # v = -4 int B = -8 B
    with pytest.raises(ValueError):
        flow_ref.dyson_uv(path, 0.0, 1.0, order=-1)


@pytest.mark.parametrize("nodes", [4, 9, flow_ref.DYSON_NODES])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_spline_integrals_match_scipy_antiderivative(nodes, kind):
    # the running integral of the not-a-knot spline is linear in the samples
    rng = np.random.default_rng(nodes)
    xs = np.linspace(0.3, 2.1, nodes)
    y = rng.normal(size=(nodes, 3)) + np.sin(3.0 * xs)[:, None]
    if kind == "complex":
        y = y + 1j * rng.normal(size=(nodes, 3))
    ref = CubicSpline(xs, y, axis=0).antiderivative()(xs)
    ref -= ref[0]
    ours = (xs[1] - xs[0]) * (flow_ref._spline_integrals(nodes) @ y)
    assert np.max(np.abs(ours - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_dyson_matches_integrate(generic_bpath):
    direct = bogoliubov.integrate_uv(generic_bpath, 0.0, 2.0)
    series, _ = flow_ref.dyson_uv(generic_bpath, 0.0, 2.0, order=8)
    assert hs_norm(series.u - direct.u) < 1e-6
    assert hs_norm(series.v - direct.v) < 1e-6


def test_dyson_tail_bounds_dominate_error(generic_bpath):
    direct = bogoliubov.integrate_uv(generic_bpath, 0.0, 2.0)
    for order in (1, 2, 4):
        series, tails = flow_ref.dyson_uv(generic_bpath, 0.0, 2.0, order=order)
        assert hs_norm(series.u - direct.u) <= tails["u_tail_bound"] + 1e-8
        assert hs_norm(series.v - direct.v) <= tails["v_tail_bound"] + 1e-8


def test_norm_bounds(generic_bpath):
    assert bogoliubov.norm_bounds(ident_map(2), 0.0) == (True, True)
    m = bogoliubov.integrate_uv(generic_bpath, 0.0, 2.0)
    int_b = bogoliubov.path_hs_integral(generic_bpath, 0.0, 2.0)
    assert bogoliubov.norm_bounds(m, int_b) == (True, True)
    # both bounds genuinely fail when the integral is understated
    assert bogoliubov.norm_bounds(m, 0.0) == (False, False)


def test_transform_spec_identity(generic_spec):
    out = bogoliubov.transform_spec(ident_map(2), generic_spec)
    assert hs_norm(out.omega - generic_spec.omega) < 1e-14
    assert hs_norm(out.b - generic_spec.b) < 1e-14
    assert out.c0 == generic_spec.c0


def test_transform_spec_matches_flow(generic_traj, generic_spec, generic_bpath):
    for t in (0.5, 1.0, 2.0):
        m = bogoliubov.integrate_uv(generic_bpath, 0.0, t)
        out = bogoliubov.transform_spec(m, generic_spec)
        s = generic_traj.state_at(t)
        assert hs_norm(out.omega - s.omega) < 1e-6
        assert hs_norm(out.b - s.b) < 1e-6
        # conjugating the initial spec reproduces the flow's scalar too
        assert abs(out.c0 - s.c) < 1e-6
        assert abs(s.c - generic_spec.c0
                   + 16.0 * analytic.exact_block(1.0, 2.0, 0.5, t)[3]
                   ) < 1e-7


def test_transform_spec_inverse_round_trip(generic_spec, generic_bpath):
    m = bogoliubov.integrate_uv(generic_bpath, 0.0, 2.0)
    fwd = bogoliubov.transform_spec(m, generic_spec)
    back = bogoliubov.transform_spec(bogoliubov.inverse(m), fwd)
    assert hs_norm(back.omega - generic_spec.omega) < 1e-8
    assert hs_norm(back.b - generic_spec.b) < 1e-8
    assert abs(back.c0 - generic_spec.c0) < 1e-8


def test_transform_spec_one_mode_squeeze():
    r, w = 0.4, 1.7
    m = BogoliubovMap(u=np.array([[np.cosh(r)]], dtype=complex),
                      v=np.array([[np.sinh(r)]], dtype=complex))
    spec = flow.QuadraticSpec.from_matrices([[w]], [[0.0]])
    out = bogoliubov.transform_spec(m, spec)
    assert np.isclose(out.omega[0, 0].real, w * np.cosh(2 * r))
    assert np.isclose(out.b[0, 0].real, 0.5 * w * np.sinh(2 * r))
    assert np.isclose(out.c0, w * np.sinh(r) ** 2)


def test_transform_spec_rejects_invalid():
    bad = BogoliubovMap(u=2.0 * np.eye(2, dtype=complex),
                        v=np.zeros((2, 2), complex))
    with pytest.raises(MapInvalid):
        bogoliubov.transform_spec(
            bad, flow.QuadraticSpec.from_matrices(np.eye(2), np.zeros((2, 2))))


def test_decompose_trivial():
    d = bogoliubov.decompose_generator(ident_map(3))
    assert np.allclose(d.alphas, 0.0)
    assert hs_norm(d.h_matrix) < 1e-12


def test_decompose_scalar_squeeze():
    r = 0.3
    m = BogoliubovMap(u=np.array([[np.cosh(r)]], dtype=complex),
                      v=np.array([[np.sinh(r)]], dtype=complex))
    d = bogoliubov.decompose_generator(m)
    assert np.allclose(d.alphas, [r], atol=1e-12)
    assert hs_norm(d.h_matrix) < 1e-12
    # cosh^2 - sinh^2 = 1 holds exactly for the returned angles
    assert np.cosh(d.alphas[0]) ** 2 - np.sinh(d.alphas[0]) ** 2 == 1.0


def test_decompose_pure_rotation():
    rng = np.random.default_rng(5)
    w = rand_unitary(rng, 3)
    m = BogoliubovMap(u=w, v=np.zeros((3, 3), complex))
    d = bogoliubov.decompose_generator(m)
    assert np.allclose(d.alphas, 0.0, atol=1e-12)
    # with no squeezing the map is the rotation itself: u = exp(-i h)
    assert hs_norm(expm(-1j * d.h_matrix) - w) < 1e-8
    assert hs_norm(d.uhat - w.conj().T) < 1e-8


def test_decompose_degenerate_antidiagonal_squeeze():
    # repeated singular values with sign structure; the frames must stay
    # jointly gauged or the reconstruction breaks
    r = 0.4
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = BogoliubovMap(u=np.cosh(r) * np.eye(2, dtype=complex),
                      v=-np.sinh(r) * x.astype(complex))
    d = bogoliubov.decompose_generator(m)
    assert np.allclose(d.alphas, [r, r], atol=1e-12)
    assert hs_norm(d.h_matrix) < 1e-12
    assert max(d.residuals.values()) < 1e-12


def test_decompose_generic_limit_map(generic_bpath):
    m = bogoliubov.integrate_uv(generic_bpath, 0.0, 5.0)
    d = bogoliubov.decompose_generator(m)
    assert d.residuals["u_recon"] < 1e-8
    assert d.residuals["v_recon"] < 1e-8
    assert np.all(np.isfinite(d.alphas))


@settings(max_examples=20)
@given(st.integers(0, 10**6), st.integers(1, 5))
def test_decompose_reconstructs_random_maps(seed, n):
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        alphas = rng.uniform(0.0, 1.2, size=n)
    elif kind == 1:  # force repeats and zeros
        alphas = np.repeat(rng.uniform(0.0, 1.0, size=(n + 1) // 2), 2)[:n]
        alphas[rng.integers(n)] = 0.0
    else:
        alphas = np.zeros(n)
    m, sorted_alphas = rand_symplectic(rng, n, alphas)
    d = bogoliubov.decompose_generator(m)
    assert np.allclose(np.sort(d.alphas)[::-1], sorted_alphas, atol=1e-7)
    cosh_a = np.cosh(d.alphas)
    sinh_a = np.sinh(d.alphas)
    u_rec = (d.g_frame * cosh_a) @ d.h_frame.conj().T
    v_rec = (d.g_frame * sinh_a) @ d.h_frame.T
    assert hs_norm(u_rec - m.u) < 1e-7 * max(1.0, hs_norm(m.u))
    assert hs_norm(v_rec - m.v) < 1e-7 * max(1.0, hs_norm(m.v))
    assert hs_norm(expm(1j * d.h_matrix) - d.uhat) < 1e-7


def test_decompose_log_branch():
    u = np.diag([-1.0 + 0j, 1.0 + 0j])
    m = BogoliubovMap(u=u, v=np.zeros((2, 2), complex))
    with pytest.raises(LogBranch):
        bogoliubov.decompose_generator(m)


@given(st.integers(0, 10**6), st.integers(1, 64))
def test_decompose_log_matches_scipy(seed, n):
    # the log that _unitary_eig gives decompose_generator, on rotations
    # whose uhat is a Haar unitary; has repeated angles; or has repeated
    # angles plus one angle 2e-8 to 1e-1 from -1 on either side, the others
    # kept 0.1 from it
    rng = np.random.default_rng(seed)
    kind = seed % 3
    if kind == 0:
        x = rand_unitary(rng, n)
    else:
        angles = rng.uniform(-np.pi + 0.1, np.pi - 0.1, n)
        angles[: n // 2] = angles[0]
        if kind == 2:
            delta = 10.0 ** rng.uniform(np.log10(2e-8), -1.0)
            angles[-1] = np.pi - delta if seed % 2 else -np.pi + delta
        q = rand_unitary(rng, n)
        x = (q * np.exp(1j * angles)) @ q.conj().T
    # uhat is the adjoint of u for a map with v = 0
    d = bogoliubov.decompose_generator(
        BogoliubovMap(u=x.conj().T, v=np.zeros((n, n), complex)))
    assert hs_norm(d.uhat - x) <= 1e-12
    assert hs_norm(expm(1j * d.h_matrix) - d.uhat) <= 1e-12
    assert hs_norm(d.h_matrix + 1j * logm(d.uhat)) <= 1e-11


@given(st.integers(0, 10**6), st.integers(1, 64))
def test_unitary_eig_square_root_of_symmetric_unitary(seed, n):
    # z = O diag(exp(i angles)) O^t with O real orthogonal is symmetric and
    # unitary; half its angles are exactly pi, so z has repeated -1
    # eigenvalues whenever n >= 4, as a real gauge matrix with negative
    # directions does
    rng = np.random.default_rng(seed)
    o, _ = np.linalg.qr(rng.normal(size=(n, n)))
    angles = rng.uniform(-np.pi, np.pi, n)
    angles[: n // 2] = np.pi
    if seed % 2:
        angles = np.where(angles > 0.0, np.pi, 0.0)  # real symmetric z
    z = (o * np.exp(1j * angles)) @ o.T
    theta, q = bogoliubov._unitary_eig(z)
    w = (q * np.exp(0.5j * theta)) @ q.conj().T
    assert hs_norm(w @ w - z) <= 1e-12
    assert hs_norm(w - w.T) <= 1e-12
    assert hs_norm(w.conj().T @ w - np.eye(n)) <= 1e-12


@given(st.integers(0, 10**6), st.integers(1, 64))
def test_unitary_eig_square_root_matches_scipy(seed, n):
    # with every angle in [-pi/2, pi/2] the widest gap holds -1, so the
    # square root is the principal one
    rng = np.random.default_rng(seed)
    angles = rng.uniform(-np.pi / 2, np.pi / 2, n)
    angles[: n // 2] = angles[0]
    q = rand_unitary(rng, n)
    z = (q * np.exp(1j * angles)) @ q.conj().T
    theta, qz = bogoliubov._unitary_eig(z)
    w = (qz * np.exp(0.5j * theta)) @ qz.conj().T
    assert hs_norm(w - sqrtm(z)) <= 1e-12


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_decompose_log_branch_threshold(side):
    # a rotation with one uhat eigenvalue at angle pi - delta (or
    # -pi + delta): refused inside BRANCH_TOL, logged accurately outside
    rng = np.random.default_rng(11)
    q = rand_unitary(rng, 4)

    def rotation(delta):
        angles = np.array([0.3, -1.2, 2.0, side * (np.pi - delta)])
        # uhat is the adjoint of u for a map with v = 0
        u = (q * np.exp(-1j * angles)) @ q.conj().T
        return BogoliubovMap(u=u, v=np.zeros((4, 4), complex))

    with pytest.raises(LogBranch):
        bogoliubov.decompose_generator(rotation(0.5 * bogoliubov.BRANCH_TOL))
    d = bogoliubov.decompose_generator(rotation(2.0 * bogoliubov.BRANCH_TOL))
    assert hs_norm(expm(1j * d.h_matrix) - d.uhat) <= 1e-12
    assert hs_norm(d.h_matrix + 1j * logm(d.uhat)) <= 1e-11
    assert d.residuals["exp_check"] <= 1e-12


def test_map_is_a_value_that_checks_itself_once(generic_spec, monkeypatch):
    calls = []
    real = bogoliubov._residuals
    monkeypatch.setattr(bogoliubov, "_residuals", lambda u, v: calls.append(1) or real(u, v))
    m, _ = rand_symplectic(np.random.default_rng(2), 2)
    res = bogoliubov.symplectic_residuals(m)
    res["uu_vv"] = 1.0  # the caller's copy, not the map's
    bogoliubov.transform_spec(m, generic_spec)
    bogoliubov.decompose_generator(m)
    assert len(calls) == 1
    assert max(bogoliubov.symplectic_residuals(m).values()) < 1e-12
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.u = np.eye(2)
    with pytest.raises(ValueError):
        m.v[0, 0] = 1.0


@pytest.mark.parametrize("delta", [0.0, 1e-9])
def test_decompose_log_branch_among_64_angles(delta):
    # the -1 test reads the angles the log is built from: one uhat
    # eigenvalue at -1, or 1e-9 from it, among 63 others is refused
    rng = np.random.default_rng(64)
    angles = rng.uniform(-np.pi + 0.1, np.pi - 0.1, 64)
    angles[-1] = np.pi - delta
    q = rand_unitary(rng, 64)
    # uhat is the adjoint of u for a map with v = 0
    u = (q * np.exp(-1j * angles)) @ q.conj().T
    with pytest.raises(LogBranch):
        bogoliubov.decompose_generator(BogoliubovMap(u=u, v=np.zeros((64, 64), complex)))


@pytest.mark.parametrize("seed", [0, 1])
def test_decompose_holds_at_n64(seed):
    # squeeze angles from 0 to 1.2, half of them repeated in pairs
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.0, 1.2, 64)
    alphas[:32] = np.repeat(alphas[:16], 2)
    m, want = rand_symplectic(rng, 64, alphas)
    d = bogoliubov.decompose_generator(m)
    assert np.max(np.abs(d.alphas - want)) <= 1e-12
    assert d.residuals["exp_check"] <= 1e-12
    assert max(d.residuals.values()) <= 1e-12
    assert hs_norm(expm(1j * d.h_matrix) - d.uhat) <= 1e-12


def test_decompose_rejects_invalid_map():
    bad = BogoliubovMap(u=np.eye(2, dtype=complex),
                        v=0.5 * np.eye(2, dtype=complex))
    with pytest.raises(MapInvalid):
        bogoliubov.decompose_generator(bad)
