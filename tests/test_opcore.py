from fractions import Fraction
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwflow.errors import KernelOverlap, NotPSD, RoleViolation
from bwflow.opcore import (OneParticleOperator, QuadraticSpec, Sandwiches, as_matrix,
                           hs_norm, hs_scale, min_eig_hermitian, psd_sqrt)
from flow_reference import psd_power


def rand_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        as_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_as_matrix_copies():
    src = np.eye(2)
    m = as_matrix(src)
    m[0, 0] = 7.0
    assert src[0, 0] == 1.0


def test_role_projection_and_defect():
    almost = np.array([[1.0, 0.5 + 1e-13], [0.5, 2.0]])
    op = OneParticleOperator.hermitian(almost)
    assert op.defect < 1e-12
    assert hs_norm(op.mat - op.mat.conj().T) == 0.0


def test_role_violation_raises():
    with pytest.raises(RoleViolation):
        OneParticleOperator.hermitian([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(RoleViolation):
        OneParticleOperator.symmetric([[0.0, 1.0], [-1.0, 0.0]])


def test_operator_is_frozen():
    op = OneParticleOperator.hermitian(np.eye(2))
    with pytest.raises((ValueError, AttributeError)):
        op.mat[0, 0] = 3.0


def test_quadratic_spec_roles_enforced():
    herm = OneParticleOperator.hermitian(np.eye(2))
    sym = OneParticleOperator.symmetric(np.zeros((2, 2)))
    spec = QuadraticSpec(herm, sym, c0=1)
    assert spec.dim == 2 and spec.c0 == 1.0
    with pytest.raises(RoleViolation):
        QuadraticSpec(sym, sym)
    with pytest.raises(RoleViolation):
        QuadraticSpec(herm, herm)


@given(st.integers(0, 10**6), st.integers(1, 5))
def test_hs_norm_matches_trace_formula(seed, n):
    m = rand_complex(np.random.default_rng(seed), n)
    direct = np.sqrt(np.trace(m.conj().T @ m).real)
    assert np.isclose(hs_norm(m), direct, rtol=1e-12)
    assert hs_scale(0.5 * np.eye(1)) == 1.0


@pytest.mark.parametrize("m, want", [
    ([[0.0, 1e160], [1e160, 0.0]], np.sqrt(2.0) * 1e160),
    ([[3e200, 4e200j]], 5e200),
    ([[1.7e308, 1.7e308]], np.inf),
    ([[1.0, np.inf]], np.inf),
    ([[1.0, np.nan]], np.nan),
], ids=["real", "complex", "past-the-range", "inf", "nan"])
def test_hs_norm_of_entries_above_1e154(m, want):
    # the plain sum of squares overflows to inf for every matrix here; a
    # finite matrix gets its norm back from the rescaled sum, without a
    # warning, and only a norm past the float range or a non-finite entry
    # is inf or nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hs_norm(np.array(m))
    assert got == pytest.approx(want, rel=1e-15, nan_ok=True)


@given(st.integers(0, 10**6), st.integers(1, 5), st.floats(-300, 150))
def test_hs_norm_below_the_overflow_is_numpys_norm(seed, n, exponent):
    m = rand_complex(np.random.default_rng(seed), n) * 10.0 ** exponent
    assert hs_norm(m) == float(np.linalg.norm(m))
    assert hs_norm(m.real) == float(np.linalg.norm(m.real))


def test_min_eig_hermitian():
    assert np.isclose(min_eig_hermitian(np.diag([3.0, -1.0, 2.0])), -1.0)
    with pytest.raises(ValueError):
        min_eig_hermitian(np.zeros((0, 0)))


@given(st.integers(0, 10**6), st.integers(1, 5))
def test_psd_sqrt_squares_back(seed, n):
    rng = np.random.default_rng(seed)
    a = rand_complex(rng, n)
    m = a @ a.conj().T
    root = psd_sqrt(m).mat
    assert hs_norm(root @ root - m) < 1e-9 * hs_scale(m)


def test_psd_sqrt_clamps_and_rejects():
    tiny = np.diag([1.0, -1e-13])
    root = psd_sqrt(tiny).mat
    assert np.isclose(root[1, 1].real, 0.0)
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_power_special_cases():
    m = np.diag([4.0, 9.0])
    assert np.allclose(psd_power(m, 0.5), np.diag([2.0, 3.0]))
    assert np.allclose(psd_power(m, 1.0), m)
    with pytest.raises(ValueError):
        psd_power(m, -1.0)


def test_sandwich_worked_example():
    # Omega = diag(1,2), B = antidiag(1/2): B (Omega^t)^{-1} B~ = diag(1/8, 1/4)
    omega = np.diag([1.0, 2.0])
    b = np.array([[0.0, 0.5], [0.5, 0.0]])
    got = Sandwiches(b, omega).matrix(1).mat
    assert np.allclose(got, np.diag([0.125, 0.25]), atol=1e-14)
    got2 = Sandwiches(b, omega).matrix(2).mat
    assert np.allclose(got2, np.diag([1.0 / 16.0, 1.0 / 4.0]), atol=1e-14)


def test_sandwich_kernel_paths():
    omega = np.diag([0.0, 1.0])
    safe = np.array([[0.0, 0.0], [0.0, 1.0]])
    got = Sandwiches(safe, omega).matrix(1).mat
    assert np.allclose(got, np.diag([0.0, 1.0]))
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(KernelOverlap):
        Sandwiches(bad, omega).matrix(1)
    with pytest.raises(ValueError):
        Sandwiches(safe, omega).matrix(0)


@given(st.integers(0, 10**6), st.integers(1, 4), st.sampled_from([1.0, 2.0, 3.0, 4.5]))
def test_sandwich_norm_is_root_of_sandwich_trace(seed, n, p):
    rng = np.random.default_rng(seed)
    a = rand_complex(rng, n)
    omega = a @ a.conj().T + 0.2 * np.eye(n)
    b = rand_complex(rng, n)
    b = (b + b.T) / 2
    ref = np.sqrt(np.trace(Sandwiches(b, omega).matrix(p).mat).real)
    assert abs(Sandwiches(b, omega).norm(p) - ref) <= 1e-12 * ref


def test_sandwich_norm_kernel_and_overflow():
    omega = np.diag([0.0, 1.0])
    assert Sandwiches([[0.0, 0.0], [0.0, 3.0]], omega).norm(2) == 3.0
    assert Sandwiches(np.zeros((2, 2)), omega).norm(2) == 0.0
    assert Sandwiches(np.zeros((2, 2)), np.zeros((2, 2))).norm(2) == 0.0
    with pytest.raises(KernelOverlap):
        Sandwiches([[0.0, 1.0], [1.0, 0.0]], omega).norm(2)
    with pytest.raises(ValueError):
        Sandwiches(omega, omega).norm(0)
    # lam^-p overflows long before the norm: (0.5^-900 * 0.1)^2 + (2^-900 * 0.1)^2
    # under the root, and 0.5^-1200 * 1e-100 with a weight past the largest
    # float
    anti = np.array([[0.0, 0.1], [0.1, 0.0]])
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        got = Sandwiches(anti, np.diag([0.5, 2.0])).norm(1800)
        assert abs(got - 0.1 * 2.0 ** 900) <= 1e-12 * got
        small = Sandwiches(1e-100 * np.eye(1), 0.5 * np.eye(1)).norm(2400)
        assert abs(small - float(Fraction(2) ** 1200 * Fraction(1e-100))) <= 1e-12 * small
        assert Sandwiches(anti, np.diag([0.5, 2.0])).norm(1e300) == np.inf


@pytest.mark.parametrize("k", [-600, 0, 100, 511, 520, 700, 1000])
def test_sandwich_norm_scales_exactly_past_1e154(k):
    # from k = 512 on the column norms' sums of squares overflow, and at
    # k = -600 they underflow; the norm stays finite, without a warning,
    # and scales with B x 2^k exactly
    rng = np.random.default_rng(3)
    b = rand_complex(rng, 3)
    b = b + b.T
    a = rng.normal(size=(3, 3))
    omega = a @ a.T + 0.5 * np.eye(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = Sandwiches(b * 2.0 ** k, omega).norm(2.5)
    assert math.isfinite(got)
    assert got == 2.0 ** k * Sandwiches(b, omega).norm(2.5)


@given(st.integers(0, 10**6), st.integers(1, 4))
def test_sandwich_is_hermitian_psd(seed, n):
    rng = np.random.default_rng(seed)
    a = rand_complex(rng, n)
    omega = a @ a.conj().T + 0.2 * np.eye(n)
    b = rand_complex(rng, n)
    b = (b + b.T) / 2
    out = Sandwiches(b, omega).matrix(1)
    assert out.role == "hermitian"
    assert min_eig_hermitian(out.mat) > -1e-10 * hs_scale(out.mat)
