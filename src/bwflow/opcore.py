"""Matrix kernel for one-particle operators.

Conventions used throughout the package, for a complex square matrix X:

* transpose  X^t
* conjugate  X~   (entrywise)
* adjoint    X* = (X~)^t

Omega-type operators are hermitian positive semidefinite, B-type operators
are complex symmetric (B = B^t).  The Hilbert-Schmidt norm is
``||X||_2 = sqrt(tr(X* X))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import KernelOverlap, NotPSD, RoleViolation

# Relative tolerances for structural checks.  All of them are scaled by the
# Hilbert-Schmidt norm of the matrix being tested (floored at 1).
SYM_TOL = 1e-10
PSD_TOL = 1e-10
KER_TOL = 1e-10

_ROLES = ("hermitian", "symmetric", "general")


def as_matrix(x) -> np.ndarray:
    """Return a fresh complex128 square matrix from x.

    Accepts an ndarray, a nested list or an OneParticleOperator.
    """
    if isinstance(x, OneParticleOperator):
        return np.array(x.mat, dtype=np.complex128)
    m = np.array(x, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hs_norm(x) -> float:
    """Hilbert-Schmidt norm sqrt(tr(X* X)) = Frobenius norm.

    The plain sum of squares overflows for entries above about 1e154; only
    then, and only for finite entries, the norm is taken of X / _pow2_scale(X)
    and scaled back, so that it is inf only when X is not finite or the norm
    exceeds the float range.
    """
    m = x.mat if isinstance(x, OneParticleOperator) else np.asarray(x)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
    if norm == math.inf and np.isfinite(m).all():
        scale = _pow2_scale(m)
        norm = scale * float(np.linalg.norm(m / scale))
    return norm


def _pow2_scale(m: np.ndarray) -> float:
    """The power of two that takes the largest real or imaginary part of m
    into [1, 2).  Dividing by it is exact for normal entries, and norms
    taken of m / scale and multiplied by scale are bit for bit those of m
    wherever the latter's sums of squares neither overflow nor underflow."""
    top = max(float(np.abs(m.real).max()), float(np.abs(m.imag).max()))
    return math.ldexp(1.0, math.frexp(top)[1] - 1)


def hs_scale(x) -> float:
    """Norm floored at 1, used to make tolerances relative."""
    return max(1.0, hs_norm(x))


def _defect(m: np.ndarray, role: str) -> float:
    if role == "hermitian":
        return hs_norm(m - m.conj().T) / hs_scale(m)
    if role == "symmetric":
        return hs_norm(m - m.T) / hs_scale(m)
    return 0.0


def _project(m: np.ndarray, role: str) -> np.ndarray:
    if role == "hermitian":
        return (m + m.conj().T) / 2
    if role == "symmetric":
        return (m + m.T) / 2
    return m


@dataclass(frozen=True, eq=False)
class OneParticleOperator:
    """A square matrix tagged with the structural role it plays.

    The matrix is projected onto its role (hermitized or symmetrized) on
    construction and the relative deviation of the input is recorded in
    ``defect``.  Inputs whose deviation exceeds ``sym_tol`` are rejected.
    """

    mat: np.ndarray
    role: str = "general"
    defect: float = field(default=0.0, compare=False)

    def __init__(self, mat, role: str = "general", sym_tol: float = SYM_TOL):
        if role not in _ROLES:
            raise ValueError(f"unknown role {role!r}")
        m = as_matrix(mat)
        d = _defect(m, role)
        if d > sym_tol:
            raise RoleViolation(
                f"matrix violates role {role!r}: relative defect {d:.3e} > {sym_tol:.1e}")
        m = _project(m, role)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "role", role)
        object.__setattr__(self, "defect", d)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def hermitian(cls, mat, sym_tol: float = SYM_TOL) -> "OneParticleOperator":
        return cls(mat, role="hermitian", sym_tol=sym_tol)

    @classmethod
    def symmetric(cls, mat, sym_tol: float = SYM_TOL) -> "OneParticleOperator":
        return cls(mat, role="symmetric", sym_tol=sym_tol)


@dataclass(frozen=True, eq=False)
class QuadraticSpec:
    """Coefficient data (Omega, B, C) of a quadratic boson Hamiltonian.

    Omega is hermitian, B is symmetric, C is a real scalar.  ``dim`` is the
    dimension of the one-particle space.
    """

    omega0: OneParticleOperator
    b0: OneParticleOperator
    c0: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.omega0.role != "hermitian":
            raise RoleViolation("omega0 must carry the hermitian role")
        if self.b0.role != "symmetric":
            raise RoleViolation("b0 must carry the symmetric role")
        if self.omega0.dim != self.b0.dim:
            raise ValueError("omega0 and b0 must have equal dimensions")
        object.__setattr__(self, "c0", float(self.c0))

    @property
    def dim(self) -> int:
        return self.omega0.dim

    @property
    def omega(self) -> np.ndarray:
        return self.omega0.mat

    @property
    def b(self) -> np.ndarray:
        return self.b0.mat

    @property
    def is_real(self) -> bool:
        """Whether every imaginary part of Omega and B is exactly 0.0.

        There is no tolerance, so a spec with any nonzero imaginary entry,
        however small, is complex.  Real specs are integrated in real
        arithmetic (see flow.integrate and fock.propagate).
        """
        return not (self.omega.imag.any() or self.b.imag.any())

    @classmethod
    def from_matrices(cls, omega, b, c0: float = 0.0, label: str = "",
                      sym_tol: float = SYM_TOL) -> "QuadraticSpec":
        return cls(OneParticleOperator.hermitian(omega, sym_tol),
                   OneParticleOperator.symmetric(b, sym_tol), c0, label)


def min_eig_hermitian(x) -> float:
    """Smallest eigenvalue of the hermitian part of x, or NaN if that part
    is not finite (eigvalsh may answer 0 for it), so that no margin
    compared against it holds."""
    m = as_matrix(x)
    m = (m + m.conj().T) / 2
    if m.shape[0] == 0:
        raise ValueError("empty matrix")
    if not np.isfinite(m).all():
        return math.nan
    return float(np.linalg.eigvalsh(m)[0])


def psd_sqrt(x) -> OneParticleOperator:
    """Principal square root of a hermitian PSD matrix.

    Eigenvalues below ``-PSD_TOL * ||M||_2`` raise NotPSD; small negative
    eigenvalues within the tolerance are clamped to zero.
    """
    m = as_matrix(x)
    m = (m + m.conj().T) / 2
    vals, vecs = np.linalg.eigh(m)
    floor = -PSD_TOL * hs_scale(m)
    if vals[0] < floor:
        raise NotPSD(f"min eigenvalue {vals[0]:.3e} below {floor:.3e}")
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    return OneParticleOperator.hermitian((root + root.conj().T) / 2, sym_tol=np.inf)


def psd_power(x, alpha: float) -> np.ndarray:
    """M^alpha for hermitian PSD M and alpha >= 0, kernel clamped to zero."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative; use sandwich for inverses")
    m = as_matrix(x)
    m = (m + m.conj().T) / 2
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    r = (vecs * vals**alpha) @ vecs.conj().T
    return (r + r.conj().T) / 2


class Sandwiches:
    """The matrices B (Omega^t)^{-p} B~ and their norms for one pair (B,
    Omega), all from one eigh of hermitian Omega^t: a caller that needs
    several powers p, or both a matrix and a norm, factors Omega^t once.

    The inverse power is taken on the orthogonal complement of the kernel
    of Omega^t, its eigenvalues below ``ker_tol * max(1, ||Omega||_2)``.
    If any kernel eigenvector w fails B w = 0 within tolerance, every
    sandwich is genuinely singular and the constructor raises
    KernelOverlap.  ``p`` may be any positive real; the case of interest is
    integer p.
    """

    def __init__(self, b, omega, ker_tol: float = KER_TOL):
        bm = as_matrix(b)
        om = as_matrix(omega)
        omt = om.T
        omt = (omt + omt.conj().T) / 2  # hermitian when omega is
        vals, vecs = np.linalg.eigh(omt)
        thresh = ker_tol * hs_scale(om)
        kernel = vals <= thresh
        if np.any(kernel):
            bnorm = hs_norm(bm)
            overlap = np.linalg.norm(bm @ vecs[:, kernel], axis=0)
            if np.any(overlap > ker_tol * max(1.0, bnorm)):
                worst = float(np.max(overlap))
                raise KernelOverlap(
                    f"B has overlap {worst:.3e} with the kernel of Omega^t "
                    f"(threshold {thresh:.3e})")
        self.b, self.vals, self.vecs, self.kernel = bm, vals, vecs, kernel
        self._mats = {}  # matrix(p) by p

    def matrix(self, p=1) -> OneParticleOperator:
        """Hermitian PSD matrix B (Omega^t)^{-p} B~, computed once per p."""
        if p <= 0:
            raise ValueError("p must be positive")
        if p not in self._mats:
            vals, vecs, kernel, bm = self.vals, self.vecs, self.kernel, self.b
            inv_vals = np.where(kernel, 0.0, 1.0 / np.where(kernel, 1.0, vals)**p)
            core = (vecs * inv_vals) @ vecs.conj().T
            r = bm @ core @ bm.conj()
            self._mats[p] = OneParticleOperator.hermitian((r + r.conj().T) / 2,
                                                          sym_tol=np.inf)
        return self._mats[p]

    def norm(self, p=1) -> float:
        """||B (Omega^t)^{-p/2}||_2, which for symmetric B is
        sqrt(tr matrix(p)).

        With Omega^t = sum_k lam_k w_k w_k*, the norm is the 2-norm of
        ||B w_k||_2 lam_k^{-p/2} over k.  It is summed relative to the
        smallest lam_k and no weight is squared, and the column norms
        ||B w_k||_2 are taken of B / _pow2_scale(B), so it is finite
        wherever the norm itself is, also for entries above about 1e154,
        where the plain sums of squares overflow, and where the sandwich's
        lam^-p overflows; a norm past the largest float is inf.
        """
        if p <= 0:
            raise ValueError("p must be positive")
        bm, keep = self.b, ~self.kernel
        lams = self.vals[keep]
        if not lams.size:
            return 0.0
        scale = _pow2_scale(bm)
        cols = np.linalg.norm((bm / scale) @ self.vecs[:, keep], axis=0)
        lam_min = float(lams[0])
        rel = scale * math.hypot(*(cols * (lam_min / lams) ** (0.5 * p)))  # each factor <= 1
        if rel == 0.0:
            return 0.0
        try:
            return rel * lam_min ** (-0.5 * p)
        except OverflowError:  # the weight overflows; the norm may not
            try:
                return math.exp(math.log(rel) - 0.5 * p * math.log(lam_min))
            except OverflowError:
                return math.inf


def sandwich(b, omega, p=1, ker_tol: float = KER_TOL) -> OneParticleOperator:
    """Hermitian PSD matrix B (Omega^t)^{-p} B~ (kernel, KernelOverlap and p
    as in Sandwiches), factoring Omega^t for this one call.  A caller that
    needs several sandwiches or norms of one pair shares the factorization
    through Sandwiches, as conditions.check_all does."""
    return Sandwiches(b, omega, ker_tol).matrix(p)


def sandwich_norm(b, omega, p=1, ker_tol: float = KER_TOL) -> float:
    """||B (Omega^t)^{-p/2}||_2 on the complement of the kernel of Omega^t
    (see Sandwiches.norm), factoring Omega^t for this one call as sandwich
    does."""
    return Sandwiches(b, omega, ker_tol).norm(p)
