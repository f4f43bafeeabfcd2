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

import numpy as np

from .errors import RoleViolation

# Relative tolerance for structural checks, scaled by the Hilbert-Schmidt
# norm of the matrix being tested (floored at 1).
SYM_TOL = 1e-10


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


class Frozen:
    """Base of the value records: attributes are set once, in __init__,
    through __dict__, and assigning or deleting one afterwards raises
    dataclasses.FrozenInstanceError, as on a frozen dataclass."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only on a refused assignment

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class OneParticleOperator(Frozen):
    """A square matrix ``mat`` tagged with the structural ``role`` it plays.

    The matrix is projected onto its role (hermitized or symmetrized) on
    construction and the relative deviation of the input is recorded in
    ``defect``.  Inputs whose deviation exceeds ``sym_tol`` are rejected.
    """

    def __init__(self, mat, role: str, sym_tol: float = SYM_TOL):
        if role not in ("hermitian", "symmetric"):
            raise ValueError(f"unknown role {role!r}")
        m = as_matrix(mat)
        partner = m.conj().T if role == "hermitian" else m.T  # equals m in its role
        d = hs_norm(m - partner) / hs_scale(m)
        if d > sym_tol:
            raise RoleViolation(
                f"matrix violates role {role!r}: relative defect {d:.3e} > {sym_tol:.1e}")
        m = (m + partner) / 2
        m.setflags(write=False)
        self.__dict__.update(mat=m, role=role, defect=d)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def hermitian(cls, mat, sym_tol: float = SYM_TOL) -> "OneParticleOperator":
        return cls(mat, role="hermitian", sym_tol=sym_tol)

    @classmethod
    def symmetric(cls, mat, sym_tol: float = SYM_TOL) -> "OneParticleOperator":
        return cls(mat, role="symmetric", sym_tol=sym_tol)


class QuadraticSpec(Frozen):
    """Coefficient data (Omega, B, C) of a quadratic boson Hamiltonian.

    Omega is hermitian, B is symmetric, C is a real scalar.  ``dim`` is the
    dimension of the one-particle space.
    """

    def __init__(self, omega0: OneParticleOperator, b0: OneParticleOperator,
                 c0: float = 0.0, label: str = ""):
        if omega0.role != "hermitian":
            raise RoleViolation("omega0 must carry the hermitian role")
        if b0.role != "symmetric":
            raise RoleViolation("b0 must carry the symmetric role")
        if omega0.dim != b0.dim:
            raise ValueError("omega0 and b0 must have equal dimensions")
        self.__dict__.update(omega0=omega0, b0=b0, c0=float(c0), label=label)

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
