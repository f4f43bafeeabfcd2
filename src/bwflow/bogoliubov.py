"""Transformation pairs (u, v) generated by the flow.

Along a B-path the pair solves, for t >= s with u_{s,s} = 1, v_{s,s} = 0,

    d/dt u_{t,s} = -4 v_{t,s} B_t~
    d/dt v_{t,s} = -4 u_{t,s} B_t

and satisfies the symplectic relations

    u u* - v v* = 1        u v^t = v u^t
    u* u - v^t v~ = 1      u* v = v^t u~

The inverse pair is (u*, -v^t).  The time-ordered factors multiply on the
right, so over s -> x -> t the pair composes as
u_{t,s} = u_{x,s} u_{t,x} + v_{x,s} v_{t,x}~, which is
compose(m_{x,s}, m_{t,x}), and m_{t,s} = compose(inverse(m_{s,0}), m_{t,0}).

flow.integrate steps (u_{t,0}, v_{t,0}) and int_0^t ||B||_2 together with
the flow, as one state [Omega, B, u, v, I], and a flow.Trajectory is itself
a B-path that answers integrate_uv and path_hs_integral from those carried
columns: exactly at sample times, from the stepper's dense output (or the
frozen-Omega tail's closed form) in between.  Any other path, such as an
explicit function, is integrated along: (u, v) by the stepper, the
integral by Gauss-Kronrod quadrature.

Norm growth is hyperbolic (norm_bounds):

    1 + ||u - 1||_2 <= cosh(4 int_s^t ||B||_2),
    ||v||_2 <= sinh(4 int_s^t ||B||_2).

Every map with ||v||_2 < oo factors through a one-mode squeeze form: with
the singular values lambda_k = sinh(alpha_k) of v and frames g_k, h_k,

    u = sum_k cosh(alpha_k) |g_k><h_k|,   v = sum_k sinh(alpha_k) |g_k><h_k~|,

and u_hat = sum_k |h_k><g_k| = exp(i h) for a hermitian h.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import LogBranch, MapInvalid
from .flow import Controls, check_span
from .opcore import QuadraticSpec, hs_norm
from .stepping import DormandPrince, drive, gauss_kronrod

# Largest symplectic residual of a map that transform_spec and
# decompose_generator accept.
MAP_TOL = 1e-7
# Largest relative squeeze-reconstruction residual of decompose_generator.
DECOMP_TOL = 1e-7
# decompose_generator refuses a uhat with an eigenvalue this close to -1.
BRANCH_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class BogoliubovMap:
    """Pair (u, v) labelled by its time span (s, t).

    A map is a value: u and v are read-only views of the arrays it is given,
    and its symplectic residuals are computed on first read and kept, so
    every check of one map (symplectic_residuals, transform_spec,
    decompose_generator) evaluates them once.
    """

    u: np.ndarray
    v: np.ndarray
    s: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        for name in ("u", "v"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    @functools.cached_property
    def residuals(self) -> dict:
        """The four symplectic residuals (see symplectic_residuals)."""
        return _residuals(self.u, self.v)


def _residuals(u: np.ndarray, v: np.ndarray) -> dict:
    eye = np.eye(u.shape[0])
    return {
        "uu_vv": hs_norm(u @ u.conj().T - v @ v.conj().T - eye),
        "u_u_vv": hs_norm(u.conj().T @ u - v.T @ v.conj() - eye),
        "uv_sym": hs_norm(u @ v.T - v @ u.T),
        "u_v_sym": hs_norm(u.conj().T @ v - v.T @ u.conj()),
    }


def symplectic_residuals(m: BogoliubovMap) -> dict:
    """Hilbert-Schmidt residuals of the four symplectic relations, computed
    once per map (BogoliubovMap.residuals)."""
    return dict(m.residuals)


def _require_valid(m: BogoliubovMap) -> None:
    worst = max(m.residuals.values())
    if worst > MAP_TOL:
        raise MapInvalid(f"symplectic residual {worst:.3e} exceeds {MAP_TOL:.1e}")


def inverse(m: BogoliubovMap) -> BogoliubovMap:
    """Inverse pair (u*, -v^t)."""
    return BogoliubovMap(u=m.u.conj().T.copy(), v=-m.v.T.copy(), s=m.t, t=m.s)


def compose(first: BogoliubovMap, second: BogoliubovMap) -> BogoliubovMap:
    """The product [[u, v], [v~, u~]] of first times second.

    Maps of the flow compose in time order, first: s -> x then
    second: x -> t, into the map s -> t.
    """
    u = first.u @ second.u + first.v @ second.v.conj()
    v = first.u @ second.v + first.v @ second.u.conj()
    return BogoliubovMap(u=u, v=v, s=first.s, t=second.t)


def integrate_uv(bpath, s: float, t: float,
                 controls: Optional[Controls] = None) -> BogoliubovMap:
    """The pair (u_{t,s}, v_{t,s}) along a B-path.

    A path that carries the map (a flow.Trajectory) gives
    compose(inverse(m_s), m_t) from its columns, and m_t itself from its
    start; any other path is integrated with the stepper (the span:
    flow.check_span).
    """
    controls = controls or Controls()
    check_span(bpath, s, t)
    if hasattr(bpath, "map_at"):
        m_t = BogoliubovMap(*bpath.map_at(t), s=s, t=t)
        if t == s:
            return BogoliubovMap(u=np.eye(m_t.dim, dtype=m_t.u.dtype),
                                 v=np.zeros_like(m_t.v), s=s, t=t)
        if s <= bpath.t0:
            return m_t
        return compose(inverse(BogoliubovMap(*bpath.map_at(s), s=bpath.t0, t=s)), m_t)
    n = np.shape(bpath(s))[0]  # path dimension probed once
    if t == s:
        return BogoliubovMap(u=np.eye(n, dtype=complex), v=np.zeros((n, n), complex), s=s, t=t)

    def fun(tau, uv, out):
        b = bpath(tau)
        u, v = uv
        np.matmul(v, b.conj(), out=out[0])
        np.matmul(u, b, out=out[1])
        out *= -4.0  # du = -4 v B~, dv = -4 u B

    uv0 = np.stack((np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex)))
    u, v = drive(DormandPrince(fun, s, uv0, t, controls.tol, controls.tol)).state
    return BogoliubovMap(u=u, v=v, s=s, t=t)


def path_hs_integral(bpath, s: float, t: float) -> float:
    """int_s^t ||B_tau||_2 dtau along a path.

    A path that carries the integral (a flow.Trajectory) gives the
    difference of its column at t and s.  Any other path is sampled node by
    node for Gauss-Kronrod quadrature on [s, t], without breakpoints (the
    span: flow.check_span).
    """
    check_span(bpath, s, t)
    if s == t:
        return 0.0
    if hasattr(bpath, "int_b_at"):
        return bpath.int_b_at(t) - bpath.int_b_at(s)
    value, _ = gauss_kronrod(lambda taus: [float(np.linalg.norm(bpath(tau))) for tau in taus],
                             s, t)
    return float(value)


def norm_bounds(m: BogoliubovMap, int_b: float) -> tuple:
    """Hyperbolic growth bounds in terms of int_b = int_s^t ||B||_2 dtau.

    Returns (holds1, holds2) for 1 + ||u - 1|| <= cosh(4 int_b) and
    ||v|| <= sinh(4 int_b), each checked with slack 1e-10 so equality
    cases (the trivial map at int_b = 0) pass.
    """
    tol = 1e-10
    lhs_u = 1.0 + hs_norm(m.u - np.eye(m.dim))
    rhs_u = float(np.cosh(4.0 * int_b))
    lhs_v = hs_norm(m.v)
    rhs_v = float(np.sinh(4.0 * int_b))
    return (bool(lhs_u <= rhs_u + tol * max(1.0, rhs_u)),
            bool(lhs_v <= rhs_v + tol * max(1.0, rhs_v)))


def transform_spec(m: BogoliubovMap, spec: QuadraticSpec) -> QuadraticSpec:
    """Coefficients of the Hamiltonian conjugated by the map.

    Substituting the transformed modes into the normal-ordered quadratic form
    and re-normal-ordering gives

        Omega' = u* Omega u + v^t Omega^t v~ + 2 u* B v~ + 2 v^t B~ u
        B'     = sym(u* Omega v + u* B u~ + v^t B~ v)
        C'     = C + Re tr(v* Omega v) + 2 Re tr(v* B u~)

    The scalar shift produced here is what fixes the sign convention of the
    flow's C equation (see flow.SCALAR_SIGN).  A map with a symplectic
    residual above MAP_TOL raises MapInvalid.
    """
    _require_valid(m)
    if m.dim != spec.dim:
        raise ValueError("map and spec dimensions differ")
    u, v = m.u, m.v
    om, b = spec.omega, spec.b
    ustar = u.conj().T
    vt = v.T
    omega_new = (ustar @ om @ u + vt @ om.T @ v.conj()
                 + 2.0 * ustar @ b @ v.conj() + 2.0 * vt @ b.conj() @ u)
    omega_new = (omega_new + omega_new.conj().T) / 2
    b_new = ustar @ om @ v + ustar @ b @ u.conj() + vt @ b.conj() @ v
    b_new = (b_new + b_new.T) / 2
    c_shift = (np.trace(v.conj().T @ om @ v).real
               + 2.0 * np.trace(v.conj().T @ b @ u.conj()).real)
    return QuadraticSpec.from_matrices(
        omega_new, b_new, c0=spec.c0 + float(c_shift),
        label=(spec.label + "-transformed") if spec.label else "transformed",
        sym_tol=np.inf)


@dataclass
class GeneratorDecomposition:
    """Squeeze factorization of a map: frames, angles and the rotation log."""

    alphas: np.ndarray          # squeeze parameters, descending
    g_frame: np.ndarray         # columns g_k
    h_frame: np.ndarray         # columns h_k
    uhat: np.ndarray            # sum_k |h_k><g_k|, unitary
    h_matrix: np.ndarray        # hermitian log of uhat: uhat = exp(i h)
    residuals: dict = field(default_factory=dict)


def _unitary_eig(x: np.ndarray) -> tuple:
    """Eigen-angles theta and orthonormal eigenvectors Q of a unitary x,
    x = Q diag(exp(i theta)) Q*.

    The spectrum is first turned so that the middle of a widest gap sits at
    -1, y = exp(i phi) x; then the Cayley transform i (1 - y) (1 + y)^-1
    is hermitian with eigenvalues tan(theta'/2) and eigh gives both factors
    (Higham, *Functions of Matrices*, 2008, ch. 1 and 11).  The turn is
    placed from the 2n candidate angles +-arccos(c_k), c_k the eigenvalues
    of the hermitian part (x + x*)/2, which are the cosines of the
    eigen-angles: the candidates hold every eigen-angle, so the middle of
    their widest gap holds none, and eigvalsh's accuracy is plenty to place
    it.  The turn keeps 1 + y at least 2 sin(pi / 4n) from singular:
    unturned, an eigenvalue within delta of -1 costs eps / delta of
    accuracy, and an exact -1, which a real gauge matrix with negative
    directions has, breaks the transform.  theta = 2 arctan(t) - phi lies
    on the branch whose cut is that gap, so no cluster of eigenvalues
    straddles the cut; wrap it into (-pi, pi] for the principal log.
    """
    half = np.arccos(np.clip(np.linalg.eigvalsh((x + x.conj().T) / 2), -1.0, 1.0))
    ang = np.sort(np.concatenate((-half, half)))
    gaps = np.diff(ang, append=ang[0] + 2.0 * np.pi)
    k = int(np.argmax(gaps))
    phi = np.pi - (ang[k] + gaps[k] / 2.0)
    y = np.exp(1j * phi) * x
    eye = np.eye(x.shape[0])
    cayley = 1j * np.linalg.solve(eye + y, eye - y)
    t, q = np.linalg.eigh((cayley + cayley.conj().T) / 2)
    return 2.0 * np.arctan(t) - phi, q


def _takagi_symmetric(mat: np.ndarray) -> tuple:
    """Factor a complex symmetric matrix as Y diag(s) Y^t with Y unitary.

    Route: SVD mat = A S B*; then Z = A* B~ is unitary, block diagonal
    over distinct singular values and symmetric on the nonzero blocks, so
    any square root W of Z that is a function of Z (here exp(i theta / 2)
    on _unitary_eig's angles, whose branch cut avoids every eigenvalue,
    -1 included) satisfies A W S (A W)^t = mat.  This keeps the left/right
    pairing intact through repeated singular values, where plain SVD frames
    are only determined up to a block rotation.
    """
    a, sig, bh = np.linalg.svd(mat)
    z = a.conj().T @ bh.T
    theta, q = _unitary_eig(z)
    w = (q * np.exp(0.5j * theta)) @ q.conj().T
    y = a @ w
    return y, sig


def decompose_generator(m: BogoliubovMap) -> GeneratorDecomposition:
    """Factor a valid map into squeeze angles and two orthonormal frames.

    The singular values of u are cosh(alpha_k) and those of v are
    sinh(alpha_k), but the two SVDs cannot be taken independently: inside a
    degenerate singular block the frames must be gauged jointly or the
    reconstruction u = sum cosh(alpha_k)|g_k><h_k| breaks.  With the SVD
    u = G0 D K0* the matrix G0* v K0~ is symmetric for any valid map; its
    Takagi factorization Y diag(lambda) Y^t fixes the shared gauge, and
    g_k, h_k are the columns of G0 Y and K0 Y.  uhat = K0 Y Y* G0* = K0 G0*
    does not depend on Y, so neither the alphas nor h_matrix depend on which
    square root the Takagi step takes.  h_matrix is the principal log,
    uhat = exp(i h_matrix) with eigenvalues of h_matrix in (-pi, pi], built
    from _unitary_eig's angles and vectors; residuals["exp_check"] is
    ||exp(i h_matrix) - uhat||_2 with the exponential taken from
    eigh(h_matrix).  Raises MapInvalid when the symplectic relations
    (MAP_TOL) or the reconstruction (DECOMP_TOL) fail, LogBranch when uhat
    has an eigenvalue at -1 within BRANCH_TOL (the principal log is then
    ambiguous), tested on the eigen-angles the log is built from.
    """
    _require_valid(m)
    u, v = m.u, m.v
    n = m.dim
    g0, cosh_a, k0h = np.linalg.svd(u)
    k0 = k0h.conj().T
    mid = g0.conj().T @ v @ k0.conj()
    sym_defect = hs_norm(mid - mid.T)
    if sym_defect > MAP_TOL * max(1.0, hs_norm(v)):
        raise MapInvalid(f"gauge matrix asymmetry {sym_defect:.3e}; map is not symplectic")
    y, lam = _takagi_symmetric((mid + mid.T) / 2)
    g = g0 @ y
    h = k0 @ y
    # frames must come out orthonormal; defects feed the residual report
    g_defect = hs_norm(g.conj().T @ g - np.eye(n))
    h_defect = hs_norm(h.conj().T @ h - np.eye(n))
    uhat = h @ g.conj().T
    theta, q = _unitary_eig(uhat)
    theta = np.pi - np.mod(np.pi - theta, 2.0 * np.pi)
    if np.any(np.abs(np.exp(1j * theta) + 1.0) < BRANCH_TOL):
        raise LogBranch("uhat has an eigenvalue at -1; hermitian log branch ambiguous")
    h_matrix = (q * theta) @ q.conj().T
    h_matrix = (h_matrix + h_matrix.conj().T) / 2
    w, p = np.linalg.eigh(h_matrix)
    exp_check = hs_norm((p * np.exp(1j * w)) @ p.conj().T - uhat)

    u_rec = (g * cosh_a[np.newaxis, :]) @ h.conj().T
    v_rec = (g * lam[np.newaxis, :]) @ h.T
    u_res = hs_norm(u_rec - u)
    v_res = hs_norm(v_rec - v)
    scale = max(1.0, hs_norm(v))
    if v_res > DECOMP_TOL * scale or u_res > DECOMP_TOL * max(1.0, hs_norm(u)):
        raise MapInvalid(
            f"squeeze reconstruction failed: |du| = {u_res:.3e}, |dv| = {v_res:.3e}")
    return GeneratorDecomposition(
        alphas=np.arcsinh(lam),
        g_frame=g, h_frame=h, uhat=uhat, h_matrix=h_matrix,
        residuals={"u_recon": u_res, "v_recon": v_res,
                   "g_frame": g_defect, "h_frame": h_defect,
                   "exp_check": exp_check})
