"""Oracles of the flow that no command runs: the Dyson series of the (u, v)
map, which AC-6 compares with the carried map, the t^-alpha envelope of
||Omega_t^alpha B_t||_2, which AC-10 checks, the product-then-scale
right-hand side that flow._CarriedRhs must equal entry for entry, B-paths
given by an explicit function (FunctionBPath), and PSD square roots and
powers by eigendecomposition, which AC-5's limit matrix uses.
"""

import functools
import math

import numpy as np

from bwflow.bogoliubov import BogoliubovMap
from bwflow.errors import NotPSD
from bwflow.flow import check_span, path_time
from bwflow.opcore import OneParticleOperator, as_matrix, hs_norm, hs_scale

# Relative tolerance of psd_sqrt's PSD check, scaled by ||M||_2 floored at 1.
PSD_TOL = 1e-10

class CarriedRhsReference:
    """d/dt [Omega, B, u, v, I] in the product-then-scale form.

    Omega B, B B~, u B and v B~ come from one batched matmul of
    [Omega, B, u, v] with [B, B~, B, B~] into a product stack, and one vdot
    gives ||B||_2^2 for dI.  -16 B B~ and -2 (Omega B + B Omega^t)
    are written as M + M* and M + M^t, the second using B = B^t.
    """

    def __init__(self, n: int, dtype):
        self.n = n
        self.dtype = dtype
        self._rights, self._products = np.empty((2, 4, n, n), dtype=dtype)

    def __call__(self, t, y, out=None):
        n = self.n
        mats = y[:-1].reshape(4, n, n)
        b, rights, p = mats[1], self._rights, self._products
        rights[0::2] = b
        np.conjugate(b, out=rights[1::2])
        np.matmul(mats, rights, out=p)  # Omega B, B B~, u B, v B~
        if out is None:
            out = np.empty(4 * n * n + 1, dtype=self.dtype)
        d = out[:-1].reshape(4, n, n)
        np.add(p[1], p[1].conj().T, out=d[0])
        d[0] *= -8.0
        np.add(p[0], p[0].T, out=d[1])
        d[1] *= -2.0
        np.multiply(p[3:1:-1], -4.0, out=d[2:])  # du = -4 v B~, dv = -4 u B
        out[-1] = math.sqrt(np.vdot(b, b).real)
        return out


class FunctionBPath:
    """Wrap an explicit function t -> B matrix, called only inside [t0, t1],
    as a B-path on [t0, t1] (see flow.check_span).

    Its samples are complex128, so fock.propagate steps it in complex
    arithmetic even where the function is real."""

    def __init__(self, fn, t0: float, t1: float):
        self._fn = fn
        self.t0 = float(t0)
        self.t1 = float(t1)

    def __call__(self, t: float) -> np.ndarray:
        return np.asarray(self._fn(path_time(self, t)), dtype=complex)


# Grid points of dyson_uv's cumulative integrals.
DYSON_NODES = 513
# Relative slack of asymptotic_bound_check's comparison.
BOUND_SLACK = 1e-9


@functools.cache
def _spline_integrals(nodes: int) -> np.ndarray:
    """Row i takes samples at unit spacing to the integral from node 0 to
    node i of their not-a-knot cubic spline (de Boor, *A Practical Guide to
    Splines*, ch. IV): panel j adds (y_j + y_{j+1}) / 2 - (M_j + M_{j+1}) / 24,
    the second derivatives M solving M_{i-1} + 4 M_i + M_{i+1} = 6 (y_{i-1}
    - 2 y_i + y_{i+1}) inside and M_0 - 2 M_1 + M_2 = 0 at both ends."""
    eye, zero = np.eye(nodes), np.zeros((1, nodes))
    second = eye[:-2] - 2.0 * eye[1:-1] + eye[2:]
    per_node = 0.5 * eye - np.linalg.solve(
        np.vstack((second[:1], second + 6.0 * eye[1:-1], second[-1:])),
        np.vstack((zero, 6.0 * second, zero))) / 24.0
    lmat = np.vstack((zero, np.cumsum(per_node[:-1] + per_node[1:], axis=0)))
    lmat.flags.writeable = False  # the cache hands this one matrix to every caller
    return lmat


def dyson_uv(bpath, s: float, t: float, order: int) -> tuple:
    """Truncated iterated-integral series for (u, v), as (map, tails).

    Runs `order` rounds of the integral map

        u <- 1 - 4 int_s^x v B~,   v <- -4 int_s^x u B,

    each round extending the kept series order by one (even orders live in
    u, odd in v).  Cumulative integrals are those of the not-a-knot cubic
    spline through the samples on a uniform grid of DYSON_NODES points,
    taken with _spline_integrals' matrix (the span: flow.check_span).
    tails bounds the truncation error of u and v ("u_tail_bound",
    "v_tail_bound"); it is empty at order 0 and on an empty span.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    check_span(bpath, s, t)
    n = np.shape(bpath(s))[0]
    if t == s or order == 0:
        return BogoliubovMap(u=np.eye(n, dtype=complex), v=np.zeros((n, n), complex),
                             s=s, t=t), {}
    m = DYSON_NODES - 1  # panels
    xs = np.linspace(s, t, m + 1)
    bs = np.stack([np.asarray(bpath(x), dtype=complex) for x in xs])
    h, lmat = (t - s) / m, _spline_integrals(DYSON_NODES)
    eye = np.broadcast_to(np.eye(n, dtype=complex), (m + 1, n, n))
    u, v = eye, np.zeros((m + 1, n, n), dtype=complex)
    for _ in range(order):
        # the running integrals of u B and v B~ from s, as one real product
        integrands = np.stack((u @ bs, v @ bs.conj()), axis=1).reshape(m + 1, -1).view(float)
        both = (h * (lmat @ integrands)).view(complex).reshape(m + 1, 2, n, n)
        u, v = eye - 4.0 * both[:, 1], -4.0 * both[:, 0]

    # dropped-tail estimate: the series is dominated term by term by the
    # cosh/sinh expansions in x = 4 int ||B||, so the remainder past the
    # kept order bounds the truncation error
    x = 4.0 * float(np.trapezoid([hs_norm(b) for b in bs], xs))
    kept_u = sum(x ** k / math.factorial(k) for k in range(0, order + 1, 2))
    kept_v = sum(x ** k / math.factorial(k) for k in range(1, order + 1, 2))
    tails = {"u_tail_bound": float(max(np.cosh(x) - kept_u, 0.0)),
             "v_tail_bound": float(max(np.sinh(x) - kept_v, 0.0))}
    return BogoliubovMap(u=u[-1], v=v[-1], s=s, t=t), tails


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
        raise ValueError("alpha must be nonnegative; use a sandwich for inverses")
    m = as_matrix(x)
    m = (m + m.conj().T) / 2
    vals, vecs = np.linalg.eigh(m)
    vals = np.clip(vals, 0.0, None)
    r = (vecs * vals**alpha) @ vecs.conj().T
    return (r + r.conj().T) / 2


def asymptotic_bound_check(state, spec, alpha: float, n_iter: int) -> dict:
    """Check ||Omega_t^alpha B_t||_2 of a flow.FlowState against the
    t^{-alpha} envelope of its spec.

    The bound, valid for any alpha > 0 and integer n_iter >= 1 at t > 0, is

        ||Omega_t^a B_t||_2 <= (2^{n-1} a / (e t))^a
                               * ||B_0||_2^{2^{-n}} * ||B_t||_2^{1 - 2^{-n}}.
    """
    if state.t <= 0:
        raise ValueError("the bound needs t > 0")
    if alpha <= 0 or n_iter < 1:
        raise ValueError("alpha > 0 and n_iter >= 1 required")
    oma = psd_power(state.omega, alpha)
    lhs = hs_norm(oma @ state.b)
    hsb0 = hs_norm(spec.b)
    hsbt = state.hs_b
    w = 2.0 ** (-n_iter)
    rhs_val = ((2.0 ** (n_iter - 1) * alpha / (np.e * state.t)) ** alpha
               * hsb0 ** w * hsbt ** (1.0 - w))
    return {"lhs": lhs, "rhs": rhs_val,
            "holds": bool(lhs <= rhs_val * (1.0 + BOUND_SLACK) + 1e-300)}
