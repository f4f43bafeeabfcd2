"""Integration of the double-bracket flow on (Omega, B, C).

The flow is the coupled matrix ODE

    d/dt Omega_t = -16 B_t B_t~
    d/dt B_t     = -2 (Omega_t B_t + B_t Omega_t^t)
    d/dt C_t     = SCALAR_SIGN * 8 ||B_t||_2^2

with Omega hermitian PSD and B symmetric.  The scalar sign is a module
constant: the default -1 is the convention under which the truncated Fock
oracle confirms H_t = U_{t,0} H_0 U_{t,0}^* including the scalar term (see
fock.conjugation_residual); the opposite convention +1 can be selected per
run and is printed alongside the default by the fock-verify command.

Since tr(B B~) = ||B||_2^2, dC/dt = -SCALAR_SIGN tr(dOmega/dt) / 2, and C is a
read-out of Omega: 2 (C_t - c0) = SCALAR_SIGN * tr(Omega_0 - Omega_t).  An
explicit Runge-Kutta method keeps such a linear invariant to rounding
(Hairer, Lubich & Wanner, Geometric Numerical Integration, section IV.1),
so a stepped C would only repeat the read-out, while its slot in the error
norm would let c0 and the sign move the steps of everything else.
scalar_c is therefore the one place a C of the flow is computed, and the
sign is a choice of read-out, not of integration.

The integrator steps one state [Omega, B, u, v, I]: with the flow it
carries the Bogoliubov pair (u_t, v_t) = (u_{t,0}, v_{t,0}) that the flow
generates (see bogoliubov) and I_t = int_0^t ||B||_2,

    d/dt u_t = -4 v_t B_t~,   d/dt v_t = -4 u_t B_t,   d/dt I_t = ||B_t||_2,

from u_0 = 1, v_0 = 0, I_0 = 0.  One error control then covers the limit,
the diagonalizing map and the integral in the map's norm bounds, and every
sample holds all of them.  These five equations are written once, in
_CarriedRhs, which forms their four matrix products as one stacked matmul
of [-2 Omega, -8 B~, -4 u, -4 v~] with B.  Every stepped sample also keeps
the derivative of its state vector, the stepper's last stage of the step
(FSAL), and the step size the stepper proposed there, so the step to the
next sample can be re-run bit for bit.  Between samples the trajectory is
the stepper's own dense output (DOP853's seventh-order continuous
extension; Hairer, Norsett & Wanner, Solving ODEs I, section II.6), built
on first use, and on the frozen-Omega tail (below) the tail's closed form;
the trajectory is itself the B-path of the flow.  The dense output of an
interval is re-run from its left sample when first needed; the integration
builds none, and decay_fit needs none, as it reads each sample's slope of
log ||B|| from its derivative.  Diagnostics are columns over the samples,
computed on first read.

For a real spec (QuadraticSpec.is_real: every imaginary part of Omega and
B exactly 0.0, with no tolerance) the flow keeps Omega, B, u and v real, so
the state is stepped as float64 rather than complex128.  The stepper's
error norm is an RMS over the real components of the state, and on a
complex state of M entries the M imaginary parts of a real flow are exactly
zero: they add nothing to the sum but count in the 2M of the mean.  Stepping
the M real parts with rtol = atol = sqrt(2) tol is therefore the same error
criterion (and the same initial-step estimate) as stepping the complex
state with tol, not a looser one.

Monitored identities along the flow:

* ||B_t||_2 is nonincreasing and Omega_t <= Omega_0;
* Omega_t^2 - 8 B_t B_t~ >= Omega_0^2 - 8 B_0 B_0~;
* tr(Omega_t^2 - 4 B_t B_t~) is a constant of motion;
* K_t = Omega_t B_t - B_t Omega_t^t vanishes for all t if it vanishes at 0,
  and then the full matrix Omega_t^2 - 4 B_t B_t~ is invariant;
* if ||B_t||_2 leaves every bound, it can only do so in finite time; the
  guaranteed blow-up-free horizon is T_0 = 1/(128 ||B_0||_2).

Under a spectral gap B_t decays exponentially, and once ||B_t||_2 sits at
the noise floor of the stepper the rest of the flow is, to within
the tolerance, the frozen-Omega decay B -> e^{-2 tau Omega} B e^{-2 tau Omega^t}
(an exponential-integrator step; Hochbruck & Ostermann, Acta Numerica 19,
2010).  The adaptive pair therefore hands over to that closed form at the
first accepted step with ||B_t||_2 < TAIL_FACTOR * tol whose Omega drift
over the remaining span is at most tol * max(1, ||Omega_t||_2), and no
longer steps to t_end at its explicit-stability limit.  The guard keeps a
tiny B on a near-zero Omega, whose true flow still grows, on the adaptive
path, and so does an Omega with a negative eigenvalue.  The tail moves
(u, v) by the first-order update with the closed-form int B and I by
quadrature of the closed-form ||B||; a second guard keeps the dropped
terms, at most about 8 I^2 (||u|| + ||v||) over the span, within tol.
"""

from __future__ import annotations

import bisect
import math
import sys
import time
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import BlowupDetected, NotConverged, InsufficientData, NotPSD, PathGap, \
    StepSizeUnderflow
from .opcore import QuadraticSpec, hs_norm, hs_scale, min_eig_hermitian
from .stepping import DormandPrince, drive, gauss_kronrod

# Sign of the scalar-coefficient rate dC/dt = SCALAR_SIGN * 8 ||B||_2^2.
SCALAR_SIGN = -1.0
# A trajectory keeps at most this many samples, thinning by stride doubling.
MAX_SAMPLES = 10000
# The blow-up guard fires when ||B_t||_2 exceeds BLOWUP_FACTOR * ||B_0||_2.
BLOWUP_FACTOR = 1e3
# The adaptive pair may hand over to the frozen-Omega tail once ||B_t||_2
# falls below TAIL_FACTOR * tol (see frozen_tail).
TAIL_FACTOR = 100.0
# Without an explicit window, decay_fit uses the samples with ||B_t||_2
# between these fractions of ||B_0||_2.
DECAY_FIT_FRACS = (1e-7, 1e-2)
# integrate gives up, with NotConverged, once its stepper has made more
# trial steps than this (see integrate).
MAX_ATTEMPTS = 50_000
# A B-path answers times this far outside its window [t0, t1] (see check_span).
PATH_SLACK = 1e-9
# Columns of the trajectory CSV, one row per sample (see write_csv_rows).
CSV_HEADER = "t,hsB,c,minEigOmega,motionResidual,kNorm"


class Controls:
    """Integrator configuration; the class attributes are the defaults."""

    tol = 1e-10
    method = "rk"  # the only method; any other value is a ValueError
    conv_tol = 1e-8

    def __init__(self, tol: float = tol, method: str = method, conv_tol: float = conv_tol):
        self.tol = tol
        self.method = method
        self.conv_tol = conv_tol


class FlowState:
    """Flow variables at one time.

    The samples of a trajectory also carry the map (u, v) = (u_{t,0},
    v_{t,0}) and int_b = int_0^t ||B||_2, and dy, the derivative of
    [Omega, B, u, v, I] there (see _CarriedRhs); dy is None off the
    samples.  A stepped sample also keeps h, the size of the next step the
    stepper proposed there (see Trajectory); h is None on the other states.
    The c of a sample or of Trajectory.state_at is scalar_c of its Omega.
    """

    def __init__(self, t: float, omega: np.ndarray, b: np.ndarray, c: float,
                 u: Optional[np.ndarray] = None, v: Optional[np.ndarray] = None,
                 int_b: Optional[float] = None, dy: Optional[np.ndarray] = None,
                 h: Optional[float] = None):
        self.t = t
        self.omega = omega
        self.b = b
        self.c = c
        self.u = u
        self.v = v
        self.int_b = int_b
        self.dy = dy
        self.h = h

    @property
    def hs_b(self) -> float:
        """||B||_2: on a sample the dI/dt = ||B||_2 that dy holds, otherwise
        the norm of b."""
        if self.dy is not None:
            return float(self.dy[-1].real)
        return float(np.linalg.norm(self.b))


class FlowDiagnostics:
    """The diagnostics of one sample; __slots__ names them in order, and
    each is a column of Trajectory.column."""

    __slots__ = (
        "hs_b", "c", "min_eig_omega",
        "motion_residual",         # |tr(Omega^2 - 4 B B~) - initial|
        "k_norm",                  # ||Omega B - B Omega^t||_2
        "matrix_motion_residual",  # ||(Omega^2 - 4 B B~) - initial||_2
        "omega_decrease_margin",   # min eig (Omega_0 - Omega_t)
        "square_mono_margin",      # min eig ((Om_t^2 - 8 BB~) - (Om_0^2 - 8 B0B0~))
    )

    def __init__(self, hs_b: float, c: float, min_eig_omega: float, motion_residual: float,
                 k_norm: float, matrix_motion_residual: float, omega_decrease_margin: float,
                 square_mono_margin: float):
        self.hs_b = hs_b
        self.c = c
        self.min_eig_omega = min_eig_omega
        self.motion_residual = motion_residual
        self.k_norm = k_norm
        self.matrix_motion_residual = matrix_motion_residual
        self.omega_decrease_margin = omega_decrease_margin
        self.square_mono_margin = square_mono_margin


class FlowEvent:
    def __init__(self, kind: str, t: float, hs_b: float, message: str,
                 t0_lower_bound: float = 0.0):
        self.kind = kind  # "blowup" or "underflow"
        self.t = t
        self.hs_b = hs_b
        self.message = message
        self.t0_lower_bound = t0_lower_bound


def t0_horizon(hs_b0: float) -> float:
    """Guaranteed blow-up-free horizon T_0 = 1/(128 ||B_0||_2)."""
    if hs_b0 <= 0:
        return np.inf
    return 1.0 / (128.0 * hs_b0)


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """||X||_2^2 of a matrix, or of each matrix along the leading axes."""
    return np.sum(x.real ** 2 + x.imag ** 2, axis=(-2, -1))


class _CarriedRhs:
    """d/dt [Omega, B, u, v, I], written into one output array; the only
    place the flow and carried-map equations are written.

    One stacked matmul of the left stack [-2 Omega, -8 B~, -4 u, -4 v~]
    with B gives the products P_0..P_3, and one vdot gives ||B||_2^2 for dI:

        dOmega = conj(P_1) + P_1^t,   dB = P_0 + P_0^t,
        du = conj(P_3),               dv = P_2.

    Each entry is the value of the product-then-scale form
    dOmega = -8 (B B~ + (B B~)*), dB = -2 (Omega B + (Omega B)^t),
    du = -4 v B~, dv = -4 u B, exactly:

    * a power-of-two factor commutes with rounding, so scaling a factor of
      a product scales the computed product by the same factor, exactly
      while every partial product stays in the normal float range;
    * rounding is sign-symmetric, so the conjugate of a computed product is
      the computed product of the conjugates: conj(B~ B) is B B~ and
      conj(v~ B) is v B~, bit for bit.

    Only the sign of an exact zero can differ from that form.  The left
    stack comes from one product of the state's float view with a fixed
    multiplier, whose entries on the B and v blocks flip the sign of the
    imaginary parts, so the scaling and the two conjugations are one pass.
    dOmega = M + M* and dB = M + M^t, the second using B = B^t, so their
    entries pair up exactly, and the stepper's real-coefficient stage sums
    keep Omega hermitian and B symmetric to the last bit.

    A call writes the derivative into out, a stage row of the stepper or
    its fresh FSAL array, and returns it.  The scratch stacks and their
    views are made once per instance, so a call allocates only when out is
    None: then it returns a new array, as for rhs and for a trajectory's
    first and tail samples.

    dtype is that of the state: complex, or float for a real spec.  On a
    real state the same lines do real arithmetic, since conjugation is then
    the identity.
    """

    def __init__(self, n: int, dtype):
        self.n = n
        self.dtype = dtype
        self._b = slice(n * n, 2 * n * n)
        width = np.dtype(dtype).itemsize // 8  # float64 entries per entry
        # the multiplier of the state's float view: -2, -8, -4, -4 per block
        # (1 on I, which no product reads), and on a complex state -8 - 8i and
        # -4 - 4i conjugated on the B and v blocks, so that their imaginary
        # parts change sign
        self._scale = np.repeat([-2.0, -8.0, -4.0, -4.0, 1.0], [n * n * width] * 4 + [width])
        blocks = self._scale.view(dtype)[:-1].reshape(4, n, n)
        np.conjugate(blocks[1::2], out=blocks[1::2])
        left = np.empty(4 * n * n + 1, dtype=dtype)
        self._left_flat, self._left = left.view(float), left[:-1].reshape(4, n, n)
        p = self._products = np.empty((4, n, n), dtype=dtype)
        self._p0, self._p0_t, self._p1, self._p1_t, self._p2, self._p3 = \
            p[0], p[0].T, p[1], p[1].T, p[2], p[3]
        self._p1_conj = np.empty((n, n), dtype=dtype)

    def __call__(self, t, y, out=None):
        n = self.n
        np.multiply(y.view(float), self._scale, out=self._left_flat)
        b = y[self._b].reshape(n, n)
        np.matmul(self._left, b, out=self._products)
        if out is None:
            out = np.empty(4 * n * n + 1, dtype=self.dtype)
        d_omega, d_b, d_u, d_v = out[:-1].reshape(4, n, n)
        # each transposed term is copied in first: a ufunc with a transposed
        # operand would buffer it, allocating up to n^2 entries per call
        np.copyto(d_omega, self._p1_t)
        np.conjugate(self._p1, out=self._p1_conj)
        d_omega += self._p1_conj
        np.copyto(d_b, self._p0_t)
        d_b += self._p0
        np.conjugate(self._p3, out=d_u)
        np.copyto(d_v, self._p2)
        out[-1] = math.sqrt(np.vdot(b, b).real)
        return out


def scalar_c(c0: float, omega0: np.ndarray, omega: np.ndarray,
             scalar_sign: float = SCALAR_SIGN) -> float:
    """C = c0 + scalar_sign * tr(Omega_0 - Omega) / 2, the scalar coefficient
    of the flow from Omega_0 = omega0 with C_0 = c0 (see the module
    docstring): every C of the flow is computed here."""
    return c0 + scalar_sign * float((omega0.diagonal() - omega.diagonal()).sum().real) / 2


def _carried(spec: QuadraticSpec, controls: Controls) -> tuple:
    """The stepped system of the flow from spec: its _CarriedRhs, float for
    a real spec and complex otherwise, and the stepper's rtol = atol, sqrt(2)
    tol for a real spec and tol otherwise (see integrate)."""
    if spec.is_real:
        return _CarriedRhs(spec.dim, float), math.sqrt(2.0) * controls.tol
    return _CarriedRhs(spec.dim, complex), controls.tol


def _pack(omega, b, u, v, int_b: float) -> np.ndarray:
    """The integrator's state: one vector [Omega, B, u, v, I], real for a
    real spec and complex otherwise."""
    return np.concatenate([omega.ravel(), b.ravel(), u.ravel(), v.ravel(), [int_b]])


def _vector(state: FlowState) -> np.ndarray:
    """The state vector of a FlowState that carries the map (see _pack)."""
    return _pack(state.omega, state.b, state.u, state.v, state.int_b)


def _state(t: float, y: np.ndarray, spec: QuadraticSpec, scalar_sign: float,
           dy: Optional[np.ndarray] = None, h: Optional[float] = None) -> FlowState:
    """The FlowState of a state vector of the flow from spec: its matrices
    are views into y, and its c is scalar_c of its Omega."""
    n = spec.dim
    omega, b, u, v = y[:-1].reshape(4, n, n)
    return FlowState(float(t), omega, b, scalar_c(spec.c0, spec.omega, omega, scalar_sign),
                     u, v, float(y[-1].real), dy, h)


def rhs(state: FlowState, scalar_sign: float = SCALAR_SIGN):
    """Right-hand side (dOmega, dB, dC) at a state: the flow's part of
    _CarriedRhs, evaluated with the map at u = 1, v = 0, and dC the rate of
    scalar_c, which is affine in Omega."""
    n = state.omega.shape[0]
    y = _pack(state.omega, state.b, np.eye(n, dtype=complex), np.zeros((n, n), complex), 0.0)
    dy = _CarriedRhs(n, complex)(state.t, y)
    domega, db = dy[:2 * n * n].reshape(2, n, n)
    return domega, db, scalar_c(0.0, np.zeros_like(domega), domega, scalar_sign)


def blowup_guard(state: FlowState, hs_b0: float) -> Optional[FlowEvent]:
    """Return a blow-up event when ||B_t||_2 crosses BLOWUP_FACTOR * ||B_0||_2."""
    hsb = state.hs_b
    threshold = BLOWUP_FACTOR * hs_b0
    if hs_b0 > 0 and hsb > threshold:
        t0 = t0_horizon(hs_b0)
        return FlowEvent(
            kind="blowup", t=state.t, hs_b=hsb,
            message=(f"||B_t||_2 = {hsb:.6g} exceeded {BLOWUP_FACTOR:g} x "
                     f"||B_0||_2 at t = {state.t:.9g} "
                     f"(T_max estimate >= {state.t:.9g}, guaranteed horizon T_0 = {t0:.9g})"),
            t0_lower_bound=t0)
    return None


class _Recorder:
    """Keeps up to MAX_SAMPLES states, thinning by stride doubling."""

    def __init__(self):
        self.stride = 1
        self.count = 0
        self.samples = []  # list[FlowState]
        self.pinned = None  # the hand-over to the frozen tail, never thinned out

    def offer(self, state: FlowState, force: bool = False, pin: bool = False):
        if pin:
            self.pinned = state
        take = force or (self.count % self.stride == 0)
        self.count += 1
        if not take:
            return
        self.samples.append(state)
        if len(self.samples) > MAX_SAMPLES:
            # keep every second sample, but never drop the first, the newest
            # or the pinned one
            last = len(self.samples) - 1
            self.samples = [s for k, s in enumerate(self.samples)
                            if k % 2 == 0 or k == last or s is self.pinned]
            self.stride *= 2


def frozen_omega_b(w: np.ndarray, v: np.ndarray, b: np.ndarray, tau: float) -> np.ndarray:
    """e^{-2 tau Omega} B e^{-2 tau Omega^t} for Omega = v diag(w) v*.

    This is the exact B-flow over a time tau with Omega held fixed.
    """
    with np.errstate(over="ignore"):  # tau w past the float range: e^-inf = 0
        e = (v * np.exp(-2.0 * tau * w)) @ v.conj().T  # exp(-2 tau Omega)
    return e @ b @ e.T


def _phi(a: np.ndarray, tau: float) -> np.ndarray:
    """int_0^tau e^{-a s} ds elementwise: -expm1(-a tau) / a, and tau at a = 0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = -np.expm1(-a * tau) / a
    return np.where(a == 0, tau, out)


class FrozenTail:
    """The flow continued from a state with Omega frozen at its value there.

    With Omega = V diag(w) V*, B~ = V* B V-bar decays entrywise as
    e^{-2 (w_i + w_j) tau}, so int_0^tau ||B||_2^2 is
    sum_ij |B~_ij|^2 phi(4 (w_i + w_j), tau) in closed form.  Omega picks up
    the eigenbasis-diagonal part of -16 int B B~, which has the trace of
    -16 int B B~, so the read-out C of a tail state (scalar_c) is the flow's
    to rounding.  Every Omega and B it returns is exactly hermitian/symmetric.

    The carried map takes the first-order update u - 4 v (int B)~,
    v - 4 u int B with int_0^tau B = V (B~ o phi(2 (w_i + w_j), tau)) V^t,
    and int_b the quadrature of ||B||_2 = (x^t |B~|^2 x)^{1/2},
    x_i = e^{-4 w_i tau}, to an absolute error of 1e-3 tol.
    """

    def __init__(self, state: FlowState, tol: float = Controls.tol):
        self.state = state
        self.tol = tol
        self.w, self.v = np.linalg.eigh(state.omega)
        self._bt = self.v.conj().T @ state.b @ self.v.conj()
        self._weights = np.abs(self._bt) ** 2
        self._rates = 4.0 * np.add.outer(self.w, self.w)
        # the rates of _int_bb and of int_b_bound's triangle, 0 where the
        # weight is: a negative rate over a long tau makes phi infinite, and
        # 0 * inf is nan
        self._bb_rates = np.where(self._weights == 0, 0.0, self._rates)

    def _int_bb(self, tau: float) -> np.ndarray:
        """Eigenbasis diagonal of int_0^tau B B~ under the frozen Omega; an
        entry of zero weight adds exactly 0."""
        return (self._weights * _phi(self._bb_rates, tau)).sum(axis=1)

    def omega_drift(self, tau: float) -> float:
        """Trace norm of the change in Omega over tau."""
        return 16.0 * float(self._int_bb(tau).sum())

    def int_b_bound(self, tau: float) -> float:
        """An upper bound on int_0^tau ||B||_2: the smaller of the triangle
        bound sum_ij |B~_ij| phi(2 (w_i + w_j), tau) and the Cauchy-Schwarz
        bound (tau int_0^tau ||B||_2^2)^{1/2}; an entry of zero weight adds
        exactly 0 to either."""
        triangle = float((np.sqrt(self._weights) * _phi(self._bb_rates / 2, tau)).sum())
        return min(triangle, math.sqrt(tau * self.omega_drift(tau) / 16.0))

    def hs_integral(self, tau0: float, tau1: float) -> float:
        """int ||B||_2 over the offsets [tau0, tau1] after the hand-over."""
        if tau1 <= tau0:
            return 0.0

        def norms(taus):
            with np.errstate(over="ignore"):  # tau w past the float range: e^-inf = 0
                x = np.exp(-4.0 * np.multiply.outer(taus, self.w))
            return np.sqrt(np.maximum(((x @ self._weights) * x).sum(axis=1), 0.0))

        return gauss_kronrod(norms, tau0, tau1, epsabs=1e-3 * self.tol, epsrel=0.0)[0]

    def at(self, t: float, prev: Optional[FlowState] = None) -> np.ndarray:
        """The state vector [Omega, B, u, v, I] at a time t at or after the
        hand-over; I continues from prev (by default the hand-over state)."""
        s = self.state
        tau = t - s.t
        omega = s.omega - 16.0 * ((self.v * self._int_bb(tau)) @ self.v.conj().T)
        b = frozen_omega_b(self.w, self.v, s.b, tau)
        int_bmat = self.v @ (self._bt * _phi(self._rates / 2, tau)) @ self.v.T
        prev = s if prev is None else prev
        return _pack((omega + omega.conj().T) / 2, (b + b.T) / 2,
                     s.u - 4.0 * (s.v @ int_bmat.conj()), s.v - 4.0 * (s.u @ int_bmat),
                     prev.int_b + self.hs_integral(prev.t - s.t, tau))


def frozen_tail(state: FlowState, t_end: float, tol: float) -> Optional[FrozenTail]:
    """The frozen-Omega tail from state to t_end, or None if it may not take over.

    It takes over once ||B_t||_2 < TAIL_FACTOR * tol, at the noise floor of
    the stepper, and only if its Omega drift over the rest of the
    span is at most tol * max(1, ||Omega_t||_2).  The drift guard keeps a
    tiny B on a near-zero Omega, whose true flow slowly blows up, on the
    adaptive path.  The carried map also needs the terms that the
    first-order map update drops, 8 I^2 (||u||_2 + ||v||_2) with I bounded
    by FrozenTail.int_b_bound over the span, to be at most tol.  An Omega
    with a negative eigenvalue never hands over: B grows along it under the
    frozen decay, and the tail's closed forms overflow over a long span.
    """
    if not (state.t < t_end and state.hs_b < TAIL_FACTOR * tol):
        return None
    tail = FrozenTail(state, tol)
    if tail.w[0] < 0:
        return None
    span = t_end - state.t
    if not tail.omega_drift(span) <= tol * max(1.0, hs_norm(state.omega)):
        return None
    dropped = 8.0 * tail.int_b_bound(span) ** 2 * (hs_norm(state.u) + hs_norm(state.v))
    if not dropped <= tol:
        return None
    return tail


def _tail_times(t0: float, h: float, t_end: float) -> list:
    """t0 + (2^k - 1) h for k = 1, 2, ... below t_end, then t_end itself.
    k stops at 1023: a float holds no larger power of two."""
    times = []
    for k in range(1, sys.float_info.max_exp):
        if not t0 + (2 ** k - 1) * h < t_end:
            break
        times.append(t0 + (2 ** k - 1) * h)
    return times + [t_end]


def _min_eigs(x: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the hermitian part of each stacked matrix."""
    return np.linalg.eigvalsh((x + x.conj().swapaxes(-1, -2)) / 2)[:, 0]


def check_span(path, s: float, t: float) -> None:
    """The B-path contract, the one statement every consumer of a path uses.

    A B-path has a window [t0, t1] and a call tau -> B_tau that answers any
    tau within PATH_SLACK of the window at path_time(path, tau), so callers
    pass their times unclamped.  A span [s, t] with t < s is a ValueError,
    and a span or call more than PATH_SLACK outside the window a PathGap.
    Trajectory and wrappers that forward to it comply."""
    if t < s:
        raise ValueError("require s <= t")
    if s < path.t0 - PATH_SLACK or t > path.t1 + PATH_SLACK:
        raise PathGap(f"[{s:.6g}, {t:.6g}] outside path window [{path.t0:.6g}, {path.t1:.6g}]")


def path_time(path, t: float) -> float:
    """t clamped to the path's window (see check_span)."""
    check_span(path, t, t)
    return min(max(t, path.t0), path.t1)


class Trajectory:
    """Sampled flow history with lazy diagnostics, events and interpolation.

    Each sample holds the state vector [Omega, B, u, v, I] and its
    derivative (float64 for a real spec, complex128 otherwise; see
    integrate), and each stepped sample the step size the stepper proposed
    there.  Between two stepped samples the state is the stepper's dense
    output, re-run the first time a time inside the interval is asked
    for: the stepper restarts from the left sample, with its
    derivative and proposed step size, up to the right sample.  On a single
    accepted step that is the step itself, the same stages bit for bit; on
    an interval that thinning merged, the steps the first run took.
    Between two samples of the frozen-Omega tail the state is the tail's
    closed form from the hand-over sample (stats["tail_t"]).  So everything
    the interpolant needs comes from the constructor's arguments, and a
    trajectory rebuilt from them answers bit for bit the same.
    n_interp_rhs counts the right-hand-side calls these re-runs have cost
    so far (stats["n_rhs"] counts those of the integration).

    The trajectory is also the B-path of its flow (see check_span), with
    map_at and int_b_at answering (u, v) and int ||B|| from the carried
    columns (see bogoliubov and fock.propagate).  The c of its samples and
    of state_at is scalar_c with its scalar_sign.
    """

    def __init__(self, spec: QuadraticSpec, controls: Controls, scalar_sign: float,
                 states: list, events: list, stats: dict):
        self.spec = spec
        self.controls = controls
        self.scalar_sign = float(scalar_sign)
        self.states = states
        self.events = events
        self.stats = dict(stats)
        self._columns = {}  # diagnostic columns, computed on first read
        self._dense = {}  # dense output per stepped sample interval, built on first use
        self.n_interp_rhs = 0  # right-hand-side calls spent building dense outputs
        n = spec.dim  # the columns of B and of the map in the state vector
        self._b_cols, self._map_cols = slice(n * n, 2 * n * n), slice(2 * n * n, 4 * n * n)

    @cached_property
    def ts(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @cached_property
    def _times(self) -> list:
        """ts as a list of floats, for bisect."""
        return self.ts.tolist()

    @cached_property
    def _omegas(self) -> np.ndarray:
        return np.stack([s.omega for s in self.states])

    @cached_property
    def _bs(self) -> np.ndarray:
        return np.stack([s.b for s in self.states])

    def column(self, name: str) -> np.ndarray:
        """One FlowDiagnostics field for every sample, computed on first read
        and batched over the stacked samples."""
        if name not in self._columns:
            self._columns.update(self._diag_columns(name))
        return self._columns[name]

    def _diag_columns(self, name: str) -> dict:
        """The column `name`, with any other column that shares its work."""
        if name == "hs_b":
            return {name: np.array([s.hs_b for s in self.states])}
        if name == "c":
            return {name: np.array([s.c for s in self.states])}
        om0, b0 = self.spec.omega, self.spec.b
        om, b = self._omegas, self._bs
        if name == "min_eig_omega":
            # every stored Omega is exactly hermitian (the spec is projected,
            # dOmega is M + M* and tail samples are hermitized), and eigvalsh
            # reads one triangle, so no hermitian part is formed
            return {name: np.linalg.eigvalsh(om)[:, 0]}
        if name == "k_norm":
            ob = om @ b  # B Omega^t = (Omega B)^t, as every sample's B is symmetric
            return {name: np.sqrt(_sq_norms(ob - ob.swapaxes(-1, -2)))}
        if name == "motion_residual":
            # tr Omega^2 = ||Omega||_2^2 and tr B B~ = ||B||_2^2, since every
            # stored Omega is exactly hermitian and every B exactly symmetric
            return {name: np.abs(_sq_norms(om) - 4.0 * _sq_norms(b)
                                 - (_sq_norms(om0) - 4.0 * _sq_norms(b0)))}
        if name == "matrix_motion_residual":
            ref = om0 @ om0 - 4.0 * (b0 @ b0.conj())
            cur = om @ om - 4.0 * (b @ b.conj())
            return {name: np.sqrt(_sq_norms(cur - ref))}
        if name == "omega_decrease_margin":
            return {name: _min_eigs(om0 - om)}
        if name == "square_mono_margin":
            sq0 = om0 @ om0 - 8.0 * (b0 @ b0.conj())
            return {name: _min_eigs(om @ om - 8.0 * (b @ b.conj()) - sq0)}
        raise KeyError(f"no diagnostic column {name!r}")

    @property
    def diags(self) -> list:
        """FlowDiagnostics for every sample (every column is computed)."""
        cols = [self.column(name) for name in FlowDiagnostics.__slots__]
        return [FlowDiagnostics(*map(float, row)) for row in zip(*cols)]

    @property
    def hs_bs(self) -> np.ndarray:
        return self.column("hs_b")

    @property
    def final(self) -> FlowState:
        return self.states[-1]

    def converged(self) -> bool:
        """Whether the final ||B_t||_2 is below controls.conv_tol."""
        return self.final.hs_b < self.controls.conv_tol

    @cached_property
    def t0(self) -> float:
        return float(self.states[0].t)

    @cached_property
    def t1(self) -> float:
        return float(self.states[-1].t)

    @cached_property
    def _tail(self) -> Optional[FrozenTail]:
        """The frozen-Omega tail from the hand-over sample, if there is one."""
        tail_t = self.stats.get("tail_t")
        if tail_t is None:
            return None
        return FrozenTail(self.states[int(np.searchsorted(self.ts, tail_t))],
                          self.controls.tol)

    @cached_property
    def _system(self) -> tuple:
        """The stepped system of the flow (see _carried)."""
        return _carried(self.spec, self.controls)

    def _dense_output(self, i: int) -> list:
        """The stepper's dense output on [ts[i], ts[i+1]], one piece per step
        of the re-run from sample i (see the class docstring)."""
        if i not in self._dense:
            left, pieces = self.states[i], []
            fun, tol = self._system
            stepper = DormandPrince(fun, left.t, _vector(left), self.ts[i + 1], tol, tol,
                                    f0=left.dy, h_abs=left.h)
            drive(stepper, on_step=lambda s: pieces.append(s.dense_output()))
            self.n_interp_rhs += stepper.nfev
            self._dense[i] = pieces
        return self._dense[i]

    def _interpolate(self, t: float, cols=slice(None)) -> np.ndarray:
        """Columns cols of the state vector at path_time(self, t): the stored
        sample at a sample time, the tail's closed form or the dense output
        between."""
        t = path_time(self, t)
        ts = self._times
        i = bisect.bisect_left(ts, t)
        if ts[i] == t:
            return _vector(self.states[i])[cols]
        tail = self._tail
        if tail is not None and ts[i - 1] >= tail.state.t:
            return tail.at(t, prev=self.states[i - 1])[cols]
        return next(p for p in self._dense_output(i - 1) if t <= p.t)(t, cols)

    def state_at(self, t: float) -> FlowState:
        """The state vector at t (see _interpolate)."""
        return _state(t, self._interpolate(t), self.spec, self.scalar_sign)

    def b_at(self, t: float) -> np.ndarray:
        """B of state_at(t), interpolating only the B columns."""
        n = self.spec.dim
        return self._interpolate(t, self._b_cols).reshape(n, n)

    __call__ = b_at  # the trajectory is the B-path of its flow

    def map_at(self, t: float) -> tuple:
        """(u_{t,t0}, v_{t,t0}) from the carried columns."""
        n = self.spec.dim
        u, v = self._interpolate(t, self._map_cols).reshape(2, n, n)
        return u, v

    def int_b_at(self, t: float) -> float:
        """int_{t0}^t ||B||_2 from the carried column."""
        return float(self._interpolate(t, slice(-1, None))[0].real)

    def b_path(self) -> "Trajectory":
        """The B-path of the flow: the trajectory itself."""
        return self

    def write_csv(self, fh) -> None:
        """Write the sampled diagnostics to the text file fh (see write_csv_rows)."""
        write_csv_rows(fh, [self.ts] + [self.column(name) for name in (
            "hs_b", "c", "min_eig_omega", "motion_residual", "k_norm")])


def write_csv_rows(fh, cols) -> None:
    """CSV_HEADER, then a row of 17-digit values per sample of the columns."""
    fh.write(CSV_HEADER + "\n")
    for row in zip(*cols):
        fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def integrate(spec: QuadraticSpec, t_end: float, controls: Optional[Controls] = None,
              scalar_sign: Optional[float] = None) -> Trajectory:
    """Integrate the flow from spec over [0, t_end].

    Samples every accepted step (thinned beyond MAX_SAMPLES, never
    dropping the hand-over to the tail).  The
    blow-up guard raises BlowupDetected carrying the partial trajectory; a
    step-size underflow while ||B|| grows is classified the same way, and
    otherwise raises StepSizeUnderflow.

    The adaptive pair steps [Omega, B, u, v, I], so every sample carries
    the map and int ||B||, and the derivative of that vector: the stepper's
    FSAL stage at an accepted step and its first evaluation at t = 0, and
    one _CarriedRhs call at each tail sample.  Each stepped sample also
    keeps the step size the stepper proposed there, which a re-run of the
    dense output needs (see Trajectory).  stats["n_rhs"] counts the
    stepper's calls, not those of the tail samples.  It stops stepping at
    the first accepted step where frozen_tail accepts the hand-over:
    ||B_t||_2 < TAIL_FACTOR * tol, an Omega drift to t_end of at most
    tol * max(1, ||Omega_t||_2) and a first-order map update within tol.
    The FrozenTail then supplies the rest, sampled at offsets (2^k - 1) h
    after the hand-over (h the last accepted step) and at t_end, so each
    sample interval is at most twice the one before.  stats["n_steps"]
    counts the accepted steps; stats["tail_t"] is the hand-over time (None
    without one) and stats["n_tail"] the number of tail samples.
    stats["wall_time"] covers the stepping and the tail; diagnostics are
    computed when first read.  A run whose stepper has made more than
    MAX_ATTEMPTS trial steps, accepted or rejected, raises NotConverged at
    its next accepted step, so every run ends in bounded work.

    scalar_sign (SCALAR_SIGN by default) sets only the read-out c of the
    samples (scalar_c): neither it nor spec.c0 enters the stepped state, so
    the steps and the stepped columns do not depend on them.

    A real spec (spec.is_real: every imaginary part of Omega and B exactly
    0.0) is stepped as a float64 state with rtol = atol = sqrt(2) tol, the
    same error criterion as the complex128 state at tol, whose imaginary
    half is then exactly zero and only dilutes the RMS error norm by
    sqrt(2).  Its samples, map and B-path are then float64; any other spec
    keeps the complex128 state.
    """
    controls = controls or Controls()
    sign = SCALAR_SIGN if scalar_sign is None else float(scalar_sign)
    if not 0 <= t_end < np.inf:
        raise ValueError("t_end must be finite and nonnegative")
    me = min_eig_hermitian(spec.omega)
    if me < -1e-8 * hs_scale(spec.omega):
        raise NotPSD(f"Omega_0 has eigenvalue {me:.3e}; the flow requires Omega_0 >= 0")
    if controls.method != "rk":
        raise ValueError(f"unknown method {controls.method!r}")

    n = spec.dim
    hs_b0 = hs_norm(spec.b)
    start = time.perf_counter()

    recorder = _Recorder()
    fun, step_tol = _carried(spec, controls)
    dtype = fun.dtype
    omega0, b0 = (spec.omega.real, spec.b.real) if spec.is_real else (spec.omega, spec.b)
    y0 = _pack(omega0, b0, np.eye(n, dtype=dtype), np.zeros((n, n), dtype), 0.0)
    solver = DormandPrince(fun, 0.0, y0, t_end, step_tol, step_tol)

    def sample(stepper):
        return _state(stepper.t, stepper.state, spec, sign, stepper.derivative, stepper.h_abs)

    recorder.offer(sample(solver), force=True)
    events = []

    def finish(extra_stats):
        stats = {"hs_b0": hs_b0, "t_end": t_end}
        stats.update(extra_stats)
        traj = Trajectory(spec, controls, sign, recorder.samples, events, stats)
        traj.stats["wall_time"] = time.perf_counter() - start
        return traj

    def stop_at_blowup(ev: Optional[FlowEvent]):
        # the blown-up state was offered with force, so it is the last sample
        if ev is not None:
            events.append(ev)
            raise BlowupDetected(ev.message, trajectory=finish({"stopped": "blowup"}), event=ev)

    tail = None

    def on_step(stepper):
        nonlocal tail
        if stepper.n_attempts > MAX_ATTEMPTS:
            raise NotConverged(f"gave up after {stepper.n_attempts} step attempts "
                               f"at t = {stepper.t:.6g} (t_end = {t_end:g})")
        state = sample(stepper)
        tail = frozen_tail(state, t_end, controls.tol)
        blowup = blowup_guard(state, hs_b0)
        recorder.offer(state, force=(state.t >= t_end or tail is not None or blowup is not None),
                       pin=tail is not None)
        stop_at_blowup(blowup)
        return tail is None

    try:
        drive(solver, on_step)
    except StepSizeUnderflow as exc:
        # an underflow while ||B|| is still growing is the blow-up signature
        last = recorder.samples[-1]
        growing = len(recorder.samples) >= 2 and last.hs_b > recorder.samples[-2].hs_b
        if growing or last.hs_b > hs_b0:
            t0 = t0_horizon(hs_b0)
            ev = FlowEvent(kind="blowup", t=last.t, hs_b=last.hs_b,
                           message=(f"step underflow with growing ||B|| at t = {last.t:.9g} "
                                    f"(T_0 = {t0:.9g})"),
                           t0_lower_bound=t0)
            events.append(ev)
            traj = finish({"stopped": "blowup-underflow"})
            raise BlowupDetected(ev.message, trajectory=traj, event=ev) from exc
        ev = FlowEvent(kind="underflow", t=last.t, hs_b=last.hs_b, message=str(exc))
        events.append(ev)
        exc.trajectory = finish({"stopped": "underflow"})
        raise

    stats = {"n_steps": recorder.count - 1, "n_rhs": int(solver.nfev),
             "tail_t": None, "n_tail": 0}
    if tail is not None:
        times = _tail_times(tail.state.t, solver.t - solver.t_old, t_end)
        stats.update(tail_t=tail.state.t, n_tail=len(times))
        state = tail.state
        for t in times:
            y = tail.at(t, prev=state)
            state = _state(t, y, spec, sign, fun(t, y))
            recorder.offer(state, force=True)
            stop_at_blowup(blowup_guard(state, hs_b0))
    return finish(stats)


def limit_extract(traj: Trajectory):
    """Final (Omega_inf, C_inf, converged) from a completed trajectory:
    C_inf is the final sample's c, scalar_c of Omega_inf with the
    trajectory's scalar_sign, and converged is traj.converged()."""
    if any(ev.kind == "blowup" for ev in traj.events):
        raise NotConverged("trajectory ended in blow-up")
    if not traj.states:
        raise NotConverged("empty trajectory")
    return traj.final.omega.copy(), traj.final.c, traj.converged()


class DecayFit:
    def __init__(self, rate: float, log_intercept: float, n_samples: int, window: tuple,
                 max_residual: float = 0.0):
        self.rate = rate
        self.log_intercept = log_intercept
        self.n_samples = n_samples
        self.window = window
        self.max_residual = max_residual


def decay_fit(traj: Trajectory, window: Optional[tuple] = None) -> DecayFit:
    """Least-squares exponential rate of ||B_t||_2 decay.

    Fits log ||B_t|| = a - rate * t with two rows per sample in the window:
    its value log ||B_i||, and its slope d log ||B||/dt = -rate, which is
    Re<B_i, dB_i> / ||B_i||^2 exactly, dB_i read from the derivative the
    sample stores.  So the fit calls no right-hand side and interpolates
    nothing.  With no explicit window, the samples with ||B_t|| between
    DECAY_FIT_FRACS * ||B_0|| make the window, away from both the slow
    transient and the integrator noise floor.  Under a spectral gap nu
    (condition A6) the true decay rate is at least 2 nu.  Late in the flow
    the slope tends to the slowest rate 2 (w_i + w_j) of an entry of B in
    the eigenbasis of Omega_inf, at least 4 lambda_min(Omega_inf); on the
    (1, 2, 0.5) block it is 2 (lambda_0 + lambda_1) at the hand-over sample
    to 1e-15.
    Where the slopes are still falling, the fit measures a transient
    average: on a seeded random n = 64 spec run to t = 5, they fall from
    9.33 to 8.27 across the window and are still 8.14 at the hand-over,
    against 4 lambda_min(Omega_inf) = 7.75.

    Samples with ||B_t|| = 0 are never used, fewer than 10 rows raise
    InsufficientData, and so does ||B_0|| = 0 (nothing decays).  n_samples
    counts the rows and max_residual is the largest residual of a value
    row.
    """
    ts, hsb = traj.ts, traj.hs_bs
    if window is not None:
        lo, hi = window
        mask = (ts >= lo) & (ts <= hi)
    else:
        hs0 = traj.stats.get("hs_b0", hsb[0])
        if hs0 == 0:
            raise InsufficientData("||B_0|| = 0, there is no decay to fit")
        lo, hi = DECAY_FIT_FRACS
        mask = (hsb >= lo * hs0) & (hsb <= hi * hs0)
    idx = np.flatnonzero(mask & (hsb > 0))
    m = idx.size
    if 2 * m < 10:
        raise InsufficientData(f"only {2 * m} usable points for the decay fit")
    n2 = traj.spec.dim ** 2
    samples = [traj.states[i] for i in idx]
    slopes = [np.vdot(s.b, s.dy[n2:2 * n2]).real / s.hs_b ** 2 for s in samples]
    t, logs = ts[idx], np.log(hsb[idx])
    # unknowns (a, rate): value rows a - rate t_i = log ||B_i||, slope
    # rows -rate = slope_i
    rows = np.zeros((2 * m, 2))
    rows[:m, 0] = 1.0
    rows[:, 1] = -np.concatenate([t, np.ones(m)])
    (a, rate), *_ = np.linalg.lstsq(rows, np.concatenate([logs, slopes]), rcond=None)
    return DecayFit(rate=float(rate), log_intercept=float(a), n_samples=2 * m,
                    window=(float(t[0]), float(t[-1])),
                    max_residual=float(np.max(np.abs(a - rate * t - logs))))
