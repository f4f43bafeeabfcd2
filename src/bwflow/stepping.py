"""Shared adaptive integration: the Dormand-Prince 5(4) embedded pair for
ODEs and the Gauss-Kronrod 7-15 rule for quadrature.

All matrix ODEs in the package run through this stepper (Hairer, Norsett &
Wanner, *Solving ODEs I*, sections II.4-5).  Steps advance with the
fifth-order solution (local extrapolation) and the embedded fourth-order one
estimates the error.  A step is accepted when the RMS norm of that estimate,
with each component scaled by atol + max(|y_i|, |y_new_i|) * rtol, is below
1.  The next step grows or shrinks by 0.9 * err^(-1/5), clamped to
[0.2, 10], and never grows right after a rejection.  The last stage is the
first stage of the next step (FSAL), so an accepted step costs six
right-hand-side evaluations.  The initial step is Hairer's estimate from the
first two derivatives.

The state may be real or complex and of any shape: the flow steps one
vector [Omega, B, u, v, I], float64 for a real spec and complex128
otherwise; the (u, v) map along a given path steps a complex (2, n, n)
stack; and the Fock propagator steps one vector holding the two parity
blocks of U, float64 when the path's B is real and complex128 otherwise.
The stepper works on a flat float64 view of the state (the real and
imaginary parts interleaved, no copy), so error control is per real
component.  A complex state whose imaginary parts are all zero therefore
has the RMS error norm of its real parts divided by sqrt(2), and the real
callers pass sqrt(2) times their tolerance to keep the same criterion.

The right-hand side is called as ``fun(t, y, out)`` and writes the
derivative at (t, y) into ``out``; both arrays have the shape and dtype of
y0 and are views of the stepper's buffers, built once per stepper.  ``y``
is read-only to ``fun``; ``out`` may hold anything on entry and must be
filled completely.  A stage state or stage row is overwritten by a later
stage, so ``fun`` must keep neither ``y`` nor ``out``.  Each stage writes
straight into its row of the stage matrix; only the last stage of a step,
the derivative at the new state (FSAL), goes into a fresh array.  Each
accepted state is a fresh array as well, and ``on_step`` receives both and
may keep them without copying: the derivative serves Hermite dense output
without another right-hand-side evaluation.

On a real 1-d state the arithmetic follows scipy.integrate.RK45 operation
for operation, so step sequences and results match it bit for bit; this
module only avoids importing scipy, which would dominate the start-up time
of the command line.  No command imports scipy at all: the squeeze
decomposition behind diag takes its square root, log and exp from numpy's
eigh (bogoliubov._unitary_eig), and only the library's bogoliubov.dyson_uv
and the tests load scipy.

Step-size underflow (proposed step below H_MIN, or no acceptable step above
ten ulps of t) raises StepSizeUnderflow; callers classify it further.

gauss_kronrod is QUADPACK's adaptive 7-15 rule, so that no quadrature on
the command line's path imports scipy either.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import StepSizeUnderflow

# Dormand-Prince 5(4) tableau: nodes C, stage matrix A, fifth-order weights
# B and error row E (fifth- minus fourth-order weights, FSAL stage last).
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_N_STAGES = 6
_ERROR_EXPONENT = -1 / 5  # -1 / (embedded order + 1)

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
RTOL_FLOOR = 100 * np.finfo(float).eps
# Smallest step the pair may propose before drive_rk45 raises StepSizeUnderflow.
H_MIN = 1e-12


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


class DormandPrince:
    """Forward-in-time Dormand-Prince 5(4) stepper.

    Public state: ``t``, ``y`` (current solution as a flat float64 array),
    ``state`` (the same solution in the shape and dtype of y0), ``f``
    (derivative at (t, y), flat like y and reused as the first stage of the
    next step), ``h_abs`` (size of the next step to try), ``nfev``
    (right-hand-side evaluations made by the stepper, including the two of
    the initial-step estimate) and ``status`` ('running', 'finished' or
    'failed').  ``derivative`` is f in the shape and dtype of y0.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol):
        y0 = np.asarray(y0)
        if y0.size == 0:
            raise ValueError("y0 must be non-empty")
        if not np.isfinite(y0).all():
            raise ValueError("all components of the initial state y0 must be finite")
        if not (np.isfinite(t0) and np.isfinite(t_bound)):
            raise ValueError("t0 and t_bound must be finite")
        if t_bound < t0:
            raise ValueError("backward integration not supported")
        if atol < 0:
            raise ValueError("atol must be nonnegative")
        self._fun = fun
        self._dtype = complex if np.iscomplexobj(y0) else float
        self._shape = y0.shape
        self.t = t0
        self.y = self._flat(y0)
        self.t_bound = t_bound
        self.rtol = max(rtol, RTOL_FLOOR)
        self.atol = atol
        self.nfev = 0
        self.status = "running" if t_bound > t0 else "finished"
        # stages, and scratch for the stage sums, stage states and error
        # weights; fun reads the stage states and writes the stages through
        # views in the caller's shape and dtype, made here once
        self._k = np.empty((_N_STAGES + 1, self.y.size))
        self._dy, self._ys, self._w = np.empty((3, self.y.size))
        self._k_shaped = [self._shaped(row) for row in self._k]
        self._ys_shaped = self._shaped(self._ys)
        self.f = self._eval_new(t0, self.y)
        self.h_abs = self._initial_step()

    def _flat(self, x) -> np.ndarray:
        """Flat float64 view of an array in the caller's shape and dtype."""
        return np.ascontiguousarray(x, dtype=self._dtype).reshape(-1).view(float)

    def _shaped(self, y: np.ndarray) -> np.ndarray:
        return y.view(self._dtype).reshape(self._shape)

    @property
    def state(self) -> np.ndarray:
        """The current solution in the shape and dtype of y0 (a view of y)."""
        return self._shaped(self.y)

    @property
    def derivative(self) -> np.ndarray:
        """The derivative at the current solution, shaped like state (a view of f)."""
        return self._shaped(self.f)

    def _eval(self, t, y, out) -> None:
        """fun at (t, y) into out, both in the caller's shape and dtype."""
        self.nfev += 1
        self._fun(t, y, out)

    def _eval_new(self, t, y: np.ndarray) -> np.ndarray:
        """fun at a flat state, into a fresh flat array."""
        f = np.empty_like(y)
        self._eval(t, self._shaped(y), self._shaped(f))
        return f

    def _initial_step(self) -> float:
        """Hairer's starting step from y0, f0 and one explicit Euler probe."""
        t0, y0, f0 = self.t, self.y, self.f
        interval = abs(self.t_bound - t0)
        if interval == 0.0:
            return 0.0
        scale = self.atol + np.abs(y0) * self.rtol
        d0 = _rms(y0 / scale)
        d1 = _rms(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval)
        np.add(y0, h0 * f0, out=self._ys)
        self._eval(t0 + h0, self._ys_shaped, self._k_shaped[1])
        d2 = _rms((self._k[1] - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        return min(100 * h0, h1, interval)

    def _attempt(self, h):
        """One trial step of size h: (y_new, f_new, error norm)."""
        t, y, k = self.t, self.y, self._k
        dy, ys, w = self._dy, self._ys, self._w
        k[0] = self.f
        for s, (a, c) in enumerate(zip(_A[1:], _C[1:]), start=1):
            np.dot(k[:s].T, a[:s], out=dy)
            dy *= h
            np.add(y, dy, out=ys)
            self._eval(t + c * h, self._ys_shaped, self._k_shaped[s])
        np.dot(k[:-1].T, _B, out=dy)
        dy *= h
        y_new = y + dy              # fresh arrays: callers may keep accepted
        f_new = self._eval_new(t + h, y_new)  # states and their derivatives
        k[-1] = f_new
        np.maximum(np.abs(y, out=w), np.abs(y_new, out=ys), out=w)
        w *= self.rtol
        w += self.atol
        np.dot(k.T, _E, out=dy)
        dy *= h
        dy /= w
        return y_new, f_new, _rms(dy)

    def step(self) -> None:
        """Advance by one accepted step, or set status to 'failed'."""
        if self.status != "running":
            raise RuntimeError("step() called on a stopped stepper")
        t = self.t
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                self.status = "failed"
                return
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, err = self._attempt(h)
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(
                    MAX_FACTOR, SAFETY * err ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        if t_new >= self.t_bound:
            self.status = "finished"


def drive_rk45(fun, t0, y0, t_bound, rtol, atol, on_step=None):
    """Run the Dormand-Prince pair from t0 to t_bound.

    ``fun(t, y, out)`` writes the derivative at (t, y) into out (see the
    module docstring).  ``on_step`` receives (t, state, derivative) after
    every accepted step (so never on a zero-length interval), for recording and event checks, where derivative is
    the step's FSAL stage, the derivative at (t, state), in a fresh array;
    returning False stops the integration early.  Returns
    the stepper in its final state ('finished' or stopped early by
    ``on_step``).  Raises ValueError for an empty or non-finite y0, a
    non-finite t_bound and t_bound < t0, and StepSizeUnderflow when the step
    size collapses.
    """
    solver = DormandPrince(fun, t0, y0, t_bound, rtol, atol)
    while solver.status == "running":
        solver.step()
        if solver.status == "failed":
            raise StepSizeUnderflow(
                f"integration stalled at t = {solver.t:.6g}")
        if on_step is not None:
            keep_going = on_step(solver.t, solver.state, solver.derivative)
            if keep_going is False:
                return solver
        if solver.status == "running" and solver.h_abs < H_MIN:
            raise StepSizeUnderflow(
                f"step size {solver.h_abs:.3e} fell below h_min = {H_MIN:.3e} "
                f"at t = {solver.t:.6g}")
    return solver


# Gauss-Kronrod 7-15 rule on [-1, 1] (Piessens et al., QUADPACK, routine
# qk15): the 15 Kronrod nodes in ascending order, their weights, and the
# weights of the embedded 7-point Gauss rule (zero on Kronrod-only nodes).
_GK_X = np.array([0.991455371120812639206854697526329,
                  0.949107912342758524526189684047851,
                  0.864864423359769072789712788640926,
                  0.741531185599394439863864773280788,
                  0.586087235467691130294144845693013,
                  0.405845151377397166906606412076961,
                  0.207784955007898467600689403773245])
_GK_WK = np.array([0.022935322010529224963732008058970,
                   0.063092092629978553290700663189204,
                   0.104790010322250183839876322541518,
                   0.140653259715525918745189590510238,
                   0.169004726639267902826583426598550,
                   0.190350578064785409913256402421014,
                   0.204432940075298892414161999234649])
_GK_WK0 = 0.209482141084727828012999174891714
_GK_WG = np.array([0.129484966168869693270611432679082,
                   0.279705391489276667901467771423780,
                   0.381830050505118944950369775488975])
_GK_WG0 = 0.417959183673469387755102040816327
_NODES = np.concatenate([-_GK_X, [0.0], _GK_X[::-1]])
_KRONROD = np.concatenate([_GK_WK, [_GK_WK0], _GK_WK[::-1]])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = np.concatenate([_GK_WG, [_GK_WG0], _GK_WG[::-1]])
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# default stopping rule of gauss_kronrod: that of scipy.integrate.quad
QUAD_EPSABS = QUAD_EPSREL = 1.49e-8
QUAD_LIMIT = 200


def _gk15(f, los: np.ndarray, his: np.ndarray) -> tuple:
    """GK15 values and QUADPACK error estimates on panels [los[i], his[i]]
    (los < his); all panels' nodes go to f in one call."""
    center, half = 0.5 * (los + his), 0.5 * (his - los)
    nodes = center[:, np.newaxis] + half[:, np.newaxis] * _NODES
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    res_k = fx @ _KRONROD
    err = np.abs(res_k - fx @ _GAUSS) * half
    res_abs = (np.abs(fx) @ _KRONROD) * half
    res_asc = (np.abs(fx - 0.5 * res_k[:, np.newaxis]) @ _KRONROD) * half
    # QUADPACK's sharpening of |Kronrod - Gauss| for smooth integrands, and
    # its floor at the roundoff level of the panel
    ratio = 200.0 * err / np.where(res_asc > 0, res_asc, 1.0)
    err = np.where((res_asc != 0.0) & (err != 0.0),
                   res_asc * np.minimum(1.0, ratio ** 1.5), err)
    err = np.where(res_abs > _TINY / (50.0 * _EPS),
                   np.maximum(50.0 * _EPS * res_abs, err), err)
    return res_k * half, err


def _edges(a: float, b: float, points) -> np.ndarray:
    """a, b and the points strictly between them, sorted and distinct, as
    np.unique gives them; np.unique itself imports numpy.ma on first use."""
    edges = np.sort(np.array([a, b, *(p for p in points if a < p < b)], dtype=float))
    return edges[np.append(True, edges[1:] != edges[:-1])]


def gauss_kronrod(f, a: float, b: float, points=(), epsabs: float = QUAD_EPSABS,
                  epsrel: float = QUAD_EPSREL) -> tuple:
    """Adaptive Gauss-Kronrod 7-15 quadrature of int_a^b f (a <= b), as
    (value, error estimate).

    f maps a 1-d array of nodes to the array of integrand values.  The
    interval is first cut at the given breakpoints inside (a, b), where f
    may have kinks, and all those panels are sampled in one call.  Then the
    panel with the largest error estimate is bisected, at most QUAD_LIMIT
    times, until the summed estimate drops below max(epsabs, epsrel |value|).
    """
    edges = _edges(a, b, points)
    vals, errs = _gk15(f, edges[:-1], edges[1:])
    heap = [(-e, lo, hi, v) for lo, hi, v, e in zip(edges[:-1], edges[1:], vals, errs)]
    heapq.heapify(heap)
    value, error = float(vals.sum()), float(errs.sum())
    for _ in range(QUAD_LIMIT):
        if error <= max(epsabs, epsrel * abs(value)):
            break
        neg_err, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        halves = _gk15(f, np.array([lo, mid]), np.array([mid, hi]))
        for lo_i, hi_i, v_i, e_i in zip((lo, mid), (mid, hi), *halves):
            heapq.heappush(heap, (-e_i, lo_i, hi_i, v_i))
        value += float(halves[0].sum()) - v
        error += float(halves[1].sum()) + neg_err
    return math.fsum(p[3] for p in heap), math.fsum(-p[0] for p in heap)
