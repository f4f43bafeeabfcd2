"""Shared adaptive integration: the Dormand-Prince 8(5,3) pair DOP853 for
ODEs, with its own dense output, and the Gauss-Kronrod 7-15 rule for
quadrature.

All matrix ODEs in the package run through this stepper (Hairer, Norsett &
Wanner, *Solving ODEs I*, section II.10 for the pair and II.6 for its
continuous extension).  Steps advance with the eighth-order solution
(local extrapolation).  The error estimate combines the embedded fifth- and
third-order ones, err5 and err3, each scaled componentwise by
atol + max(|y_i|, |y_new_i|) * rtol, into
h ||err5||^2 / sqrt((||err5||^2 + 0.01 ||err3||^2) N) over the N real
components, and a step is accepted when it is below 1.  The next step grows
or shrinks by 0.9 * err^(-1/8), clamped to [0.2, 10], and never grows right
after a rejection.  The last stage is the derivative at the new state and
the first stage of the next step (FSAL), so an accepted step costs twelve
right-hand-side evaluations.  The initial step is Hairer's estimate from
the first two derivatives.

dense_output gives the pair's seventh-order continuous extension on the
last accepted step from its stages and three more evaluations.  It is built
only on request, so a run that reads only its accepted states pays nothing
for it.  The stages live only until the next step overwrites them, so a
caller that wants it for a step builds it in on_step (see drive); one that
keeps only the step's left state, derivative and proposed step size can
re-run the step later and get the same stages bit for bit.

The state may be real or complex and of any shape: the flow steps one
vector [Omega, B, u, v, I], float64 for a real spec and complex128
otherwise; the (u, v) map along a given path steps a complex (2, n, n)
stack; and the Fock propagator steps one vector holding, per parity, the
stacked blocks of U on the pair term's connected components and the
diagonal entries of its one-state components, float64 when the path's B
is real and complex128 otherwise.
The stepper works on a flat float64 view of the state (the real and
imaginary parts interleaved, no copy), so error control is per real
component.  A complex state whose imaginary parts are all zero therefore
has the RMS error norms of its real parts divided by sqrt(2), and the real
callers pass sqrt(2) times their tolerance to keep the same criterion.

The right-hand side is called as ``fun(t, y, out)`` and writes the
derivative at (t, y) into ``out``; both arrays have the shape and dtype of
y0 and are views of the stepper's buffers, built once per stepper.  ``y``
is read-only to ``fun``; ``out`` may hold anything on entry and must be
filled completely.  A stage state or stage row is overwritten by a later
stage, so ``fun`` must keep neither ``y`` nor ``out``.  Each stage writes
straight into its row of the stage matrix; only the last stage of a step,
the derivative at the new state (FSAL), goes into a fresh array.  Each
accepted state is a fresh array as well, so ``on_step`` may keep both
without copying.  The views that the stage sums read, one per stage, are
made once per stepper too, and the stage loop calls ``fun`` itself, so
that at small n a step costs little beyond its twelve calls of ``fun``.

On a real 1-d state the arithmetic follows scipy.integrate.DOP853
operation for operation, so step sequences, results and dense output match
it bit for bit; bwflow runs on numpy alone, so this module holds the
pair's coefficients as literals.  Nothing in the package imports scipy:
the squeeze decomposition behind diag takes its square root, log and exp
from numpy's eigh (bogoliubov._unitary_eig), and only the tests load
scipy, as an oracle.

Step-size underflow (proposed step below H_MIN, or no acceptable step above
ten ulps of t) raises StepSizeUnderflow; callers classify it further.

gauss_kronrod is QUADPACK's adaptive 7-15 rule on one interval, without
breakpoints (no caller has kinks to declare), so that no quadrature on the
command line's path imports scipy either.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import StepSizeUnderflow

# The DOP853 tableau (Hairer's dop853.f): nodes _C and stage matrix _A of
# the twelve stages, the FSAL stage and the three extra stages of the dense
# output, in that order; eighth-order weights _B; the fifth- and third-order
# error rows _E5 and _E3 (FSAL stage last); and the rows _D of the dense
# output's higher coefficients.
_N_STAGES = 12
_C = np.array([
    0.0, 0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142,
    1.0, 1.0, 0.1, 0.2, 0.777777777777777777777777777778])
_A = np.zeros((16, 16))
_A[1, :1] = [5.26001519587677318785587544488e-2]
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, :3] = [2.95875854768068491816892993775e-2, 0, 8.87627564304205475450678981324e-2]
_A[4, :4] = [2.41365134159266685502369798665e-1, 0, -8.84549479328286085344864962717e-1,
             9.24834003261792003115737966543e-1]
_A[5, :5] = [3.7037037037037037037037037037e-2, 0, 0, 1.70828608729473871279604482173e-1,
             1.25467687566822425016691814123e-1]
_A[6, :6] = [3.7109375e-2, 0, 0, 1.70252211019544039314978060272e-1,
             6.02165389804559606850219397283e-2, -1.7578125e-2]
_A[7, :7] = [3.70920001185047927108779319836e-2, 0, 0, 1.70383925712239993810214054705e-1,
             1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
             8.27378916381402288758473766002e-3]
_A[8, :8] = [6.24110958716075717114429577812e-1, 0, 0, -3.36089262944694129406857109825,
             -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
             2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1]
_A[9, :9] = [4.77662536438264365890433908527e-1, 0, 0, -2.48811461997166764192642586468,
             -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
             1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
             -2.03312017085086261358222928593e-2]
_A[10, :10] = [-9.3714243008598732571704021658e-1, 0, 0, 5.18637242884406370830023853209,
               1.09143734899672957818500254654, -8.14978701074692612513997267357,
               -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
               2.49360555267965238987089396762, -3.0467644718982195003823669022]
_A[11, :11] = [2.27331014751653820792359768449, 0, 0, -1.05344954667372501984066689879e1,
               -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
               2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
               -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
               6.43392746015763530355970484046e-1]
_A[12, :12] = [5.42937341165687622380535766363e-2, 0, 0, 0, 0,
               4.45031289275240888144113950566, 1.89151789931450038304281599044,
               -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
               -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
               4.47106157277725905176885569043e-2]
_A[13, :13] = [5.61675022830479523392909219681e-2, 0, 0, 0, 0, 0,
               2.53500210216624811088794765333e-1, -2.46239037470802489917441475441e-1,
               -1.24191423263816360469010140626e-1, 1.5329179827876569731206322685e-1,
               8.20105229563468988491666602057e-3, 7.56789766054569976138603589584e-3,
               -8.298e-3]
_A[14, :14] = [3.18346481635021405060768473261e-2, 0, 0, 0, 0,
               2.83009096723667755288322961402e-2, 5.35419883074385676223797384372e-2,
               -5.49237485713909884646569340306e-2, 0, 0,
               -1.08347328697249322858509316994e-4, 3.82571090835658412954920192323e-4,
               -3.40465008687404560802977114492e-4, 1.41312443674632500278074618366e-1]
_A[15, :15] = [-4.28896301583791923408573538692e-1, 0, 0, 0, 0,
               -4.69762141536116384314449447206, 7.68342119606259904184240953878,
               4.06898981839711007970213554331, 3.56727187455281109270669543021e-1, 0, 0, 0,
               -1.39902416515901462129418009734e-3, 2.9475147891527723389556272149,
               -9.15095847217987001081870187138]
_B = _A[_N_STAGES, :_N_STAGES]
_E5 = np.array([
    0.1312004499419488073250102996e-1, 0, 0, 0, 0, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1, 0])
_E3 = np.append(_B, 0.0)  # B minus the third-order weights
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
_D = np.zeros((4, 16))
_D[:, 0] = [-0.84289382761090128651353491142e+1, 0.10427508642579134603413151009e+2,
            0.19985053242002433820987653617e+2, -0.25693933462703749003312586129e+2]
_D[:, 5:] = [
    [0.56671495351937776962531783590, -0.30689499459498916912797304727e+1,
     0.23846676565120698287728149680e+1, 0.21170345824450282767155149946e+1,
     -0.87139158377797299206789907490, 0.22404374302607882758541771650e+1,
     0.63157877876946881815570249290, -0.88990336451333310820698117400e-1,
     0.18148505520854727256656404962e+2, -0.91946323924783554000451984436e+1,
     -0.44360363875948939664310572000e+1],
    [0.24228349177525818288430175319e+3, 0.16520045171727028198505394887e+3,
     -0.37454675472269020279518312152e+3, -0.22113666853125306036270938578e+2,
     0.77334326684722638389603898808e+1, -0.30674084731089398182061213626e+2,
     -0.93321305264302278729567221706e+1, 0.15697238121770843886131091075e+2,
     -0.31139403219565177677282850411e+2, -0.93529243588444783865713862664e+1,
     0.35816841486394083752465898540e+2],
    [-0.38703730874935176555105901742e+3, -0.18917813819516756882830838328e+3,
     0.52780815920542364900561016686e+3, -0.11573902539959630126141871134e+2,
     0.68812326946963000169666922661e+1, -0.10006050966910838403183860980e+1,
     0.77771377980534432092869265740, -0.27782057523535084065932004339e+1,
     -0.60196695231264120758267380846e+2, 0.84320405506677161018159903784e+2,
     0.11992291136182789328035130030e+2],
    [-0.15418974869023643374053993627e+3, -0.23152937917604549567536039109e+3,
     0.35763911791061412378285349910e+3, 0.93405324183624310003907691704e+2,
     -0.37458323136451633156875139351e+2, 0.10409964950896230045147246184e+3,
     0.29840293426660503123344363579e+2, -0.43533456590011143754432175058e+2,
     0.96324553959188282948394950600e+2, -0.39177261675615439165231486172e+2,
     -0.14972683625798562581422125276e+3]]
_ERROR_EXPONENT = -1 / 8  # -1 / (error estimator order + 1)
# per stage s, the stage-matrix row A[s, :s] and the node c_s (a float)
_A_ROWS = [_A[s, :s] for s in range(len(_C))]
_C_NODES = _C.tolist()

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
RTOL_FLOOR = 100 * np.finfo(float).eps
# Smallest step the pair may propose before drive raises StepSizeUnderflow.
H_MIN = 1e-12


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


class DormandPrince:
    """Forward-in-time DOP853 stepper.

    Public state: ``t``, ``y`` (current solution as a flat float64 array),
    ``state`` (the same solution in the shape and dtype of y0), ``f``
    (derivative at (t, y), flat like y and reused as the first stage of the
    next step), ``h_abs`` (size of the next step to try), ``t_old`` and
    ``y_old`` (the start of the last accepted step), ``nfev``
    (right-hand-side evaluations made by the stepper, including the two of
    the initial-step estimate), ``n_attempts`` (trial steps, accepted or
    rejected) and ``status`` ('running', 'finished' or 'failed').
    ``derivative`` is f in the shape and dtype of y0.

    f0 and h_abs, when given, are the derivative at (t0, y0) and the first
    step to try, and replace the evaluation and the estimate that would
    make them: a stepper restarted from a kept state, its derivative and
    the step size proposed there takes the steps the first run took.
    """

    def __init__(self, fun, t0, y0, t_bound, rtol, atol, f0=None, h_abs=None):
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
        self.t = self.t_old = t0
        self.y = self.y_old = self._flat(y0)
        self.t_bound = t_bound
        self.rtol = max(rtol, RTOL_FLOOR)
        self.atol = atol
        self.nfev = 0
        self.n_attempts = 0
        self.status = "running" if t_bound > t0 else "finished"
        # stages (the extra three of the dense output last), and scratch for
        # the stage sums, stage states and error weights; fun reads the
        # stage states and writes the stages through views in the caller's
        # shape and dtype, made here once
        self._k = np.empty((len(_C), self.y.size))
        self._k_shaped = list(self._k.view(self._dtype).reshape((len(_C),) + self._shape))
        # per s, the transposed rows 0..s-1 that stage s (or, for s = 12 and
        # 13, the step and its error estimate) sums
        self._k_before = [self._k[:s].T for s in range(len(_C))]
        self._dy, self._ys, self._w = np.empty((3, self.y.size))
        self._ys_shaped = self._shaped(self._ys)
        self.f = self._eval_new(t0, self.y) if f0 is None else self._flat(f0)
        self.h_abs = self._initial_step() if h_abs is None else h_abs

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
            h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
        return min(100 * h0, h1, interval)

    def _stages(self, t, y, h, first: int, last: int) -> None:
        """Stages first..last-1 of a step of size h from (t, y), each from
        the rows before it, into their rows of the stage matrix."""
        fun, k_before, k_shaped = self._fun, self._k_before, self._k_shaped
        dy, ys, ys_shaped = self._dy, self._ys, self._ys_shaped
        for s in range(first, last):
            np.dot(k_before[s], _A_ROWS[s], out=dy)
            dy *= h
            np.add(y, dy, out=ys)
            self.nfev += 1
            fun(t + _C_NODES[s] * h, ys_shaped, k_shaped[s])

    def _attempt(self, h):
        """One trial step of size h: (y_new, f_new, error norm)."""
        self.n_attempts += 1
        y, k, dy, w = self.y, self._k, self._dy, self._w
        k[0] = self.f
        self._stages(self.t, y, h, 1, _N_STAGES)
        np.dot(self._k_before[_N_STAGES], _B, out=dy)
        dy *= h
        y_new = y + dy              # fresh arrays: callers may keep accepted
        f_new = self._eval_new(self.t + h, y_new)  # states and their derivatives
        k[_N_STAGES] = f_new
        np.maximum(np.abs(y, out=w), np.abs(y_new, out=self._ys), out=w)
        w *= self.rtol
        w += self.atol
        err5 = self._scaled_error(_E5)
        err3 = self._scaled_error(_E3)
        if err5 == 0 and err3 == 0:
            return y_new, f_new, 0.0
        return y_new, f_new, abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * w.size)

    def _scaled_error(self, e: np.ndarray) -> float:
        """||(K e) / w||^2 over the stages of the last attempt, squared from
        the norm sqrt(x . x) as np.linalg.norm forms it."""
        x = self._dy
        np.dot(self._k_before[_N_STAGES + 1], e, out=x)
        x /= self._w
        return math.sqrt(x.dot(x)) ** 2

    def step(self) -> None:
        """Advance by one accepted step, or set status to 'failed' when the
        step size falls below ten float spacings at t or an error estimate
        is nan (B B~ past the float range, say)."""
        if self.status != "running":
            raise RuntimeError("step() called on a stopped stepper")
        t = self.t
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(self.h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a nan step size too
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
                # in Python floats: a step grown past the float range is inf
                # without numpy's warning, and the next step ends at t_bound
                h_abs = float(h_abs) * float(factor)
                break
            if math.isnan(err):
                self.status = "failed"
                return
            h_abs *= max(MIN_FACTOR, SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        self.t_old, self.y_old = t, self.y
        self.t, self.y, self.f, self.h_abs = t_new, y_new, f_new, h_abs
        if t_new >= self.t_bound:
            self.status = "finished"

    def dense_output(self) -> DenseOutput:
        """The seventh-order continuous extension on the last accepted step,
        [t_old, t], from its thirteen stage rows, still in the stage matrix,
        and three more evaluations of fun (section II.6)."""
        t_old, y_old, y, k = self.t_old, self.y_old, self.y, self._k
        h = self.t - t_old
        self._stages(t_old, y_old, h, _N_STAGES + 1, len(_C))
        f, dy = np.empty((7, y.size)), self._dy
        np.subtract(y, y_old, out=f[0])
        np.multiply(k[0], h, out=f[1])
        f[1] -= f[0]                 # h f_old - (y - y_old)
        np.add(k[_N_STAGES], k[0], out=dy)
        dy *= h
        np.multiply(f[0], 2, out=f[2])
        f[2] -= dy                   # 2 (y - y_old) - h (f + f_old)
        np.dot(_D, k, out=f[3:])
        f[3:] *= h
        return DenseOutput(t_old, self.t, y_old, f, self._dtype)


class DenseOutput:
    """DOP853's continuous extension on one step [t_old, t]: a polynomial
    of degree 7 in x = (tau - t_old) / (t - t_old), held as seven rows
    nested in alternating factors x and 1 - x.

    The rows and the left state are held as (entry, part) arrays, with the
    float64 parts of each entry (two for a complex state, one for a real
    one) along the last axis, so that a slice of entries needs no
    conversion."""

    def __init__(self, t_old: float, t: float, y_old: np.ndarray, f: np.ndarray, dtype):
        self.t_old, self.t = t_old, t
        self._h = t - t_old
        width = 2 if dtype is complex else 1  # float64 entries per entry
        self._y_old = y_old.reshape(-1, width)
        self._rows = f[::-1].reshape(len(f), -1, width)  # in Horner order
        self._dtype = dtype

    def __call__(self, tau: float, cols: slice = slice(None)) -> np.ndarray:
        """Entries cols (a slice of unit stride) of the state at tau in
        [t_old, t], in the stepper's dtype; every entry is evaluated on its
        own, so this equals slicing the whole state bit for bit."""
        if cols.step not in (None, 1):
            raise ValueError("cols must have unit stride")
        x = (tau - self.t_old) / self._h
        rows = self._rows[:, cols]
        y = rows[0] + 0.0  # the first sum from a zero start: -0.0 becomes 0.0 there too
        y *= x
        for i in range(1, len(rows)):
            y += rows[i]
            y *= x if i % 2 == 0 else 1 - x
        y += self._y_old[cols]
        return y.view(self._dtype).reshape(-1)


def drive(stepper: DormandPrince, on_step=None) -> DormandPrince:
    """Run a stepper to its t_bound.

    ``on_step`` receives the stepper after every accepted step (so never on
    a zero-length interval), for recording and event checks; its state and
    derivative are fresh arrays that may be kept, and returning False stops
    the integration early.  Returns the stepper in its final state
    ('finished' or stopped early by ``on_step``).  Raises StepSizeUnderflow
    when the step size collapses.
    """
    while stepper.status == "running":
        stepper.step()
        if stepper.status == "failed":
            raise StepSizeUnderflow(
                f"integration stalled at t = {stepper.t:.6g}")
        if on_step is not None and on_step(stepper) is False:
            return stepper
        if stepper.status == "running" and stepper.h_abs < H_MIN:
            raise StepSizeUnderflow(
                f"step size {stepper.h_abs:.3e} fell below h_min = {H_MIN:.3e} "
                f"at t = {stepper.t:.6g}")
    return stepper


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
    center, half = 0.5 * los + 0.5 * his, 0.5 * (his - los)
    nodes = center[:, np.newaxis] + half[:, np.newaxis] * _NODES
    fx = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    res_k = fx @ _KRONROD
    err = np.abs(res_k - fx @ _GAUSS) * half
    res_abs = (np.abs(fx) @ _KRONROD) * half
    res_asc = (np.abs(fx - 0.5 * res_k[:, np.newaxis]) @ _KRONROD) * half
    # QUADPACK's sharpening of |Kronrod - Gauss| for smooth integrands (a
    # panel with res_asc = 0 keeps its err, and its unused ratio is 0 rather
    # than one that can overflow), and its floor at the roundoff level of
    # the panel
    ratio = 200.0 * err / np.where(res_asc > 0, res_asc, np.inf)
    err = np.where((res_asc != 0.0) & (err != 0.0),
                   res_asc * np.minimum(1.0, ratio ** 1.5), err)
    err = np.where(res_abs > _TINY / (50.0 * _EPS),
                   np.maximum(50.0 * _EPS * res_abs, err), err)
    return res_k * half, err


def gauss_kronrod(f, a: float, b: float, epsabs: float = QUAD_EPSABS,
                  epsrel: float = QUAD_EPSREL) -> tuple:
    """Adaptive Gauss-Kronrod 7-15 quadrature of int_a^b f (a <= b), as
    (value, error estimate).

    f maps a 1-d array of nodes to the array of integrand values.  The rule
    takes no breakpoints: it starts from the one panel [a, b] and bisects
    the panel with the largest error estimate, at most QUAD_LIMIT times,
    until the summed estimate drops below max(epsabs, epsrel |value|).
    Panel centres and midpoints are formed as 0.5 lo + 0.5 hi, which is
    finite for any finite ends.
    """
    vals, errs = _gk15(f, np.array([a], dtype=float), np.array([b], dtype=float))
    heap = [(-errs[0], a, b, vals[0])]
    value, error = float(vals[0]), float(errs[0])
    for _ in range(QUAD_LIMIT):
        if error <= max(epsabs, epsrel * abs(value)):
            break
        neg_err, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * lo + 0.5 * hi
        halves = _gk15(f, np.array([lo, mid]), np.array([mid, hi]))
        for lo_i, hi_i, v_i, e_i in zip((lo, mid), (mid, hi), *halves):
            heapq.heappush(heap, (-e_i, lo_i, hi_i, v_i))
        value += float(halves[0].sum()) - v
        error += float(halves[1].sum()) + neg_err
    return math.fsum(p[3] for p in heap), math.fsum(-p[0] for p in heap)
