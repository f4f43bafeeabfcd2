"""Closed-form block solutions of the flow, used as oracles.

A 2x2 block carries Omega = diag(om_minus, om_plus) and B = [[0, b], [b, 0]]
with real b >= 0.  On such blocks the flow reduces to the scalar system

    d/dt om_{+-} = -16 b^2,      d/dt b = -2 (om_- + om_+) b,

which keeps delta = om_+ - om_- and the product gap g = om_+ om_- - 4 b^2
constant.  block_regime sorts a block by them: Omega = 0 with b > 0 blows
up in finite time, a nonnegative gap ("generic", or "equal-product" within
PRODUCT_TOL of zero) relaxes to a limit, and a negative gap has no closed
form.  exact_block evaluates the block at time t, together with
int_0^t b(tau)^2 dtau, which feeds the scalar coefficient C_t and its
checks; at t = inf it is the limit that exact_limit_block assembles.
block_spec assembles a spec of block triples, such as those of the
pivotal_blocks and mixed_blocks families.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotInRegime, OutOfRange, PastBlowup
from .opcore import OneParticleOperator, QuadraticSpec

# relative tolerance for deciding membership of the equal-product manifold
PRODUCT_TOL = 1e-12


def _check_block(om_minus: float, om_plus: float, b: float) -> None:
    if om_minus < 0 or om_plus < om_minus:
        raise OutOfRange("block requires 0 <= om_minus <= om_plus")
    if b < 0:
        raise OutOfRange("block requires b >= 0")


def _gap(om_minus: float, om_plus: float, b: float):
    """(regime, (n, d)) of a block: its product gap om_+ om_- - 4 b^2 = n/d,
    exact in integers (None for a blowup block), and the regime that
    block_regime describes, decided on it without rounding or overflow."""
    _check_block(om_minus, om_plus, b)
    if om_plus == 0.0 and b > 0.0:
        return "blowup", None
    (nm, dm), (n_p, dp), (nb, db) = (x.as_integer_ratio() for x in (om_minus, om_plus, b))
    product, pair = nm * n_p * db * db, 4 * nb * nb * dm * dp  # both over dm dp db^2
    gap = (product - pair, dm * dp * db * db)
    tol_num, tol_den = PRODUCT_TOL.as_integer_ratio()
    if abs(gap[0]) * tol_den <= tol_num * max(product, pair):
        return "equal-product", gap
    return ("generic" if gap[0] > 0 else "negative-gap"), gap


def _as_blocks(blocks):
    """Accept a single (om_-, om_+, b) triple or a list of them."""
    if len(blocks) == 3 and np.isscalar(blocks[0]):
        blocks = [blocks]
    return [tuple(map(float, blk)) for blk in blocks]


def _as_times(t):
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise OutOfRange("t must be nonnegative")
    return arr, (arr.ndim == 0)


def block_spec(blocks, c0: float = 0.0, label: str = "") -> QuadraticSpec:
    """Assemble a block-diagonal QuadraticSpec from (om_minus, om_plus, b) triples."""
    blocks = _as_blocks(blocks)
    if not blocks:
        raise ValueError("at least one block required")
    n = 2 * len(blocks)
    omega = np.zeros((n, n))
    bmat = np.zeros((n, n))
    for j, (om_minus, om_plus, b) in enumerate(blocks):
        _check_block(om_minus, om_plus, b)
        omega[2 * j, 2 * j] = om_minus
        omega[2 * j + 1, 2 * j + 1] = om_plus
        bmat[2 * j, 2 * j + 1] = b
        bmat[2 * j + 1, 2 * j] = b
    return QuadraticSpec.from_matrices(omega, bmat, c0=c0, label=label)


def block_regime(om_minus: float, om_plus: float, b: float) -> str:
    """Which closed form solves the block, by the sign of the product gap
    om_+ om_- - 4 b^2, formed exactly, at tolerance PRODUCT_TOL relative to
    the larger of om_+ om_- and 4 b^2, so that a block's regime does not
    change with its scale:

    * "blowup" for Omega = 0 with b > 0, however small b is;
    * "generic" for a strictly positive gap;
    * "equal-product" for a zero gap, b = 0 with om_- = 0 included;
    * "negative-gap" for any other negative gap, which has no closed form.
    """
    return _gap(om_minus, om_plus, b)[0]


def exact_block(om_minus: float, om_plus: float, b: float, t):
    """The block at time t in the closed form of its block_regime; t = inf
    gives its limit.

    Returns (om_minus_t, om_plus_t, b_t^2, int_0^t b(tau)^2 dtau), floats for
    a scalar t and arrays for an array of times.  A block with b = 0 is at
    rest.  A block with a nonnegative gap g follows one formula: with
    sigma = om_- + om_+, rho^2 = delta^2 + 4 g = sigma_t^2 - 16 b_t^2 is
    constant, and with T = tanh(2 rho t) / rho (2 t at rho = 0, 1/rho at
    t = inf)

        b_t = b sech(2 rho t) / (1 + sigma T),
        int_0^t b^2 = b^2 T / (2 (1 + sigma T)),
        om_+(t) = q + delta/2,   om_-(t) = (g + 4 b_t^2) / om_+(t),

    where q = hypot(rho/2, 2 b_t) is half the trace of Omega_t.  The limit
    is (2 g / (rho + delta), (rho + delta) / 2), with om_- = 0 where
    om_+ = 0.  g is exact, no input is squared, and sech and tanh are built
    from e^{-4 rho t}, so no step cancels, and none overflows or underflows
    before its result does.  A negative g inside PRODUCT_TOL enters as
    -min(|g|, delta^2/4), which keeps rho^2 >= 0.

    blowup, with om_t the common diagonal value of Omega_t:

        b(t) = b sqrt(tan^2(8 b t) + 1),   om(t) = -2 b tan(8 b t),
        int_0^t b^2 = b tan(8 b t) / 8,

    valid for t < T_max = pi/(16 b); beyond that PastBlowup is raised.
    A negative-gap block raises OutOfRange.
    """
    regime, gap = _gap(om_minus, om_plus, b)
    ts, scalar = _as_times(t)
    if b == 0.0:
        omm, omp = np.full_like(ts, om_minus), np.full_like(ts, om_plus)
        bt2, ib = np.zeros_like(ts), np.zeros_like(ts)
    elif regime == "blowup":
        tmax = blowup_time(b)
        if np.any(ts >= tmax):
            raise PastBlowup(f"t >= T_max = {tmax:.6g}")
        tan = np.tan(8.0 * b * ts)
        omm = omp = -2.0 * b * tan
        with np.errstate(over="ignore"):  # b_t^2 may pass the float range
            bt2 = (b * np.sqrt(tan ** 2 + 1.0)) ** 2
        ib = b * tan / 8.0
    elif regime == "negative-gap":
        raise OutOfRange("no closed form for a block with om_+ om_- < 4 b^2 and Omega != 0")
    else:
        # root = sqrt|g| from |g| 4^-k, which is near 1, since g itself may
        # pass the float range; half_rho = rho/2
        num, den = gap
        k = (abs(num).bit_length() - den.bit_length()) // 2
        root = math.ldexp(math.sqrt(abs(num) * 4 ** max(-k, 0) / (den * 4 ** max(k, 0))), k)
        half = (om_plus - om_minus) / 2
        if num < 0:
            root = min(root, half)
            half_rho, sign = math.sqrt(half - root) * math.sqrt(half + root), -1.0
        else:
            half_rho, sign = math.hypot(half, root), 1.0
        half_sigma = om_minus / 2 + om_plus / 2
        with np.errstate(divide="ignore", over="ignore"):  # 1/tau = inf at t = 0,
            # e^{-4 rho t} = 0 where 4 rho t passes the float range, and b_t^2
            # may pass it
            if half_rho > 0:
                spent = -np.expm1(-8.0 * half_rho * ts)  # 1 - e^{-4 rho t}
                tau = spent / ((2.0 - spent) * half_rho)  # 2 T
                sech = 2.0 * np.exp(-4.0 * half_rho * ts) / (2.0 - spent)
            else:
                tau, sech = 4.0 * ts, 1.0
            bt = b * sech / (1.0 + half_sigma * tau)
            ib = (b / 2) * ((b / 2) / (1.0 / tau + half_sigma))
            bt2 = bt * bt
        omp = np.hypot(half_rho, 2.0 * bt) + half
        divisor = np.where(omp > 0, omp, np.inf)  # om_+ = 0: the flat block's limit
        omm = 2.0 * bt * (2.0 * bt / divisor) + sign * root * (root / divisor)
    return tuple(float(x) if scalar else np.asarray(x, float) for x in (omm, omp, bt2, ib))


def blowup_time(b: float) -> float:
    """Horizon T_max = pi/(16 b) of the blow-up family."""
    return float(np.pi / (16.0 * b))


def exact_limit_block(blocks) -> OneParticleOperator:
    """Limit matrix S0_minus + sqrt(S0_plus^2 - 4 B0 B0~) of a block family,
    with S0_{+-} = (Omega_0 +- Omega_hat_0)/2 where Omega_hat_0 swaps the two
    diagonal entries of each block: per block, exact_block at t = inf.  A
    block in the blowup or negative-gap regime of block_regime raises
    NotInRegime.
    """
    diag = []
    for j, block in enumerate(_as_blocks(blocks)):
        regime = block_regime(*block)
        if regime in ("negative-gap", "blowup"):
            raise NotInRegime(f"block {j} is in the {regime} regime, which has no limit")
        diag += exact_block(*block, math.inf)[:2]
    return OneParticleOperator.hermitian(np.diag(diag).astype(complex), sym_tol=np.inf)


def pivotal_blocks(k_max: int) -> list:
    """Blocks b_k = 2^{-k}, om_{+-,k} = 2 sqrt(2) b_k for k = 1..k_max.

    Every block sits in the strict-gap regime with the slowest rate scaling
    like 16 b_k, so the full matrix keeps t ||B_t||_2 bounded away from zero
    over windows growing like 2^{k_max}.
    """
    if k_max < 1:
        raise OutOfRange("k_max must be >= 1")
    blocks = []
    for k in range(1, k_max + 1):
        bk = 2.0 ** (-k)
        omk = 2.0 * np.sqrt(2.0) * bk
        blocks.append((omk, omk, bk))
    return blocks


def pivotal_family(k_max: int, c0: float = 0.0) -> QuadraticSpec:
    """The spec of pivotal_blocks(k_max)."""
    return block_spec(pivotal_blocks(k_max), c0=c0, label=f"pivotal-{k_max}")


def mixed_blocks(b1: float, k_max: int) -> list:
    """Head block (1, 2, b1) with 1/2 < b1 < 1/sqrt(2), tail blocks
    b_k = 2^{-k}, om_{+-,k} = (3/4)^k for k = 2..k_max.

    The head block satisfies the product condition om_+ om_- > 4 b1^2 but
    violates 1 >= 4 B (Omega^t)^{-2} B~ since 4 b1^2 / om_-^2 = 4 b1^2 > 1.
    """
    if not (0.5 < b1 < 1.0 / np.sqrt(2.0)):
        raise OutOfRange("b1 must lie strictly between 1/2 and 1/sqrt(2)")
    if k_max < 2:
        raise OutOfRange("k_max must be >= 2")
    return [(1.0, 2.0, float(b1))] + [((3.0 / 4.0) ** k, (3.0 / 4.0) ** k, 2.0 ** (-k))
                                      for k in range(2, k_max + 1)]


def mixed_family(b1: float, k_max: int, c0: float = 0.0) -> QuadraticSpec:
    """The spec of mixed_blocks(b1, k_max)."""
    return block_spec(mixed_blocks(b1, k_max), c0=c0, label=f"mixed-{b1}-{k_max}")
