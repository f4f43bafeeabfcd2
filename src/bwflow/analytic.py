"""Closed-form block solutions of the flow, used as oracles.

A 2x2 block carries Omega = diag(om_minus, om_plus) and B = [[0, b], [b, 0]]
with real b >= 0.  On such blocks the flow reduces to the scalar system

    d/dt om_{+-} = -16 b^2,      d/dt b = -2 (om_- + om_+) b,

which is solved in closed form in three regimes (block_regime): Omega = 0
with b > 0 blows up, and otherwise the sign of the product gap
om_+ om_- - 4 b^2 decides:

* strict positive gap ("generic"): exponential relaxation at rate 4 rho,
  rho = sqrt(sigma^2 - 16 b^2), sigma = om_- + om_+;
* zero gap ("equal-product"): relaxation at rate 4 delta, delta = om_+ - om_-,
  degenerating to an algebraic 1/t law when delta = 0;
* om = 0 with b > 0 ("blowup"): finite-time blow-up at T_max = pi/(16 b).

exact_block evaluates the closed form of a block's regime, together with
int_0^t b(tau)^2 dtau, which feeds the scalar coefficient C_t and its
checks.  block_spec assembles a spec of block triples, such as those of the
pivotal_blocks and mixed_blocks families, and exact_limit_block gives the
limit in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotInRegime, OutOfRange, PastBlowup
from .opcore import OneParticleOperator, QuadraticSpec

# relative tolerance for deciding membership of the equal-product manifold
PRODUCT_TOL = 1e-12


def _gap(om_minus: float, om_plus: float, b: float) -> tuple[float, float]:
    """The product gap om_+ om_- - 4 b^2 and the scale of its two terms,
    which PRODUCT_TOL is relative to."""
    product, pair = om_plus * om_minus, 4.0 * b * b
    return product - pair, max(product, pair)


def _check_block(om_minus: float, om_plus: float, b: float) -> None:
    if om_minus < 0 or om_plus < om_minus:
        raise OutOfRange("block requires 0 <= om_minus <= om_plus")
    if b < 0:
        raise OutOfRange("block requires b >= 0")


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
    om_+ om_- - 4 b^2 at tolerance PRODUCT_TOL relative to the larger of
    om_+ om_- and 4 b^2, so that a block's regime does not change with its
    scale:

    * "blowup" for Omega = 0 with b > 0, however small b is;
    * "generic" for a strictly positive gap;
    * "equal-product" for a zero gap, b = 0 with om_- = 0 included;
    * "negative-gap" for any other negative gap, which has no closed form.

    A gap that overflows has no sign and is "negative-gap" too.
    """
    _check_block(om_minus, om_plus, b)
    if om_plus == 0.0 and b > 0.0:
        return "blowup"
    gap, scale = _gap(om_minus, om_plus, b)
    if abs(gap) <= PRODUCT_TOL * scale:
        return "equal-product"
    return "generic" if gap > 0 else "negative-gap"


def exact_block(om_minus: float, om_plus: float, b: float, t):
    """The block at time t in the closed form of its block_regime.

    Returns (om_minus_t, om_plus_t, b_t^2, int_0^t b(tau)^2 dtau), floats for
    a scalar t and arrays for an array of times.  A block with b = 0 is at
    rest.  Otherwise, with sigma = om_- + om_+ and delta = om_+ - om_-:

    generic, with rho = sqrt(sigma^2 - 16 b^2):

        om_{-+}(t) = h_t(-+delta),
        h_t(d) = [(rho+d)(rho+sigma) + (rho-d)(sigma-rho) e^{-4 rho t}]
                 / [2 (rho + sigma + (rho-sigma) e^{-4 rho t})]
        b(t)^2 = 4 rho^2 b^2 e^{-4 rho t}
                 / (sigma + rho + (rho-sigma) e^{-4 rho t})^2,
        int_0^t b^2 = b^2 (1 - e^{-4 rho t})
                      / (2 (sigma + rho + (rho-sigma) e^{-4 rho t})),

    with limits om_{-+} -> (rho -+ delta)/2 and b -> 0;

    equal-product, for delta > 0:

        om_-(t) = om_- delta / (om_+ e^{4 delta t} - om_-)
        om_+(t) = om_+ delta / (om_+ - om_- e^{-4 delta t})
        b(t)^2  = b^2 delta^2 e^{-4 delta t} / (om_+ - om_- e^{-4 delta t})^2
        int_0^t b^2 = b^2 (1 - e^{-4 delta t}) / (4 (om_+ - om_- e^{-4 delta t}))

    and for delta = 0, within PRODUCT_TOL of om_+ (so b = om/2):

        om(t) = om / (4 t om + 1),   b(t)^2 = om^2 / (4 (4 t om + 1)^2);

    blowup, with om_t the common diagonal value of Omega_t:

        b(t) = b sqrt(tan^2(8 b t) + 1),   om(t) = -2 b tan(8 b t),
        int_0^t b^2 = b tan(8 b t) / 8,

    valid for t < T_max = pi/(16 b); beyond that PastBlowup is raised.
    The integrals of the first two regimes, and the equal-product
    denominators, take 1 - e^{-x} as -expm1(-x) and e^x - 1 as expm1(x),
    which keeps them accurate where x is small: at small t, b or delta.
    A negative-gap block raises OutOfRange.
    """
    regime = block_regime(om_minus, om_plus, b)
    ts, scalar = _as_times(t)
    sigma = om_plus + om_minus
    delta = om_plus - om_minus
    if b == 0.0:
        omm, omp = np.full_like(ts, om_minus), np.full_like(ts, om_plus)
        bt2, ib = np.zeros_like(ts), np.zeros_like(ts)
    elif regime == "generic":
        rho = np.sqrt(sigma * sigma - 16.0 * b * b)
        decay = np.exp(-4.0 * rho * ts)
        den = rho + sigma + (rho - sigma) * decay

        def h(d):
            return ((rho + d) * (rho + sigma) + (rho - d) * (sigma - rho) * decay) / (2.0 * den)

        omm, omp = h(-delta), h(delta)
        bt2 = 4.0 * rho * rho * b * b * decay / (den * den)
        ib = b * b * -np.expm1(-4.0 * rho * ts) / (2.0 * den)
    elif regime == "equal-product" and delta <= PRODUCT_TOL * om_plus:
        den = 4.0 * ts * om_plus + 1.0
        omm = omp = om_plus / den
        bt2 = om_plus * om_plus / (4.0 * den * den)
        ib = (om_plus / 16.0) * (1.0 - 1.0 / den)
    elif regime == "equal-product":
        decay = np.exp(-4.0 * delta * ts)
        # om_+ e^{4 delta t} - om_- and om_+ - om_- e^{-4 delta t} as sums of
        # nonnegative terms, which keep their digits where delta t is small
        with np.errstate(over="ignore"):  # e^{4 delta t} = inf gives the limit 0
            omm = om_minus * delta / (delta + om_plus * np.expm1(4.0 * delta * ts))
        spent = -np.expm1(-4.0 * delta * ts)
        den = delta + om_minus * spent
        omp = om_plus * delta / den
        bt2 = b * b * delta * delta * decay / (den * den)
        ib = b * b * spent / (4.0 * den)
    elif regime == "blowup":
        tmax = blowup_time(b)
        if np.any(ts >= tmax):
            raise PastBlowup(f"t >= T_max = {tmax:.6g}")
        tan = np.tan(8.0 * b * ts)
        omm = omp = -2.0 * b * tan
        bt2 = (b * np.sqrt(tan ** 2 + 1.0)) ** 2
        ib = b * tan / 8.0
    else:
        raise OutOfRange("no closed form for a block with om_+ om_- < 4 b^2 and Omega != 0")
    return tuple(float(x) if scalar else np.asarray(x, float) for x in (omm, omp, bt2, ib))


def blowup_time(b: float) -> float:
    """Horizon T_max = pi/(16 b) of the blow-up family."""
    return float(np.pi / (16.0 * b))


def exact_limit_block(blocks) -> OneParticleOperator:
    """Limit matrix S0_minus + sqrt(S0_plus^2 - 4 B0 B0~) of a block family.

    S0_{+-} = (Omega_0 +- Omega_hat_0)/2 where Omega_hat_0 swaps the two
    diagonal entries of each block.  Per block this is diag(2g/(rho+delta),
    (rho+delta)/2) with the gap g = om_+ om_- - 4 b^2, delta = om_+ - om_-
    and rho = hypot(delta, 2 sqrt(g)), which cancel nowhere: g is formed
    exactly and rounded once, and with r = sqrt(g) the entries are r (r/eps_+)
    and eps_+ = hypot(delta/2, r) + delta/2, so none overflows.  A block
    with b = 0 is at rest, its limit (om_-, om_+).  A block in the blowup or
    negative-gap regime of block_regime raises NotInRegime.
    """
    from fractions import Fraction  # only tests and scripts take limits

    diag = []
    for j, (om_minus, om_plus, b) in enumerate(_as_blocks(blocks)):
        regime = block_regime(om_minus, om_plus, b)
        if regime in ("negative-gap", "blowup"):
            raise NotInRegime(f"block {j} is in the {regime} regime, which has no limit")
        if b == 0:
            diag += [om_minus, om_plus]
            continue
        g = max(Fraction(om_plus) * Fraction(om_minus) - 4 * Fraction(b) ** 2, 0)
        k = (g.numerator.bit_length() - g.denominator.bit_length()) // 2
        root = math.ldexp(math.sqrt(g * Fraction(4) ** -k), k)  # g 4^-k is near 1
        half = (om_plus - om_minus) / 2
        eps_plus = math.hypot(half, root) + half
        diag += [root * (root / eps_plus) if root else 0.0, eps_plus]
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
