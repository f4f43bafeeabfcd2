"""Textbook closed forms of a 2x2 block's flow, evaluated in decimal.

The reference that tests/test_analytic.py holds analytic.exact_block to.
Each form is transcribed as printed, cancellations and all, from the exact
decimal values of the double inputs:

* positive gap g = om_+ om_- - 4 b^2 ("generic"), with
  rho = sqrt(sigma^2 - 16 b^2), sigma = om_- + om_+, delta = om_+ - om_-:

      om_{-+}(t) = [(rho -+ delta)(rho + sigma) + (rho +- delta)(sigma - rho) e]
                   / [2 (rho + sigma + (rho - sigma) e)],      e = e^{-4 rho t},
      b(t)^2 = 4 rho^2 b^2 e / (rho + sigma + (rho - sigma) e)^2,
      int_0^t b^2 = b^2 (1 - e) / (2 (rho + sigma + (rho - sigma) e));

* zero gap with delta > 0 ("equal-product"), with e = e^{-4 delta t}:

      om_-(t) = om_- delta e / (om_+ - om_- e),   om_+(t) = om_+ delta / (om_+ - om_- e),
      b(t)^2 = b^2 delta^2 e / (om_+ - om_- e)^2,
      int_0^t b^2 = b^2 (1 - e) / (4 (om_+ - om_- e));

* zero gap with delta = 0 ("flat"), so that b = om / 2:

      om(t) = om / (4 t om + 1),   b(t)^2 = b^2 / (4 t om + 1)^2,
      int_0^t b^2 = (om / 16) (1 - 1 / (4 t om + 1));

* Omega = 0 with b > 0 ("blowup"), for 0 <= t < pi / (16 b):

      om(t) = -2 b tan 8bt,   b(t)^2 = b^2 (1 + tan^2 8bt),
      int_0^t b^2 = b tan(8bt) / 8.

HIGH digits carry the arithmetic of blocks at scales 2^-500..2^500 exactly
through every product of two inputs and past each cancellation (at most
about 330 digits), and e^{-x} is taken with 150 digits more than 1 - e^{-x}
and the denominators cancel, so the results are correct to far more than
double precision.  tan comes from the Taylor series of sin and cos at
TAN_DIGITS, which keeps about 80 digits of a cos as small as the 1e-17
that a double argument below pi/2 can reach.
"""

import decimal
from decimal import Decimal

HIGH = 2000
TAN_DIGITS = 120


def _exp_neg(x: Decimal) -> Decimal:
    """e^{-x} for x >= 0, with the digits that 1 - e^{-x} loses added."""
    lost = max(0, -x.adjusted()) if x else 0
    with decimal.localcontext(prec=150 + lost):
        return (-x).exp()


def block_at(om_minus: float, om_plus: float, b: float, t: float) -> tuple:
    """(om_-(t), om_+(t), b(t)^2, int_0^t b^2) as Decimals, for a block whose
    exact gap is positive, or zero."""
    with decimal.localcontext(prec=HIGH):
        m, p, bb, tt = map(Decimal, (om_minus, om_plus, b, t))
        sigma, delta, gap = m + p, p - m, m * p - 4 * bb * bb
        if gap > 0:
            rho = (sigma * sigma - 16 * bb * bb).sqrt()
            e = _exp_neg(4 * rho * tt)
            den = rho + sigma + (rho - sigma) * e

            def h(d):
                return ((rho + d) * (rho + sigma) + (rho - d) * (sigma - rho) * e) / (2 * den)

            return h(-delta), h(delta), 4 * rho * rho * bb * bb * e / (den * den), \
                bb * bb * (1 - e) / (2 * den)
        if gap < 0:
            raise ValueError("the textbook forms need a nonnegative exact gap")
        if delta > 0:
            e = _exp_neg(4 * delta * tt)
            den = p - m * e
            return m * delta * e / den, p * delta / den, bb * bb * delta * delta * e / (den * den), \
                bb * bb * (1 - e) / (4 * den)
        den = 4 * tt * p + 1
        return p / den, p / den, bb * bb / (den * den), (p / 16) * (1 - 1 / den)


def _tan(x: Decimal) -> Decimal:
    """tan x for 0 <= x < pi/2; the series stops at a term below
    10^(-2 TAN_DIGITS), where a cos as small as 1e-17 and a sin as small as
    x, down to x = 10^-TAN_DIGITS, have all their digits."""
    with decimal.localcontext(prec=TAN_DIGITS):
        x = +x
        sin = cos = Decimal(0)
        term, k = Decimal(1), 0  # term = (-1)^(k//2) x^k / k!
        while abs(term) >= Decimal(10) ** (-2 * TAN_DIGITS):
            if k % 2:
                sin += term
            else:
                cos += term
            k += 1
            term = term * x / k * (-1 if k % 2 == 0 else 1)
        return sin / cos


def blowup_at(b: float, t: float) -> tuple:
    """(om(t), b(t)^2, int_0^t b^2) as Decimals for the block Omega = 0 with
    b > 0, at a t below its blow-up time pi / (16 b)."""
    with decimal.localcontext(prec=HIGH):
        bb = Decimal(b)
        tan = _tan(8 * bb * Decimal(t))
        return -2 * bb * tan, bb * bb * (1 + tan * tan), bb * tan / 8
