"""Closed-form block solutions against frozen high-precision values.

The reference numbers were computed once from independently transcribed
formulas at 50-digit precision and pasted here verbatim; the property tests
evaluate the textbook forms of analytic_reference in decimal instead.
"""

import decimal
import math
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from analytic_reference import HIGH, block_at, blowup_at
from hypothesis import assume, example, given
from hypothesis import strategies as st

from bwflow import analytic
from bwflow.errors import NotInRegime, OutOfRange, PastBlowup

GOLDEN_LO = 0.6180339887498948482046
GOLDEN_HI = 1.6180339887498948482046

# generic block (1, 2, 1/2): (om_minus, om_plus, b^2) at t
GENERIC_FROZEN = {
    0.5: (0.6217667899641627818829, 1.621766789964162781883, 0.002090182766625524435486),
    1.0: (0.6180765578798332246006, 1.618076557879833224601, 2.379732010401369133612e-5),
    2.0: (0.6180339943043130053113, 1.618033994304313005311, 3.105014151400337852057e-9),
}
GENERIC_INT_B2_T2 = 0.02387287535598043716804
GENERIC_INT_B2_INF = 0.02387287570313157198721

# equal-product block (1, 4, 1) at t=1
EQP_FROZEN = (4.608166343384300622288e-6, 3.000004608166343384301,
              3.456130066337487541675e-6)
EQP_INT_B2_T1 = 0.062499711989603538481

BLOWUP_OM_015 = -5.14430324425263787082
BLOWUP_B_015 = 2.759703601332406456883
BLOWUP_TMAX = 0.1963495408493620774039
BLOWUP_INT_B2_015 = 0.3215189527657898669262


def test_generic_frozen_values():
    for t, ref in GENERIC_FROZEN.items():
        got = analytic.exact_block(1.0, 2.0, 0.5, t)[:3]
        assert np.allclose(got, ref, rtol=1e-14, atol=1e-22)


def test_generic_vectorized_and_limits():
    ts = np.array([0.5, 1.0, 2.0])
    lo, hi, b2, _ = analytic.exact_block(1.0, 2.0, 0.5, ts)
    assert lo.shape == (3,) and np.isclose(b2[2], GENERIC_FROZEN[2.0][2])
    lo_inf, hi_inf, b2_inf, _ = analytic.exact_block(1.0, 2.0, 0.5, 60.0)
    assert np.isclose(lo_inf, GOLDEN_LO, atol=1e-12)
    assert np.isclose(hi_inf, GOLDEN_HI, atol=1e-12)
    assert b2_inf < 1e-200


def test_generic_int_b2_frozen():
    assert np.isclose(analytic.exact_block(1.0, 2.0, 0.5, 2.0)[3],
                      GENERIC_INT_B2_T2, rtol=1e-14)
    assert np.isclose(analytic.exact_block(1.0, 2.0, 0.5, 1e6)[3],
                      GENERIC_INT_B2_INF, rtol=1e-14)
    assert analytic.exact_block(1.0, 2.0, 0.5, 0.0)[3] == 0.0
    assert analytic.exact_block(1.0, 2.0, 0.0, 5.0)[3] == 0.0


def test_generic_regime_guard():
    assert analytic.block_regime(1.0, 2.0, 0.5) == "generic"
    # exactly on the manifold
    assert analytic.block_regime(1.0, 4.0, 1.0) == "equal-product"
    assert analytic.block_regime(1.0, 2.0, 0.8) == "negative-gap"
    with pytest.raises(OutOfRange):
        analytic.exact_block(1.0, 2.0, 0.8, 1.0)  # no closed form
    with pytest.raises(ValueError):
        analytic.block_regime(2.0, 1.0, 0.1)  # om_minus > om_plus


def test_equal_product_frozen_values():
    *got, int_b2 = analytic.exact_block(1.0, 4.0, 1.0, 1.0)
    assert np.allclose(got, EQP_FROZEN, rtol=1e-14, atol=1e-22)
    assert np.isclose(int_b2, EQP_INT_B2_T1, rtol=1e-14)
    # the total integral is exactly 1/16: 32 int b^2 = tr(Om_0 - Om_inf) = 2
    assert np.isclose(analytic.exact_block(1.0, 4.0, 1.0, 1e5)[3],
                      1.0 / 16.0, rtol=1e-14)


def test_equal_product_flat_branch():
    lo, hi, b2, int_b2 = analytic.exact_block(2.0, 2.0, 1.0, 1.0)
    assert np.isclose(lo, 2.0 / 9.0, rtol=1e-15)
    assert np.isclose(hi, 2.0 / 9.0, rtol=1e-15)
    assert np.isclose(b2, 1.0 / 81.0, rtol=1e-15)
    assert np.isclose(int_b2, 1.0 / 9.0, rtol=1e-15)


def test_equal_product_manifold_guard():
    assert analytic.block_regime(2.0, 2.0, 1.0) == "equal-product"
    assert analytic.block_regime(1.0, 2.0, 0.5) == "generic"
    # b = 0 does not decide the regime: the sign of om_+ om_- does
    assert analytic.block_regime(1.0, 2.0, 0.0) == "generic"
    assert analytic.block_regime(0.0, 2.0, 0.0) == "equal-product"
    assert analytic.block_regime(0.0, 0.0, 0.0) == "equal-product"


@given(st.integers(0, 10**6))
def test_equal_product_stays_on_manifold(seed):
    rng = np.random.default_rng(seed)
    om_minus = rng.uniform(0.05, 2.0)
    om_plus = om_minus * rng.uniform(1.0, 4.0)
    b = np.sqrt(om_minus * om_plus) / 2.0
    t = rng.uniform(0.0, 3.0)
    assert analytic.block_regime(om_minus, om_plus, b) == "equal-product"
    lo, hi, b2, _ = analytic.exact_block(om_minus, om_plus, b, t)
    assert abs(lo * hi - 4.0 * b2) < 1e-12 * max(1.0, lo * hi)
    # the splitting om_plus - om_minus is conserved along the flow
    assert np.isclose(hi - lo, om_plus - om_minus, rtol=1e-10, atol=1e-12)


@given(st.integers(0, 10**6))
def test_generic_solves_the_block_ode(seed):
    rng = np.random.default_rng(seed)
    om_minus = rng.uniform(0.1, 2.0)
    om_plus = om_minus * rng.uniform(1.0, 3.0)
    b = 0.9 * np.sqrt(om_minus * om_plus) / 2.0 * rng.uniform(0.1, 1.0)
    t = rng.uniform(0.01, 2.0)
    h = 1e-7
    assert analytic.block_regime(om_minus, om_plus, b) == "generic"
    lo0, hi0, b20, _ = analytic.exact_block(om_minus, om_plus, b, t)
    lo1, hi1, b21, _ = analytic.exact_block(om_minus, om_plus, b, t + h)
    scale = max(1.0, b20)
    # d om/dt = -16 b^2 and d(b^2)/dt = -4 (om_- + om_+) b^2
    assert abs((lo1 - lo0) / h + 16.0 * b20) < 2e-4 * max(1.0, abs(lo0))
    assert abs((b21 - b20) / h + 4.0 * (lo0 + hi0) * b20) < 2e-4 * scale
    assert np.isclose(hi0 - lo0, om_plus - om_minus, rtol=1e-10, atol=1e-12)


def test_blowup_frozen_values():
    assert analytic.block_regime(0.0, 0.0, 1.0) == "blowup"
    om, om_plus, bt2, int_b2 = analytic.exact_block(0.0, 0.0, 1.0, 0.15)
    assert om == om_plus
    assert np.isclose(om, BLOWUP_OM_015, rtol=1e-14)
    assert np.isclose(np.sqrt(bt2), BLOWUP_B_015, rtol=1e-14)
    assert np.isclose(analytic.blowup_time(1.0), BLOWUP_TMAX, rtol=1e-15)
    assert np.isclose(analytic.blowup_time(1.0), np.pi / 16.0, rtol=1e-15)
    assert np.isclose(int_b2, BLOWUP_INT_B2_015, rtol=1e-14)


def test_blowup_with_b_inside_the_product_tolerance():
    # 4 b^2 = 4e-14 lies inside PRODUCT_TOL of a zero product, yet b > 0 at
    # Omega = 0 blows up: the flat equal-product form would hold b_t = 0
    b = 1e-7
    assert analytic.block_regime(0.0, 0.0, b) == "blowup"
    t = np.array([0.0, 0.5, 1.0])
    om, om_plus, bt2, int_b2 = analytic.exact_block(0.0, 0.0, b, t)
    tan = np.tan(8.0 * b * t)
    assert np.array_equal(om, -2.0 * b * tan) and np.array_equal(om_plus, om)
    assert np.array_equal(bt2, (b * np.sqrt(tan ** 2 + 1.0)) ** 2)
    assert np.array_equal(int_b2, b * tan / 8.0)
    assert bt2[0] == b * b and int_b2[2] > 0.0


def test_blowup_guards():
    with pytest.raises(PastBlowup):
        analytic.exact_block(0.0, 0.0, 1.0, np.pi / 16.0)
    with pytest.raises(PastBlowup):
        analytic.exact_block(0.0, 0.0, 1.0, [0.1, 0.2])
    # b = 0 at Omega = 0 is the flat equal-product block at rest, not a blow-up
    assert analytic.block_regime(0.0, 0.0, 0.0) != "blowup"
    with pytest.raises(ValueError):
        analytic.exact_block(0.0, 0.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        analytic.exact_block(0.0, 0.0, 1.0, -0.1)


def test_block_spec_assembly():
    spec = analytic.block_spec([(1.0, 2.0, 0.5), (3.0, 3.0, 1.0)], c0=2.5)
    assert spec.dim == 4 and spec.c0 == 2.5
    assert np.allclose(np.diag(spec.omega).real, [1, 2, 3, 3])
    assert spec.b[0, 1] == 0.5 and spec.b[2, 3] == 1.0
    single = analytic.block_spec((1.0, 2.0, 0.5))
    assert single.dim == 2
    with pytest.raises(ValueError):
        analytic.block_spec([])


def test_exact_limit_block():
    lim = analytic.exact_limit_block([(1.0, 2.0, 0.5)]).mat
    assert np.allclose(np.diag(lim).real, [GOLDEN_LO, GOLDEN_HI], atol=1e-12)
    two = analytic.exact_limit_block([(1.0, 2.0, 0.5), (2.0, 2.0, 0.5)]).mat
    assert two.shape == (4, 4)
    assert np.allclose(np.diag(two).real[2:], np.sqrt(3.0), atol=1e-12)
    with pytest.raises(NotInRegime):
        analytic.exact_limit_block([(1.0, 2.0, 0.8)])


def _limit_reference(om_minus, om_plus, b):
    """((rho - delta)/2, (rho + delta)/2), rho = sqrt(sigma^2 - 16 b^2), the
    textbook limit of a block, in decimal from the exact inputs.  For double
    inputs each of its two cancellations takes at most about 1300 of the
    3000 digits, which leaves more than 60 correct."""
    with decimal.localcontext(prec=3000):
        m, p, bb = map(Decimal, (om_minus, om_plus, b))
        rho = ((m + p) ** 2 - 16 * bb * bb).sqrt()
        return (rho - (p - m)) / 2, (rho + (p - m)) / 2


@pytest.mark.parametrize("block, bound", [
    ((1e-8, 1.0, 4e-5), 1e-15), ((1e-12, 1.0, 4e-7), 1e-15), ((1.0, 2.0, 0.5), 1e-15),
    ((1e-300, 1e300, 1e-10), 1e-15),
    # near the manifold, where sqrt(sigma^2 - 16 b^2) cancelled: 7.2e-15 before
    ((2.0, 2.0, 0.999), 7.2e-15),
    # a gap formed in floats is off by 4e-11 and 1.9e-8 relative on the
    # next two, and underflows on the last two
    ((1.0, 1.0, 0.4999999), 1e-15), ((3.0, 7.0, math.sqrt(21.0) / 2 * (1 - 1e-9)), 1e-15),
    ((1e-200, 1e-200, 1e-201), 1e-15), ((1e-200, 1e-160, 1e-181), 1e-15),
])
def test_exact_limit_block_against_a_decimal_reference(block, bound):
    # the small entry was off by 1.6e-8 and 1.3e-4 relative on the first
    # two blocks, and nan on the fourth
    got = np.diag(analytic.exact_limit_block([block]).mat)
    assert not got.imag.any()
    for value, want in zip(got.real, _limit_reference(*block)):
        assert abs((Decimal(float(value)) - want) / want) <= bound


def test_exact_limit_block_is_closed_form(monkeypatch):
    # no eigensolver: a block at rest keeps its entries, and an
    # equal-product block with delta = 0 relaxes to zero
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, None)
    lim = analytic.exact_limit_block([(0.3, 0.7, 0.0), (1.0, 1.0, 0.5), (0.0, 0.0, 0.0)])
    assert np.array_equal(np.diag(lim.mat), [0.3, 0.7, 0.0, 0.0, 0.0, 0.0])


def test_limit_matches_generic_long_time():
    lim = analytic.exact_limit_block([(1.0, 2.0, 0.5)]).mat
    lo, hi, _, _ = analytic.exact_block(1.0, 2.0, 0.5, 50.0)
    assert np.allclose(np.diag(lim).real, [lo, hi], atol=1e-12)


def test_pivotal_family():
    spec = analytic.pivotal_family(3)
    assert spec.dim == 6
    assert np.isclose(spec.b[0, 1], 0.5)
    assert np.isclose(spec.omega[0, 0].real, np.sqrt(2.0))
    # every block sits strictly inside the gap regime: om^2 = 8 b^2 > 4 b^2
    for k in range(3):
        om = spec.omega[2 * k, 2 * k].real
        b = spec.b[2 * k, 2 * k + 1].real
        assert om * om - 4 * b * b > 0
    with pytest.raises(OutOfRange):
        analytic.pivotal_family(0)


def test_families_are_the_specs_of_their_blocks():
    for spec, blocks, label in ((analytic.pivotal_family(3, c0=0.5), analytic.pivotal_blocks(3),
                                 "pivotal-3"),
                                (analytic.mixed_family(0.6, 4, c0=0.5),
                                 analytic.mixed_blocks(0.6, 4), "mixed-0.6-4")):
        ref = analytic.block_spec(blocks, c0=0.5, label=label)
        assert spec.label == label and spec.c0 == 0.5
        assert np.array_equal(spec.omega, ref.omega) and np.array_equal(spec.b, ref.b)


def test_pivotal_hs_norm_frozen():
    spec = analytic.pivotal_family(12)
    assert np.isclose(np.linalg.norm(spec.b), 0.816496556594231336876, rtol=1e-14)


def test_mixed_family():
    spec = analytic.mixed_family(0.6, 4)
    assert spec.dim == 8
    assert np.isclose(spec.b[0, 1], 0.6)
    assert np.isclose(spec.omega[2, 2].real, (3.0 / 4.0) ** 2)
    for bad in (0.5, 1.0 / np.sqrt(2.0), 0.2, 0.9):
        with pytest.raises(OutOfRange):
            analytic.mixed_family(bad, 4)
    with pytest.raises(OutOfRange):
        analytic.mixed_family(0.6, 1)


EPS = 2.0 ** -52
TINY = 2.0 ** -1074  # the spacing of subnormal floats
# exact_block against analytic_reference on 3000 blocks of gapped_blocks,
# at the times of the test below: worst 3.8 ulps on om_-, 1.8 on om_+, 2.1
# on int b^2 and 3.6 on b_t^2 beyond its 4 rho t
ULPS = 8


def _below(lo: int, hi: int):
    """1 - 2^-j for j in [lo, hi]: a factor just below 1."""
    return st.integers(lo, hi).map(lambda j: 1.0 - 2.0 ** -j)


@st.composite
def gapped_blocks(draw):
    """A block at scale 2^-500..2^500 with a nonnegative exact gap: generic,
    with om_- up to 2^-200 om_+ or b near the manifold, or equal-product,
    built exactly on the manifold from integers u <= v, flat when u = v."""
    k = draw(st.integers(-500, 500))
    if draw(st.booleans()):
        u = draw(st.integers(1, 2 ** 20))
        v = draw(st.one_of(st.just(u), st.just(u + 1), st.integers(u, 2 ** 20)))
        s = 2.0 ** (k - 2 * v.bit_length())
        return s * u * u, s * v * v, s * u * v / 2
    ratio = draw(st.one_of(st.floats(0.0, 1.0), _below(1, 40),
                           st.integers(1, 200).map(lambda j: 2.0 ** -j)))
    f = draw(st.one_of(st.floats(0.0, 1.0), _below(1, 18)))
    s = 2.0 ** k
    return s * ratio, s, s * f * math.sqrt(ratio) / 2


@example(block=(1e-12, 1.0, 4e-7))  # om_-(t) was off by 1.3e-4 relative
@example(block=(0.001, 1000.0, 0.5))  # a gap of 4.4e-17, taken as 0: off by 1.0
@example(block=(2.0, 2.0, 1.0))  # int b^2 at t = 1e-9 / sigma was off by 1e-9
@given(block=gapped_blocks())
def test_exact_block_against_a_decimal_reference(block):
    # om_+ and int b^2 within ULPS relative; b_t^2 within ULPS + 4 rho t,
    # the conditioning of e^{-4 rho t}, or within eps b^2 once it decays
    # below that; om_- within ULPS, or eps times 4 b^2/om_+, the share of
    # om_- that b_t carries, once that decays; and every value within ULPS
    # subnormal spacings, where it has fewer digits
    om_minus, om_plus, b = block
    assume(Fraction(om_plus) * Fraction(om_minus) >= 4 * Fraction(b) ** 2)
    rho = math.hypot(om_plus - om_minus, 2.0 * math.sqrt(max(om_plus * om_minus - 4 * b * b, 0)))
    rate = rho or om_plus + om_minus
    for c in (0.0, 1e-9, 0.05, 0.5, 3.0, 40.0):
        t = c / rate
        got = analytic.exact_block(*block, t)
        floors = (4 * b / om_plus * b, 0.0, b * b, 0.0)
        for name, value, want, floor in zip(("om_-", "om_+", "b_t^2", "int b^2"), got,
                                            block_at(*block, t), floors):
            ulps = ULPS + (4 * rho * t if name == "b_t^2" else 0.0)
            err = abs(Decimal(value) - want)
            assert err <= Decimal(ulps * EPS) * want or err <= EPS * floor + ULPS * TINY, \
                (name, block, t)


@example(b=1.0)
@example(b=1e-7)
@example(b=1.734375)  # 8bt at the last float below T_max rounds to the double nearest pi/2
@example(b=2.0 ** -500)
@example(b=2.0 ** 500)
@given(b=st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-500, 500)))
def test_exact_blowup_against_a_decimal_reference(b):
    # the argument x = 8bt of tan is rounded once, by at most half an ulp,
    # so each value is the reference at a time within t (1 +- 2^-53), to
    # ULPS for the few roundings of its form; to first order that is ULPS +
    # cond(x) ulps with cond(x) = x / (sin x cos x), but not where the
    # rounding is as large as the distance to the pole: at b = 1.734375 the
    # last float below T_max rounds x from 1.7e-16 below pi/2 to the double
    # nearest pi/2, 6.1e-17 below it, and b_t^2 is 7.4 times the true value.
    # Where t (1 + 2^-53) is past the blow-up, or b_t^2 there past the
    # float range, the value has no upper bound.  Over 3000 draws the worst
    # value lay 2.2 ulps outside its interval on b_t^2, 0.65 on om and int b^2
    tmax = analytic.blowup_time(b)
    for t in [c * tmax for c in (0.0, 1e-9, 0.05, 0.5, 0.9, 1.0 - 2.0 ** -20)] \
            + [math.nextafter(tmax, 0.0)]:
        om, om_plus, bt2, ib = analytic.exact_block(0.0, 0.0, b, t)
        assert om_plus == om
        with decimal.localcontext(prec=HIGH):
            lo, hi = (blowup_at(b, Decimal(t) * (1 + s * Decimal(2) ** -53)) for s in (-1, 1))
        slack = Decimal(ULPS * EPS)
        for name, value, low, high in zip(("om", "b_t^2", "int b^2"), (om, bt2, ib), lo, hi):
            top = abs(high) * (1 + slack)
            if hi[2] < 0 or top >= Decimal(sys.float_info.max):  # tan < 0: past pi/2
                top = Decimal("Infinity")
            assert abs(low) * (1 - slack) <= abs(Decimal(value)) <= top, (name, b, t)


def test_exact_block_passes_the_float_range_without_warnings():
    # b_t^2 past the float range is inf, returned quietly; the product and
    # the power that formed it each warned of an overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert analytic.exact_block(7.9e158, 7.9e158, 3.9e158, 0.0)[2] == math.inf
        t = 0.5 * analytic.blowup_time(1e200)
        assert analytic.exact_block(0.0, 0.0, 1e200, t)[2] == math.inf


def _int_b2_by_quadrature(block, t, nodes=64):
    """int_0^t b(tau)^2 dtau by Gauss-Legendre quadrature of exact_block's b^2."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * t * float(w @ analytic.exact_block(*block, 0.5 * t * (x + 1.0))[2])


NARROW = 1.0 + 2.0 ** -20  # om_+ of an equal-product block with delta = 2^-20


@pytest.mark.parametrize("block, t", [
    ((1.0, 2.0, 1e-9), 1.0),  # rho = sigma to rounding: was nan
    ((1.0, 2.0, 0.5), 1.0),
    ((1.0, 2.0, 0.5), 1e-6),
    ((1e-6, 1e-6, 1e-7), 1.0),
    ((1.0, 4.0, 1.0), 1.0),
    ((1.0, 4.0, 1.0), 1e-6),
    ((1.0, NARROW, np.sqrt(NARROW) / 2.0), 1.0),  # lost 5 digits to 1/delta - 1/den
], ids=["generic-tiny-b", "generic", "generic-small-t", "generic-small-scale",
        "eqp", "eqp-small-t", "eqp-small-delta"])
def test_int_b2_matches_quadrature(block, t):
    got = analytic.exact_block(*block, t)[3]
    assert got == pytest.approx(_int_b2_by_quadrature(block, t), rel=1e-13)


@pytest.mark.parametrize("block", [
    (1.0, 2.0, 0.5), (1.0, 4.0, 1.0), (2.0, 2.0, 1.0), (1.0, 2.0, 0.8), (0.0, 0.0, 1.0),
    (0.0, 2.0, 0.0), (0.0, 1.0, 1e-7), (1e-6, 1e-6, 1e-7)])
def test_block_regime_does_not_depend_on_the_scale(block):
    # the product-gap tolerance was relative to max(1, om_+ om_-), so that
    # small blocks with a clear gap fell into the equal-product regime
    regime = analytic.block_regime(*block)
    for k in (-60, -30, -1, 1, 30, 60):
        assert analytic.block_regime(*(2.0 ** k * x for x in block)) == regime


@pytest.mark.parametrize("block", [
    (1.0, 2.0, 0.5), (1.0, 4.0, 1.0), (2.0, 2.0, 1.0), (1.0, 1.5, np.sqrt(1.5) / 2.0)])
def test_exact_block_is_scale_covariant(block):
    # (Omega, B, t) -> (s Omega, s B, t / s) maps the block's flow onto
    # itself; the tolerances that pick the regime and the flat branch
    # were absolute below unit scale, so small copies took another form
    ts = np.array([0.0, 0.25, 1.0, 3.0])
    want = np.array(analytic.exact_block(*block, ts))
    for k in (-50, -20, 20):
        s = 2.0 ** k
        got = np.array(analytic.exact_block(*(s * x for x in block), ts / s))
        powers = np.array([s, s, s * s, s])[:, np.newaxis]
        assert np.allclose(got / powers, want, rtol=1e-14, atol=0.0)
