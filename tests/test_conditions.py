import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bwflow import conditions, opcore
from bwflow.analytic import block_spec, mixed_family
from bwflow.errors import KernelOverlap
from bwflow.opcore import QuadraticSpec, Sandwiches, min_eig_hermitian


def spec_of(omega, b, **kw):
    return QuadraticSpec.from_matrices(omega, b, **kw)


def test_generic_block_ladder():
    rep = conditions.check_all(block_spec([(1.0, 2.0, 0.5)]))
    assert rep.holds("A1") and rep.holds("A2")
    assert rep.holds("A3") and rep.holds("A4") and rep.holds("A6")
    assert np.isclose(rep.margins["A3"], 0.5)
    assert np.isclose(rep.values["gap_nu"], 0.5)
    # 4 b^2 / om_minus^2 = 1 exactly: the strict p=2 inequality just fails
    assert not rep.holds("A5")
    assert abs(rep.margins["A5"]) < 1e-12
    assert np.isclose(rep.values["r_const"], 0.0, atol=1e-12)


def test_equal_product_block_is_borderline():
    rep = conditions.check_all(block_spec([(1.0, 4.0, 1.0)]))
    assert rep.holds("A3")              # margin 0 counts as holding
    assert abs(rep.margins["A3"]) < 1e-12
    assert not rep.holds("A6")


def test_a3_failure_margin():
    rep = conditions.check_a3_a6(block_spec([(1.0, 2.0, 0.8)]))
    assert not rep.holds("A3") and not rep.holds("A6")
    assert np.isclose(rep.margins["A3"], -0.56)


def test_blowup_spec_fails_a3():
    rep = conditions.check_all(block_spec([(0.0, 0.0, 1.0)]))
    assert rep.holds("A1") and rep.holds("A2")
    assert not rep.holds("A3")


def test_a4_norm_value():
    # tr B (Omega^t)^{-1} B~ = 1/8 + 1/4 for the generic block
    rep = conditions.check_a4_a5(block_spec([(1.0, 2.0, 0.5)]))
    assert np.isclose(rep.values["a4_norm"], np.sqrt(0.375))
    assert rep.values["eps"] == 0.5
    # tr B (Omega^t)^{-3} B~ = 1/4 (1 + 1/8) at the default eps = 1/2
    assert np.isclose(rep.values["a5_norm"], np.sqrt(0.28125))


def test_friedrichs_berezin_margins():
    rep = conditions.check_friedrichs_berezin(
        spec_of(np.diag([2.0, 2.0]), [[0.0, 0.5], [0.5, 0.0]]))
    assert rep.holds("FB")
    assert np.isclose(rep.values["fb_minus"], 1.0)
    assert np.isclose(rep.values["fb_plus"], 1.0)
    assert np.isclose(rep.margins["FB"], 1.0)


def test_kato_mugibayashi_projector():
    # Omega - 2B = [[2,-2],[-2,2]] vanishes on (1,1)/sqrt(2); P has rank 1,
    # but nu_minus = 0 on the same vector flipped, so KM still fails
    rep = conditions.check_kato_mugibayashi(
        spec_of(np.diag([2.0, 2.0]), [[0.0, 1.0], [1.0, 0.0]]))
    assert rep.values["p_rank"] == 1
    assert np.isclose(rep.values["nu_plus"], 1.0)
    assert abs(rep.values["nu_minus"]) < 1e-12
    assert not rep.holds("KM")


def test_kato_mugibayashi_holds():
    rep = conditions.check_kato_mugibayashi(
        spec_of(np.diag([2.0, 2.0]), np.diag([1.0, 0.0])))
    assert rep.holds("KM")
    assert rep.values["p_rank"] == 1
    assert np.isclose(rep.values["omega_lower_bound"], 1.0)


def test_real_criteria_undetermined_on_complex_spec():
    rep = conditions.check_all(
        spec_of(np.diag([2.0, 2.0]), [[0.0, 0.5j], [0.5j, 0.0]]))
    assert rep.verdicts["FB"] == "undetermined"
    assert rep.verdicts["KM"] == "undetermined"
    assert rep.holds("A1") and rep.holds("A2")


def test_ladder_undetermined_when_a1_fails():
    rep = conditions.check_all(spec_of(np.diag([-1.0, 1.0]), np.zeros((2, 2))))
    assert not rep.holds("A1")
    for name in ("A3", "A4", "A5", "A6"):
        assert rep.verdicts[name] == "undetermined"


def test_mixed_family_head_violates_a5():
    rep = conditions.check_all(mixed_family(0.6, 3))
    assert rep.holds("A3") and rep.holds("A6")
    assert not rep.holds("A5")
    assert rep.values["r_const"] < 0


def _fb_pair(seed, n):
    """Omega, B with Omega +- 2B = R_i^t R_i + c, so FB holds by build."""
    rng = np.random.default_rng(seed)
    m_plus = rng.normal(size=(n, n))
    m_plus = m_plus.T @ m_plus + 0.1 * np.eye(n)
    m_minus = rng.normal(size=(n, n))
    m_minus = m_minus.T @ m_minus + 0.1 * np.eye(n)
    return (m_plus + m_minus) / 2.0, (m_plus - m_minus) / 4.0


@given(st.integers(0, 10**6), st.integers(1, 4))
def test_fb_implies_a1_and_a6(seed, n):
    omega, b = _fb_pair(seed, n)
    spec = spec_of(omega, b)
    rep = conditions.check_all(spec)
    assert rep.holds("FB")
    assert rep.holds("A1")
    assert rep.holds("A6")
    assert rep.values["gap_nu"] > 0


@given(st.integers(0, 10**6), st.integers(1, 4))
def test_km_lower_bound_on_omega(seed, n):
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(n, n))
    m_minus = r.T @ r  # allowed to be singular
    m_plus = rng.normal(size=(n, n))
    m_plus = m_plus.T @ m_plus + 0.2 * np.eye(n)
    omega = (m_plus + m_minus) / 2.0
    b = (m_plus - m_minus) / 4.0
    rep = conditions.check_kato_mugibayashi(spec_of(omega, b))
    if rep.holds("KM"):
        bound = rep.values["omega_lower_bound"]
        assert min_eig_hermitian(omega) >= bound - 1e-10


def test_check_all_report_merge_shape():
    rep = conditions.check_all(block_spec([(1.0, 2.0, 0.5)]))
    for name in ("A1", "A2", "A3", "A4", "A5", "A6", "FB", "KM"):
        assert rep.verdicts[name] in ("holds", "fails", "undetermined")


def seeded_spec(seed, n):
    """Random gapped complex spec: Omega eigenvalues in [1, 2], ||B||_op = 1/4."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    omega = (q * rng.uniform(1.0, 2.0, n)) @ q.conj().T
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = (g + g.T) / 2
    return spec_of((omega + omega.conj().T) / 2, 0.25 * b / np.linalg.norm(b, 2))


def per_call_ladder(spec, tol, eps):
    """A3-A5's margins and values from one Sandwiches per matrix and norm,
    each factoring Omega^t on its own."""
    b, om = spec.b, spec.omega
    try:
        e1 = Sandwiches(b, om, tol).matrix(1).mat
    except KernelOverlap as exc:
        return {"kernel_overlap": str(exc)}
    e2 = Sandwiches(b, om, tol).matrix(2).mat
    margin = min_eig_hermitian(om - 4.0 * e1)
    lam_max = float(np.linalg.eigvalsh((e2 + e2.conj().T) / 2)[-1])
    return {"A3": margin, "gap_nu": max(margin, 0.0),
            "a4_norm": float(np.sqrt(max(np.trace(e1).real, 0.0))),
            "a5_norm": Sandwiches(b, om, tol).norm(2.0 + 2.0 * eps),
            "A5": min_eig_hermitian(np.eye(spec.dim) - 4.0 * e2),
            "r_const": np.inf if lam_max <= tol * tol else 1.0 / lam_max - 4.0}


SHARED_FACTOR_SPECS = {
    "readme": block_spec([(1.0, 2.0, 0.5)]),
    "seeded-n8": seeded_spec(8, 8),
    "seeded-n64": seeded_spec(64, 64),
    "kernel-overlap": spec_of(np.diag([0.0, 1.0]), [[0.0, 1.0], [1.0, 0.0]]),
}


@pytest.mark.parametrize("name", sorted(SHARED_FACTOR_SPECS))
def test_check_all_factors_omega_once_and_matches_the_per_call_formulas(name, monkeypatch):
    spec = SHARED_FACTOR_SPECS[name]
    tol, eps = conditions.DEFAULT_TOL, 0.25
    made = []

    class Counted(opcore.Sandwiches):
        def __init__(self, *args, **kw):
            made.append(1)
            super().__init__(*args, **kw)

    monkeypatch.setattr(conditions, "Sandwiches", Counted)
    rep = conditions.check_all(spec, tol, eps)
    assert len(made) == 1
    want = per_call_ladder(spec, tol, eps)
    if "kernel_overlap" in want:
        assert rep.values["kernel_overlap"] == want["kernel_overlap"]
        assert [rep.verdicts[c] for c in ("A3", "A4", "A5", "A6")] == ["fails"] * 4
    else:
        got = {"A3": rep.margins["A3"], "gap_nu": rep.values["gap_nu"],
               "a4_norm": rep.values["a4_norm"], "a5_norm": rep.values["a5_norm"],
               "A5": rep.margins["A5"], "r_const": rep.values["r_const"]}
        assert got == want  # bit for bit
        assert rep.margins["A6"] == want["A3"] and rep.margins["A4"] == want["a4_norm"]
    # the checks on their own give check_all's verdicts, margins and values
    alone = conditions.check_a3_a6(spec, tol).merge(conditions.check_a4_a5(spec, eps, tol))
    for part in ("verdicts", "margins", "values"):
        assert getattr(alone, part).items() <= getattr(rep, part).items()
