"""Initial-data conditions and their margins.

The ladder of conditions on a spec (Omega_0, B_0):

* A1: Omega_0 hermitian with Omega_0 >= 0.
* A2: B_0 symmetric.
* A3: Omega_0 invertible on the range of B_0 and
      Omega_0 >= 4 B_0 (Omega_0^t)^{-1} B_0~.
* A4: ||Omega_0^{-1/2} B_0||_2 finite.
* A5: 1 > 4 B_0 (Omega_0^t)^{-2} B_0~ strictly, and
      ||Omega_0^{-1-eps} B_0||_2 finite for some eps > 0; the relaxed form
      asks for the largest r with 1 >= (4 + r) B_0 (Omega_0^t)^{-2} B_0~.
* A6: A3 with a spectral gap nu > 0:  Omega_0 - 4 B_0 (Omega_0^t)^{-1} B_0~ >= nu.

Two sufficient real-matrix criteria:

* FB: Omega_0 +- 2 B_0 >= 0 with positive margin implies A1 and A6.
* KM: Omega_0 + 2 B_0 >= nu_- > 0 and Omega_0 - 2 B_0 + P >= nu_+ > 0,
  where P projects onto the subspace on which Omega_0 - 2 B_0 vanishes;
  together these give Omega_0 >= nu_-/2.

Every check returns a partial ConditionReport with verdicts, margins (the
minimum eigenvalue of the tested inequality) and auxiliary values.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import KernelOverlap, NotReal
from .opcore import (OneParticleOperator, QuadraticSpec, _pow2_scale, as_matrix, hs_norm,
                     hs_scale, min_eig_hermitian)

DEFAULT_TOL = 1e-10
DEFAULT_EPS = 0.5
# Sandwiches' default kernel tolerance, relative to max(1, ||Omega||_2).
KER_TOL = 1e-10


class ConditionReport:
    """Partial or merged outcome of condition checks: verdicts, margins and
    values by name, each a new dict unless one is given."""

    def __init__(self, verdicts: Optional[dict] = None, margins: Optional[dict] = None,
                 values: Optional[dict] = None):
        self.verdicts = {} if verdicts is None else verdicts
        self.margins = {} if margins is None else margins
        self.values = {} if values is None else values

    def merge(self, other: "ConditionReport") -> "ConditionReport":
        self.verdicts.update(other.verdicts)
        self.margins.update(other.margins)
        self.values.update(other.values)
        return self

    def holds(self, name: str) -> bool:
        return self.verdicts.get(name) == "holds"


def check_a1_a2(spec: QuadraticSpec, tol: float = DEFAULT_TOL) -> ConditionReport:
    """A1 (Omega_0 hermitian PSD) and A2 (B_0 symmetric)."""
    rep = ConditionReport()
    scale = hs_scale(spec.omega)
    me = min_eig_hermitian(spec.omega)
    rep.margins["A1"] = me
    rep.verdicts["A1"] = "holds" if me >= -tol * scale else "fails"
    rep.values["omega_defect"] = spec.omega0.defect

    hsb = hs_norm(spec.b)
    rep.margins["A2"] = hsb
    sym_ok = spec.b0.defect <= tol
    rep.verdicts["A2"] = "holds" if sym_ok else "fails"
    rep.values["b_defect"] = spec.b0.defect
    rep.values["hs_b0"] = hsb
    return rep


class Sandwiches:
    """The matrices B (Omega^t)^{-p} B~ and their norms for one pair (B,
    Omega), all from one eigh of hermitian Omega^t: a caller that needs
    several powers p, or both a matrix and a norm, factors Omega^t once.

    The inverse power is taken on the orthogonal complement of the kernel
    of Omega^t, its eigenvalues below ``ker_tol * max(1, ||Omega||_2)``.
    If any kernel eigenvector w fails B w = 0 within tolerance, every
    sandwich is genuinely singular and the constructor raises
    KernelOverlap.  ``p`` may be any positive real; the case of interest is
    integer p.
    """

    def __init__(self, b, omega, ker_tol: float = KER_TOL):
        bm = as_matrix(b)
        om = as_matrix(omega)
        omt = om.T
        omt = (omt + omt.conj().T) / 2  # hermitian when omega is
        vals, vecs = np.linalg.eigh(omt)
        thresh = ker_tol * hs_scale(om)
        kernel = vals <= thresh
        if np.any(kernel):
            bnorm = hs_norm(bm)
            overlap = np.linalg.norm(bm @ vecs[:, kernel], axis=0)
            if np.any(overlap > ker_tol * max(1.0, bnorm)):
                worst = float(np.max(overlap))
                raise KernelOverlap(
                    f"B has overlap {worst:.3e} with the kernel of Omega^t "
                    f"(threshold {thresh:.3e})")
        self.b, self.vals, self.vecs, self.kernel = bm, vals, vecs, kernel
        self._mats = {}  # matrix(p) by p

    def matrix(self, p=1) -> OneParticleOperator:
        """Hermitian PSD matrix B (Omega^t)^{-p} B~, computed once per p."""
        if p <= 0:
            raise ValueError("p must be positive")
        if p not in self._mats:
            vals, vecs, kernel, bm = self.vals, self.vecs, self.kernel, self.b
            inv_vals = np.where(kernel, 0.0, 1.0 / np.where(kernel, 1.0, vals)**p)
            core = (vecs * inv_vals) @ vecs.conj().T
            r = bm @ core @ bm.conj()
            self._mats[p] = OneParticleOperator.hermitian((r + r.conj().T) / 2,
                                                          sym_tol=np.inf)
        return self._mats[p]

    def norm(self, p=1) -> float:
        """||B (Omega^t)^{-p/2}||_2, which for symmetric B is
        sqrt(tr matrix(p)).

        With Omega^t = sum_k lam_k w_k w_k*, the norm is the 2-norm of
        ||B w_k||_2 lam_k^{-p/2} over k.  It is summed relative to the
        smallest lam_k and no weight is squared, and the column norms
        ||B w_k||_2 are taken of B / _pow2_scale(B), so it is finite
        wherever the norm itself is, also for entries above about 1e154,
        where the plain sums of squares overflow, and where the sandwich's
        lam^-p overflows; a norm past the largest float is inf.
        """
        if p <= 0:
            raise ValueError("p must be positive")
        bm, keep = self.b, ~self.kernel
        lams = self.vals[keep]
        if not lams.size:
            return 0.0
        scale = _pow2_scale(bm)
        cols = np.linalg.norm((bm / scale) @ self.vecs[:, keep], axis=0)
        lam_min = float(lams[0])
        rel = scale * math.hypot(*(cols * (lam_min / lams) ** (0.5 * p)))  # each factor <= 1
        if rel == 0.0:
            return 0.0
        try:
            return rel * lam_min ** (-0.5 * p)
        except OverflowError:  # the weight overflows; the norm may not
            try:
                return math.exp(math.log(rel) - 0.5 * p * math.log(lam_min))
            except OverflowError:
                return math.inf


def _sandwiches(spec: QuadraticSpec, tol: float):
    """The sandwiches of spec's B over Omega_0^t at kernel tolerance tol, or
    the KernelOverlap that refuses them, for A3-A6 to share."""
    try:
        return Sandwiches(spec.b, spec.omega, ker_tol=tol)
    except KernelOverlap as exc:
        return exc


def _check_a3_a6(spec: QuadraticSpec, tol: float, sw) -> ConditionReport:
    """A3 and A6 through D = Omega_0 - 4 B_0 (Omega_0^t)^{-1} B_0~, with sw
    from _sandwiches."""
    rep = ConditionReport()
    scale = hs_scale(spec.omega)
    if isinstance(sw, KernelOverlap):
        rep.verdicts["A3"] = "fails"
        rep.verdicts["A6"] = "fails"
        rep.margins["A3"] = -np.inf
        rep.values["gap_nu"] = 0.0
        rep.values["kernel_overlap"] = str(sw)
        return rep
    d = spec.omega - 4.0 * sw.matrix(1).mat
    margin = min_eig_hermitian(d)
    rep.margins["A3"] = margin
    rep.margins["A6"] = margin
    gap_nu = max(margin, 0.0)
    rep.values["gap_nu"] = gap_nu
    rep.verdicts["A3"] = "holds" if margin >= -tol * scale else "fails"
    rep.verdicts["A6"] = "holds" if margin > tol * scale else "fails"
    return rep


def _check_a4_a5(spec: QuadraticSpec, eps: float, tol: float, sw) -> ConditionReport:
    """A4 and A5 with the relaxed constant r and weighted norms, with sw
    from _sandwiches.

    values carries a4_norm = ||Omega^{-1/2} B||_2, a5_norm =
    ||Omega^{-1-eps} B||_2, r_const (largest r with 1 >= (4+r) E, E the
    p = 2 sandwich; +inf when B vanishes on the relevant subspace) and eps.
    """
    rep = ConditionReport()
    rep.values["eps"] = float(eps)
    scale = 1.0  # the tested inequality 1 >= 4 E is already scale-free
    if isinstance(sw, KernelOverlap):
        rep.verdicts["A4"] = "fails"
        rep.verdicts["A5"] = "fails"
        rep.margins["A5"] = -np.inf
        rep.values["kernel_overlap"] = str(sw)
        rep.values["r_const"] = -4.0
        return rep
    e1, e2 = sw.matrix(1), sw.matrix(2)
    rep.values["a4_norm"] = float(np.sqrt(max(np.trace(e1.mat).real, 0.0)))
    rep.values["a5_norm"] = sw.norm(2.0 + 2.0 * eps)
    # a sandwich past the float range leaves the norm nan or inf
    rep.verdicts["A4"] = "holds" if np.isfinite(rep.values["a4_norm"]) else "undetermined"
    rep.margins["A4"] = rep.values["a4_norm"]
    if not np.isfinite(e2.mat).all():
        # eigvalsh may not converge on a non-finite sandwich
        rep.verdicts["A5"] = "undetermined"
        return rep

    lam_max = float(np.linalg.eigvalsh((e2.mat + e2.mat.conj().T) / 2)[-1])
    eye = np.eye(spec.dim)
    margin = min_eig_hermitian(eye - 4.0 * e2.mat)
    rep.margins["A5"] = margin
    rep.values["r_const"] = np.inf if lam_max <= tol * tol else 1.0 / lam_max - 4.0
    rep.verdicts["A5"] = "holds" if margin > tol * scale else "fails"
    return rep


def _require_real(spec: QuadraticSpec, tol: float) -> tuple:
    om_imag = float(np.max(np.abs(spec.omega.imag))) if spec.dim else 0.0
    b_imag = float(np.max(np.abs(spec.b.imag))) if spec.dim else 0.0
    if om_imag > tol * hs_scale(spec.omega) or b_imag > tol * hs_scale(spec.b):
        raise NotReal(
            f"real-matrix criterion on a complex spec (|Im Omega| = {om_imag:.3e}, "
            f"|Im B| = {b_imag:.3e})")
    return spec.omega.real, spec.b.real


def check_friedrichs_berezin(spec: QuadraticSpec, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Real-matrix criterion Omega_0 +- 2 B_0 >= 0 with margin.

    A positive margin guarantees A1 and A6.
    """
    om, b = _require_real(spec, tol)
    rep = ConditionReport()
    lo_minus = min_eig_hermitian(om - 2.0 * b)
    lo_plus = min_eig_hermitian(om + 2.0 * b)
    margin = min(lo_minus, lo_plus)
    rep.margins["FB"] = margin
    rep.values["fb_minus"] = lo_minus
    rep.values["fb_plus"] = lo_plus
    rep.verdicts["FB"] = "holds" if margin >= tol * hs_scale(om) else "fails"
    return rep


def check_kato_mugibayashi(spec: QuadraticSpec, tol: float = DEFAULT_TOL) -> ConditionReport:
    """Real-matrix criterion with a compensating projector.

    P is built from the eigenvectors of Omega_0 - 2 B_0 with eigenvalue below
    tol; the condition asks Omega_0 + 2 B_0 >= nu_- > 0 and
    Omega_0 - 2 B_0 + P >= nu_+ > 0.  When it holds, Omega_0 >= nu_-/2.
    """
    om, b = _require_real(spec, tol)
    rep = ConditionReport()
    scale = hs_scale(om)
    m_minus = (om - 2.0 * b + (om - 2.0 * b).T) / 2
    vals, vecs = np.linalg.eigh(m_minus)
    kernel = vals < tol * scale
    p = vecs[:, kernel] @ vecs[:, kernel].T
    nu_minus = min_eig_hermitian(om + 2.0 * b)
    nu_plus = min_eig_hermitian(m_minus + p)
    rep.values["nu_minus"] = nu_minus
    rep.values["nu_plus"] = nu_plus
    rep.values["p_rank"] = int(kernel.sum())
    rep.margins["KM"] = min(nu_minus, nu_plus)
    ok = nu_minus > tol * scale and nu_plus > tol * scale
    rep.verdicts["KM"] = "holds" if ok else "fails"
    if ok:
        rep.values["omega_lower_bound"] = nu_minus / 2.0
    return rep


def check_all(spec: QuadraticSpec, tol: float = DEFAULT_TOL,
              eps: float = DEFAULT_EPS) -> ConditionReport:
    """Run the full ladder; downstream checks are undetermined when A1 or A2
    fail.  A3-A6 share one factorization of Omega_0^t and one p = 1
    sandwich (see Sandwiches)."""
    rep = check_a1_a2(spec, tol)
    if rep.holds("A1") and rep.holds("A2"):
        sw = _sandwiches(spec, tol)
        rep.merge(_check_a3_a6(spec, tol, sw))
        rep.merge(_check_a4_a5(spec, eps, tol, sw))
    else:
        for name in ("A3", "A4", "A5", "A6"):
            rep.verdicts[name] = "undetermined"
    try:
        rep.merge(check_friedrichs_berezin(spec, tol))
        rep.merge(check_kato_mugibayashi(spec, tol))
    except NotReal as exc:
        rep.verdicts["FB"] = "undetermined"
        rep.verdicts["KM"] = "undetermined"
        rep.values["not_real"] = str(exc)
    return rep
