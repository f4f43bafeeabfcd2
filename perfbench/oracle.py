"""Independent correctness gates, computed with numpy alone.

The limit of the flow is fixed by the bosonic Bogoliubov-de Gennes (BdG)
matrix D = [[Omega, 2B], [-2 B~, -Omega~]] (Colpa, Physica A 93, 327,
1978): the eigenvalues of OmegaInf are the positive eigenvalues eps_k of
D, and C_inf = C0 + (sum_k eps_k - tr Omega0) / 2.  The check works at
any n and does not use the flow, the closed-form blocks or the Fock
oracle.

Tolerances are the acceptance gates of the test suite for the same
quantity (tests/test_acceptance.py) or the library's own constants;
none is looser.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LIMIT_TOL = 1e-6      # AC-1 / AC-5: limit eigenvalues vs closed form
ROUNDTRIP_TOL = 1e-6  # AC-6: transform_spec(u, v) vs the flow state
UNITARITY_TOL = 1e-6  # unitarity of the Fock propagator on interior sectors
GROUND_TOL = 1e-4     # AC-7: truncated ground energy vs cInf


@dataclass
class BdG:
    eps: np.ndarray    # positive BdG eigenvalues, ascending
    c_inf: float
    max_imag: float    # largest |Im| among the eigenvalues of D


def bdg_limit(omega: np.ndarray, b: np.ndarray, c0: float) -> BdG:
    n = omega.shape[0]
    d = np.block([[omega, 2.0 * b], [-2.0 * b.conj(), -omega.conj()]])
    ev = np.linalg.eigvals(d)
    eps = np.sort(ev.real)[n:]
    c_inf = float(c0 + 0.5 * (eps.sum() - np.trace(omega).real))
    return BdG(eps=eps, c_inf=c_inf, max_imag=float(np.abs(ev.imag).max()))


def limit_errors(oracle: BdG, omega_inf: np.ndarray, c_inf: float) -> tuple:
    """(largest eigenvalue error, C error) of a limit, both absolute."""
    eig = np.linalg.eigvalsh((omega_inf + omega_inf.conj().T) / 2)
    return (float(np.max(np.abs(eig - oracle.eps))), abs(c_inf - oracle.c_inf))


def limit_ok(oracle: BdG, omega_inf: np.ndarray, c_inf: float) -> tuple:
    """(passed, message) for a limit against the BdG oracle.

    A BdG matrix with complex eigenvalues has no bounded-below diagonal
    form, so such a spec fails whatever the flow printed.
    """
    e_eig, e_c = limit_errors(oracle, omega_inf, c_inf)
    ok = (oracle.max_imag <= 1e-8 * max(1.0, float(oracle.eps[-1]))
          and max(e_eig, e_c) <= LIMIT_TOL)
    return ok, (f"limit vs BdG: eig err {e_eig:.3e}, C err {e_c:.3e} "
                f"(tol {LIMIT_TOL:g})")


def parse_floats_after(text: str, prefix: str) -> list:
    """Floats printed on the first line starting with prefix."""
    for line in text.splitlines():
        if line.startswith(prefix):
            rest = line[len(prefix):]
            return [float(tok) for tok in rest.replace(",", " ").split()
                    if _is_float(tok)]
    raise ValueError(f"no line starting with {prefix!r}")


def _is_float(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True
