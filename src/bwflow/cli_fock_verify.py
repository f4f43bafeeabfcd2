"""The fock-verify command: the run checked against truncated-Fock matrices."""

from __future__ import annotations

import math
import sys

import numpy as np

from . import flow, fock
from .cli import EXIT_OK, _controls, load_spec
from .errors import ParseError, SizeLimit
from .opcore import QuadraticSpec


def handle(args) -> int:
    spec = load_spec(args.spec)
    if spec.dim > 2:
        raise SizeLimit(f"fock-verify handles at most 2 modes, got {spec.dim}")
    controls = _controls(args)
    cutoff, sector_cut = args.cutoff, args.sector_cut
    if cutoff < 4:
        raise ParseError("cutoff must be at least 4", field="cutoff")
    if sector_cut is None:
        sector_cut = max(0, min(cutoff - 4, cutoff // 2))
    if sector_cut < 0:
        raise ParseError("sector cut must be nonnegative", field="sector_cut")
    if sector_cut > cutoff - 4:
        raise ParseError("sector cut must be at most cutoff - 4",
                         field="sector_cut")
    fock.check_propagate_size(fock.basis_dim(spec.dim, cutoff))
    # integrated before the first report line, so that a refused spec
    # leaves no partial report
    traj = flow.integrate(spec, args.t_end, controls)

    fk = fock.build_basis(spec.dim, cutoff)
    out = sys.stdout
    out.write(f"modes = {spec.dim}, cutoff = {cutoff}, basis dim = {fk.dim}, "
              f"sector cut = {sector_cut}\n")

    # every operator keeps the parity of the total number, so each step
    # below works on its even and odd blocks
    h0 = fock.hamiltonian_blocks(fk, spec)
    out.write(f"hermiticity residual of H0: {fock.hermiticity_residual(h0):.3e}\n")

    # one integration serves both signs: C is a read-out of Omega
    final, t_final = traj.final, traj.final.t
    c_final = {sign: flow.scalar_c(spec.c0, spec.omega, final.omega, sign)
               for sign in (-1.0, 1.0)}
    u = fock.propagate_blocks(fk, traj, 0.0, t_final, tol=controls.tol)
    out.write(f"unitarity residual of U(t={t_final:g}) on interior sectors: "
              f"{fock.unitarity_residual(fk, u):.3e}\n")

    conjugated = fock.conjugate(fk, u, h0, sector_cut)
    h_t = fock.hamiltonian_blocks(fk, QuadraticSpec.from_matrices(
        final.omega, final.b, sym_tol=np.inf))
    for sign, c_t in c_final.items():
        resid = fock.conjugated_residual(fk, conjugated, fock.shifted(h_t, c_t), sector_cut)
        out.write(f"conjugation residual at t = {t_final:g} with scalar sign "
                  f"{sign:+g}: {resid:.6e}\n")

    omega_inf, c_val, conv = flow.limit_extract(traj)
    spec_inf = QuadraticSpec.from_matrices(
        omega_inf, np.zeros_like(omega_inf), c0=c_val,
        label="limit", sym_tol=np.inf)
    nd = fock.n_diag_residual(fk, spec_inf)
    out.write(f"n-diag residual of H(OmegaInf, 0, cInf): {nd:.6e}"
              + ("" if conv else "  [flow not converged]") + "\n")

    e0 = fock.ground_energy(fk, h0)
    shift, floor = (fock.ground_truncation_shift(fk, h0, e0) if cutoff >= 8
                    else (math.nan, 0.0))
    # a shift below the rounding floor has no resolved digits
    shift_txt = f"< {floor:.3e}" if shift < floor else f"{shift:.3e}"
    out.write(f"ground energy of truncated H0: {e0:.10g} "
              f"(truncation shift estimate {shift_txt})\n")
    for sign, c_inf in c_final.items():
        out.write(f"cInf with scalar sign {sign:+g}: {c_inf:.10g} "
                  f"(ground - cInf = {e0 - c_inf:+.6e})\n")
    return EXIT_OK
