"""Pin the scalar sign of the flow against dense Fock-space conjugation.

The matrix flow leaves the sign of dC/dt = s * 8 ||B_t||_2^2 undetermined
unless checked against the actual unitary evolution. This probe propagates
U_{t,0} on a truncated Fock space, conjugates H_0, and compares against
H(Omega_t, B_t, C_t) for both signs at several cutoffs: the residual that
shrinks with the cutoff identifies the sign realized by the unitary flow.

Usage: python3 scripts/fock_sign_probe.py [--cutoffs 16 24 32] [--t 2]
"""

import argparse

import numpy as np

from bwflow import flow, fock
from bwflow.opcore import QuadraticSpec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--omega", type=float, default=2.0)
    ap.add_argument("--b", type=float, default=0.5)
    ap.add_argument("--t", type=float, default=2.0)
    ap.add_argument("--cutoffs", type=int, nargs="+", default=[16, 24, 32])
    ap.add_argument("--sector", type=int, default=8,
                    help="fixed comparison sector (must be <= cutoff - 4)")
    args = ap.parse_args()

    spec = QuadraticSpec.from_matrices([[args.omega]], [[args.b]])
    # one integration serves both signs: C is a read-out of Omega
    traj = flow.integrate(spec, args.t, flow.Controls(tol=1e-10))
    final = traj.final

    print(f"{'cutoff':>7} {'sector':>7} {'residual s=-1':>14} "
          f"{'residual s=+1':>14}")
    for cutoff in args.cutoffs:
        fk = fock.build_basis(1, cutoff)
        u = fock.propagate(fk, traj, 0.0, args.t)
        sector = min(args.sector, cutoff - 4)
        row = []
        for sign in (-1.0, 1.0):
            c_t = flow.scalar_c(spec.c0, spec.omega, final.omega, sign)
            spec_t = QuadraticSpec.from_matrices(final.omega, final.b,
                                                 c0=c_t, sym_tol=np.inf)
            row.append(fock.conjugation_residual(fk, u, spec, spec_t, sector))
        print(f"{cutoff:>7} {sector:>7} {row[0]:>14.6e} {row[1]:>14.6e}")


if __name__ == "__main__":
    main()
