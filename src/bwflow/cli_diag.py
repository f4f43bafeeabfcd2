"""The diag command: the diagonalizing map at the final time and its checks."""

from __future__ import annotations

import sys

import numpy as np

from . import bogoliubov, flow
from .cli import (EXIT_CONDITION, EXIT_NOT_CONVERGED, EXIT_OK, _check_output, _controls,
                  _matrix_to_pairs, _write_json, load_spec)
from .opcore import hs_norm

# diag's gate on the transform round trip against the flow state (AC-6)
ROUNDTRIP_TOL = 1e-6


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}j"


def _print_matrix(name: str, m: np.ndarray, out) -> None:
    out.write(f"{name} =\n")
    for row in np.asarray(m, complex):
        out.write("  [" + ", ".join(_fmt_complex(z) for z in row) + "]\n")


def handle(args) -> int:
    spec = load_spec(args.spec)
    controls = _controls(args)
    _check_output(args.json)
    traj = flow.integrate(spec, args.t_end, controls)
    if not traj.converged():
        sys.stdout.write(
            f"not converged: final ||B_t||_2 = {traj.final.hs_b:.6g} "
            f"at t = {traj.final.t:.6g} (convTol {traj.controls.conv_tol:g})\n")
        return EXIT_NOT_CONVERGED

    t_final = traj.final.t
    m = bogoliubov.integrate_uv(traj, 0.0, t_final, controls)
    _print_matrix(f"u(T={t_final:g}, 0)", m.u, sys.stdout)
    _print_matrix(f"v(T={t_final:g}, 0)", m.v, sys.stdout)

    res = bogoliubov.symplectic_residuals(m)
    sys.stdout.write("symplectic residuals:\n")
    for key in sorted(res):
        sys.stdout.write(f"  {key} = {res[key]:.3e}\n")

    int_b = bogoliubov.path_hs_integral(traj, 0.0, t_final)
    holds_u, holds_v = bogoliubov.norm_bounds(m, int_b)
    sys.stdout.write(
        f"norm bounds (int ||B|| = {int_b:.6g}):\n"
        f"  1 + ||u - 1||_2 = {1.0 + hs_norm(m.u - np.eye(spec.dim)):.6g}"
        f" <= cosh(4 int) = {float(np.cosh(4 * int_b)):.6g}\n"
        f"  ||v||_2 = {hs_norm(m.v):.6g}"
        f" <= sinh(4 int) = {float(np.sinh(4 * int_b)):.6g}\n"
        f"  holds: {'yes' if holds_u and holds_v else 'NO'}\n")
    worst = max(res.values())
    if not worst <= bogoliubov.MAP_TOL:
        # transform_spec and decompose_generator refuse such a map
        sys.stdout.write(f"map check failed: symplectic residual {worst:.3e} > "
                         f"{bogoliubov.MAP_TOL:g}\n")
        return EXIT_CONDITION

    transformed = bogoliubov.transform_spec(m, spec)
    final = traj.final
    d_om = hs_norm(transformed.omega - final.omega)
    d_b = hs_norm(transformed.b - final.b)
    d_c = abs(transformed.c0 - final.c)
    sys.stdout.write(
        f"transform round trip vs flow state at T: |dOmega| = {d_om:.3e}, "
        f"|dB| = {d_b:.3e}, |dC| = {d_c:.3e}\n")

    decomp = bogoliubov.decompose_generator(m)
    alphas = [a for a in decomp.alphas if a > 1e-12]
    if alphas:
        sys.stdout.write("squeeze strengths: "
                         + ", ".join(f"{a:.8g}" for a in alphas) + "\n")
    else:
        sys.stdout.write("squeeze strengths: (none)\n")
    _print_matrix("hMatrix", decomp.h_matrix, sys.stdout)

    if args.json:
        doc = {
            "t": t_final,
            "dim": spec.dim,
            "u": _matrix_to_pairs(m.u),
            "v": _matrix_to_pairs(m.v),
            "symplectic_residuals": res,
            "int_hs_b": int_b,
            "norm_bounds": [holds_u, holds_v],
            "transform_residuals": {"omega": d_om, "b": d_b, "c": d_c},
            "alphas": decomp.alphas,
            "h_matrix": _matrix_to_pairs(decomp.h_matrix),
        }
        _write_json(args.json, doc)
    failed = [name for name, ok in (("norm bounds", holds_u and holds_v),
                                    ("transform round trip",
                                     max(d_om, d_b, d_c) <= ROUNDTRIP_TOL)) if not ok]
    if failed:
        sys.stdout.write(f"map check failed: {', '.join(failed)}\n")
        return EXIT_CONDITION
    return EXIT_OK
