"""The run command: integrate the flow, write its CSV and print a summary."""

from __future__ import annotations

import sys
from typing import Optional

import numpy as np

from . import flow
from .cli import EXIT_OK, _check_output, _controls, _open_output, _scalar_sign, load_spec
from .errors import BlowupDetected, BwflowError
from .opcore import QuadraticSpec


def _run_summary(traj: flow.Trajectory, out) -> None:
    final = traj.final
    conv = traj.converged()
    out.write(f"converged: {'yes' if conv else 'no'} "
              f"(final ||B_t||_2 = {final.hs_b:.6g} at t = {final.t:.6g}, "
              f"convTol = {traj.controls.conv_tol:g})\n")
    omega_inf, c_inf, _ = flow.limit_extract(traj)
    eigs = np.linalg.eigvalsh((omega_inf + omega_inf.conj().T) / 2)
    out.write("OmegaInf eigenvalues: "
              + ", ".join(f"{v:.12g}" for v in eigs) + "\n")
    out.write(f"cInf = {c_inf:.12g}\n")
    try:
        fit = flow.decay_fit(traj)
        out.write(f"fitted decay rate: {fit.rate:.6g} "
                  f"(window t in [{fit.window[0]:.4g}, {fit.window[1]:.4g}], "
                  f"{fit.n_samples} points)\n")
    except BwflowError as exc:
        out.write(f"fitted decay rate: n/a ({exc})\n")
    worst_motion = traj.column("motion_residual").max()
    worst_matrix = traj.column("matrix_motion_residual").max()
    worst_k = traj.column("k_norm").max()
    out.write(f"worst residuals: motion {worst_motion:.3e}, "
              f"matrix motion {worst_matrix:.3e}, kNorm max {worst_k:.3e}\n")


def _run_one(spec: QuadraticSpec, t_end: float, controls: flow.Controls, sign: float,
             out, csv_path: Optional[str]) -> int:
    """Integrate, write the CSV and the summary.  A blown-up run writes the
    CSV of its partial trajectory and re-raises."""
    _check_output(csv_path)
    try:
        traj = flow.integrate(spec, t_end, controls, scalar_sign=sign)
    except BlowupDetected as exc:
        if csv_path and exc.trajectory is not None:
            with _open_output(csv_path) as fh:
                exc.trajectory.write_csv(fh)
        raise
    if csv_path:
        with _open_output(csv_path) as fh:
            traj.write_csv(fh)
    _run_summary(traj, out)
    return EXIT_OK


def handle(args) -> int:
    spec = load_spec(args.spec)
    return _run_one(spec, args.t_end, _controls(args), _scalar_sign(args),
                    sys.stdout, args.csv)
