"""Command-line front end: spec files in and out, run orchestration, CSV
and report emission.

Spec files are JSON documents (leading lines starting with '#' are treated
as comments and skipped).  Matrices are row-major lists of [re, im] pairs;
alternatively a "blocks" shorthand lists [omegaMinus, omegaPlus, b] triples
that expand to the block-diagonal form.  Exit codes: 0 ok, 1 condition
check failed (for diag: one of its map checks failed), 2 parse or input
error or an output path that cannot be written, 3 blow-up, 4 not converged.

Each command imports the modules it runs when it runs, so that a command
starts without the others' modules: check loads conditions, run loads flow,
diag flow and bogoliubov, fock-verify flow and fock.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (BlowupDetected, BwflowError, LogBranch, MapInvalid,
                     NotConverged, NotInRegime, NotOnManifold, OutOfRange,
                     OutputError, ParseError, SizeLimit, StepSizeUnderflow)
from .opcore import QuadraticSpec, hs_norm

if TYPE_CHECKING:
    from . import conditions, flow

EXIT_OK = 0
EXIT_CONDITION = 1
EXIT_PARSE = 2
EXIT_BLOWUP = 3
EXIT_NOT_CONVERGED = 4

# diag's gate on the transform round trip against the flow state (AC-6)
ROUNDTRIP_TOL = 1e-6

ORACLE_FAMILIES = ("equal-product", "generic", "blowup", "block", "pivotal", "mixed")
# Most points an oracle --csv grid may hold.
MAX_GRID_POINTS = 10 ** 6


def __getattr__(name: str):
    # CSV_HEADER is flow's, served on first access so that importing the
    # command line does not load flow
    if name == "CSV_HEADER":
        from .flow import CSV_HEADER
        return CSV_HEADER
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# spec files

def _require(cond: bool, message: str, field: Optional[str] = None) -> None:
    if not cond:
        raise ParseError(message, field=field)


def _is_real(x) -> bool:
    """A finite JSON number; json.loads also yields NaN and +-Infinity."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _real_number(x, field: str) -> float:
    _require(_is_real(x), f"{field} must be a finite real number", field)
    return float(x)


def _pairs_to_matrix(entries, dim: int, field: str) -> np.ndarray:
    _require(isinstance(entries, list) and len(entries) == dim * dim,
             f"{field} must be a row-major list of {dim * dim} [re, im] pairs",
             field)
    vals = []
    for i, e in enumerate(entries):
        ok = isinstance(e, list) and len(e) == 2 and all(_is_real(x) for x in e)
        _require(ok, f"{field}[{i}] must be a [re, im] pair of finite numbers",
                 f"{field}[{i}]")
        vals.append(complex(e[0], e[1]))
    return np.array(vals, dtype=complex).reshape(dim, dim)


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(m, complex).ravel()]


def _max_dim() -> int:
    raw = os.environ.get("BWFLOW_MAX_DIM", "")
    if not raw:
        return 64
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"BWFLOW_MAX_DIM is not an integer: {raw!r}",
                         field="BWFLOW_MAX_DIM")


def spec_from_doc(doc, source: str = "<doc>") -> QuadraticSpec:
    """Build a QuadraticSpec from a parsed spec document."""
    _require(isinstance(doc, dict), f"{source}: spec document must be an object")
    label = doc.get("label", "")
    _require(isinstance(label, str), "label must be a string", "label")
    c0 = _real_number(doc.get("c0", 0.0), "c0")

    has_blocks = "blocks" in doc
    has_mats = "omega" in doc or "b" in doc
    _require(not (has_blocks and has_mats),
             "exactly one of {omega+b, blocks} may be present", "blocks")
    _require(has_blocks or ("omega" in doc and "b" in doc),
             "spec needs either omega and b or a blocks list")

    if has_blocks:
        from . import analytic

        blocks = doc["blocks"]
        _require(isinstance(blocks, list) and blocks,
                 "blocks must be a non-empty list of [omegaMinus, omegaPlus, b]",
                 "blocks")
        triples = []
        for i, blk in enumerate(blocks):
            ok = isinstance(blk, list) and len(blk) == 3 and all(_is_real(x) for x in blk)
            _require(ok, f"blocks[{i}] must be [omegaMinus, omegaPlus, b] of finite numbers",
                     f"blocks[{i}]")
            triples.append(tuple(float(x) for x in blk))
        _require(2 * len(triples) <= _max_dim(),
                 f"dimension {2 * len(triples)} exceeds BWFLOW_MAX_DIM", "blocks")
        try:
            spec = analytic.block_spec(triples, c0=c0, label=label)
        except (ValueError, BwflowError) as exc:
            raise ParseError(f"blocks: {exc}", field="blocks")
    else:
        dim = doc.get("dim")
        _require(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1,
                 "dim must be a positive integer", "dim")
        _require(dim <= _max_dim(), f"dim {dim} exceeds BWFLOW_MAX_DIM = {_max_dim()}",
                 "dim")
        omega = _pairs_to_matrix(doc["omega"], dim, "omega")
        b = _pairs_to_matrix(doc["b"], dim, "b")
        try:
            spec = QuadraticSpec.from_matrices(omega, b, c0=c0, label=label)
        except (ValueError, BwflowError) as exc:
            raise ParseError(f"{source}: {exc}")
    # the hermitian and symmetric parts halve a sum, which overflows for
    # entries near the float range
    _require(np.isfinite(spec.omega).all() and np.isfinite(spec.b).all(),
             f"{source}: Omega or B is not finite once made hermitian/symmetric")
    return spec


def parse_spec_text(text: str, source: str = "<string>") -> QuadraticSpec:
    """Parse spec-file text; '#' lines are comments, the rest is JSON."""
    blanked = "\n".join(
        "" if ln.lstrip().startswith("#") else ln for ln in text.splitlines())
    try:
        doc = json.loads(blanked or "null")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}")
    except RecursionError:
        raise ParseError(f"{source}: nested too deeply") from None
    return spec_from_doc(doc, source)


def load_spec(path: str) -> QuadraticSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read spec file {path}: {exc}")
    return parse_spec_text(text, source=path)


def spec_to_doc(spec: QuadraticSpec) -> dict:
    return {
        "dim": spec.dim,
        "omega": _matrix_to_pairs(spec.omega),
        "b": _matrix_to_pairs(spec.b),
        "c0": float(spec.c0),
        "label": spec.label,
    }


def dump_spec(spec: QuadraticSpec, fh, comments=()) -> None:
    for line in comments:
        fh.write(f"# {line}\n")
    json.dump(spec_to_doc(spec), fh, indent=2)
    fh.write("\n")


# ---------------------------------------------------------------------------
# run configuration

def _controls(args) -> flow.Controls:
    """The flow.Controls of a run-like command, once its --t-end, --tol
    and --conv-tol are checked."""
    from . import flow, stepping

    if not (math.isfinite(args.t_end) and args.t_end > 0):
        raise ParseError("tEnd must be positive and finite", field="t_end")
    if not all(math.isfinite(x) and x > 0 for x in (args.tol, args.conv_tol)):
        raise ParseError("tolerances must be positive and finite", field="tol")
    if args.tol < stepping.RTOL_FLOOR:
        raise ParseError(f"tol must be at least {stepping.RTOL_FLOOR:.3g} "
                         "(100 machine epsilons)", field="tol")
    return flow.Controls(tol=args.tol, conv_tol=args.conv_tol)


def _check_output(path: Optional[str]) -> None:
    """Refuse an output path that cannot be opened for writing, a directory
    or a path in a missing directory, before the command does its work."""
    if path is None:
        return
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise OutputError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(folder):
        raise OutputError(f"cannot write {path}: {folder} is not a directory")


@contextlib.contextmanager
def _open_output(path: str):
    """path opened for writing text; an OSError that _check_output could
    not foresee, on open, write or close (a denied permission, a full
    disk), becomes an OutputError."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from None


def _scalar_sign(args) -> float:
    """The scalar sign of run, batch and oracle: +1 with --paper-scalar-sign."""
    from .flow import SCALAR_SIGN

    return 1.0 if args.paper_scalar_sign else SCALAR_SIGN


# ---------------------------------------------------------------------------
# check

_CONDITION_ORDER = ("A1", "A2", "A3", "A4", "A5", "A6", "FB", "KM")


def render_report(rep: conditions.ConditionReport, out) -> None:
    out.write(f"{'condition':<10} {'verdict':<13} margin\n")
    for name in _CONDITION_ORDER:
        verdict = rep.verdicts.get(name, "undetermined")
        margin = rep.margins.get(name)
        mtxt = "-" if margin is None else f"{margin:.6g}"
        out.write(f"{name:<10} {verdict:<13} {mtxt}\n")
    if rep.values:
        out.write("values:\n")
        for key in sorted(rep.values):
            val = rep.values[key]
            vtxt = f"{val:.6g}" if isinstance(val, (int, float, np.floating)) else str(val)
            out.write(f"  {key} = {vtxt}\n")


def cmd_check(args) -> int:
    from . import conditions

    tol = conditions.DEFAULT_TOL if args.tol is None else args.tol
    eps = conditions.DEFAULT_EPS if args.eps is None else args.eps
    if not (math.isfinite(tol) and tol >= 0):
        raise ParseError("tol must be finite and nonnegative", field="tol")
    if not (math.isfinite(eps) and eps > 0):
        raise ParseError("eps must be positive and finite", field="eps")
    spec = load_spec(args.spec)
    _check_output(args.json)
    rep = conditions.check_all(spec, tol=tol, eps=eps)
    render_report(rep, sys.stdout)
    if args.json:
        doc = {"label": spec.label, "verdicts": rep.verdicts,
               "margins": rep.margins, "values": rep.values}
        with _open_output(args.json) as fh:
            json.dump(doc, fh, indent=2, default=lambda x: x.tolist())
            fh.write("\n")
    ok = all(rep.holds(name) for name in ("A1", "A2", "A3"))
    return EXIT_OK if ok else EXIT_CONDITION


# ---------------------------------------------------------------------------
# run

def _print_blowup(exc: BlowupDetected, out) -> None:
    ev = exc.event
    out.write("blow-up detected\n")
    out.write(f"  onset t* = {ev.t:.9g} with ||B_t||_2 = {ev.hs_b:.6g}\n")
    out.write(f"  T_max estimate >= {ev.t:.9g}\n")
    out.write(f"  guaranteed blow-up-free horizon T_0 = {ev.t0_lower_bound:.9g}\n")


def _run_summary(traj: flow.Trajectory, out) -> None:
    from . import flow

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
    from . import flow

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


def cmd_run(args) -> int:
    spec = load_spec(args.spec)
    return _run_one(spec, args.t_end, _controls(args), _scalar_sign(args),
                    sys.stdout, args.csv)


# ---------------------------------------------------------------------------
# diag

def _fmt_complex(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}j"


def _print_matrix(name: str, m: np.ndarray, out) -> None:
    out.write(f"{name} =\n")
    for row in np.asarray(m, complex):
        out.write("  [" + ", ".join(_fmt_complex(z) for z in row) + "]\n")


def cmd_diag(args) -> int:
    from . import bogoliubov, flow

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
        with _open_output(args.json) as fh:
            json.dump(doc, fh, indent=2, default=lambda x: x.tolist())
            fh.write("\n")
    failed = [name for name, ok in (("norm bounds", holds_u and holds_v),
                                    ("transform round trip",
                                     max(d_om, d_b, d_c) <= ROUNDTRIP_TOL)) if not ok]
    if failed:
        sys.stdout.write(f"map check failed: {', '.join(failed)}\n")
        return EXIT_CONDITION
    return EXIT_OK


# ---------------------------------------------------------------------------
# fock-verify

def cmd_fock_verify(args) -> int:
    from . import flow, fock

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


# ---------------------------------------------------------------------------
# oracle

def _parse_grid(raw: str) -> np.ndarray:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ParseError("grid must be start:stop:step", field="csv")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ParseError(f"grid values must be numbers: {raw!r}", field="csv")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ParseError(f"grid values must be finite: {raw!r}", field="csv")
    if step <= 0 or stop < start:
        raise ParseError("grid needs step > 0 and stop >= start", field="csv")
    if not (stop - start) / step < MAX_GRID_POINTS:
        raise ParseError(f"grid has more than {MAX_GRID_POINTS} points", field="csv")
    n = int(round((stop - start) / step))
    ts = start + step * np.arange(n + 1)
    return ts[ts <= stop + 1e-12 * max(1.0, abs(stop))]


def block_trajectory_rows(blocks, ts: np.ndarray, c0: float, scalar_sign: float):
    """Exact per-sample CSV columns for a block family."""
    from . import analytic

    ts = np.asarray(ts, dtype=float)
    hsb2 = np.zeros_like(ts)
    int_total = np.zeros_like(ts)
    knorm2 = np.zeros_like(ts)
    min_eig = np.full_like(ts, np.inf)
    for om_minus, om_plus, b in blocks:
        omm, omp, bt2, ib = analytic.exact_block(float(om_minus), float(om_plus),
                                                 float(b), ts)
        delta = float(om_plus) - float(om_minus)
        hsb2 += 2.0 * bt2
        int_total += 2.0 * ib
        knorm2 += 2.0 * bt2 * delta * delta
        min_eig = np.minimum(min_eig, np.minimum(omm, omp))
    c = c0 + scalar_sign * 8.0 * int_total
    return np.sqrt(hsb2), c, min_eig, np.sqrt(knorm2)


def write_exact_csv(blocks, ts: np.ndarray, fh, c0: float, scalar_sign: float) -> None:
    from . import flow

    hsb, c, min_eig, knorm = block_trajectory_rows(blocks, ts, c0, scalar_sign)
    flow.write_csv_rows(fh, (ts, hsb, c, min_eig, np.zeros_like(hsb), knorm))


def _oracle_param(raw: str, family: str, kind=float):
    """One family parameter: a finite number, or an integer for K."""
    try:
        value = kind(raw)
    except ValueError:
        value = None
    if value is None or (kind is float and not math.isfinite(value)):
        what = "an integer" if kind is int else "a finite number"
        raise ParseError(f"{family} parameter {raw!r} must be {what}", field="params")
    return value


def _oracle_blocks(family: str, params) -> tuple:
    """(blocks, label, comments) for an oracle family."""
    from . import analytic

    def _floats(n, names):
        if len(params) != n:
            raise OutOfRange(f"{family} expects {n} parameters ({names})")
        return [_oracle_param(p, family) for p in params]

    def _blocks_fit(k):
        # run refuses the spec past BWFLOW_MAX_DIM; refuse to build it too
        _require(2 * k <= _max_dim(),
                 f"dimension {2 * k} exceeds BWFLOW_MAX_DIM = {_max_dim()}", "params")

    def _spec_blocks(spec):
        # the triples read back out of a family spec of 2x2 blocks
        return [(float(spec.omega[2 * j, 2 * j].real),
                 float(spec.omega[2 * j + 1, 2 * j + 1].real),
                 float(spec.b[2 * j, 2 * j + 1].real))
                for j in range(spec.dim // 2)], spec.label, []

    if family in ("generic", "equal-product"):
        om_minus, om_plus, b = _floats(3, "omegaMinus omegaPlus b")
        regime = analytic.block_regime(om_minus, om_plus, b)
        if regime != family:
            error = NotInRegime if family == "generic" else NotOnManifold
            raise error(f"({om_minus:g}, {om_plus:g}, {b:g}) is in the {regime} "
                        f"regime, not {family}")
        return [(om_minus, om_plus, b)], f"{family}-{om_minus:g}-{om_plus:g}-{b:g}", []
    if family == "blowup":
        (b,) = _floats(1, "b")
        if b <= 0:
            raise OutOfRange("blowup expects b > 0")
        tmax = analytic.blowup_time(b)
        return [(0.0, 0.0, b)], f"blowup-{b:g}", [f"tMax = {tmax!r}"]
    if family == "block":
        if not params or len(params) % 3 != 0:
            raise OutOfRange("block expects triples: omegaMinus omegaPlus b ...")
        _blocks_fit(len(params) // 3)
        vals = [_oracle_param(p, family) for p in params]
        blocks = [tuple(vals[i:i + 3]) for i in range(0, len(vals), 3)]
        return blocks, f"block-x{len(blocks)}", []
    if family == "pivotal":
        if len(params) != 1:
            raise OutOfRange("pivotal expects one parameter K")
        k = _oracle_param(params[0], family, int)
        _blocks_fit(k)
        return _spec_blocks(analytic.pivotal_family(k))
    if family == "mixed":
        if len(params) != 2:
            raise OutOfRange("mixed expects two parameters: b1 K")
        b1, k = _oracle_param(params[0], family), _oracle_param(params[1], family, int)
        _blocks_fit(k)
        return _spec_blocks(analytic.mixed_family(b1, k))
    raise OutOfRange(f"unknown family {family!r}; choose from {ORACLE_FAMILIES}")


def cmd_oracle(args) -> int:
    from . import analytic

    _require(math.isfinite(args.c0), "--c0 must be a finite real number", "c0")
    blocks, label, comments = _oracle_blocks(args.family, args.params)
    spec = analytic.block_spec(blocks, c0=args.c0, label=label)
    _check_output(args.out)

    if args.out:
        with _open_output(args.out) as fh:
            dump_spec(spec, fh, comments)
    if args.csv:
        ts = _parse_grid(args.csv)
        write_exact_csv(blocks, ts, sys.stdout, c0=args.c0, scalar_sign=_scalar_sign(args))
    elif not args.out:
        dump_spec(spec, sys.stdout, comments)
    return EXIT_OK


# ---------------------------------------------------------------------------
# batch

def _batch_one(path: str, csv_path: Optional[str], t_end: float,
               controls: flow.Controls, sign: float) -> tuple:
    """Run one spec as run would, with the exit code run would give it;
    returns (path, exit_code, report_text), errors reported in the text."""
    out = io.StringIO()
    try:
        code = _run_one(load_spec(path), t_end, controls, sign, out, csv_path)
    except BwflowError as exc:
        code = _report_error(exc, out, out)
    return path, code, out.getvalue()


def cmd_batch(args) -> int:
    run_one = functools.partial(_batch_one, t_end=args.t_end, controls=_controls(args),
                                sign=_scalar_sign(args))
    if args.jobs < 1:
        raise ParseError("jobs must be at least 1", field="jobs")
    csv_paths = [None] * len(args.specs)
    if args.csv_dir:
        # one CSV per spec stem, so two specs with one stem would share a file
        csv_paths = [os.path.join(args.csv_dir, os.path.splitext(os.path.basename(path))[0]
                                  + ".csv") for path in args.specs]
        for i, csv_path in enumerate(csv_paths):
            if csv_path in csv_paths[:i]:
                first = args.specs[csv_paths.index(csv_path)]
                raise OutputError(f"cannot write {csv_path} for both {first} and {args.specs[i]}")
        try:
            os.makedirs(args.csv_dir, exist_ok=True)
        except OSError as exc:
            raise OutputError(f"cannot make directory {args.csv_dir}: "
                              f"{exc.strerror}") from None
    # the pool starts all its workers at once, so ask for no more than can run
    workers = min(args.jobs, len(args.specs), os.cpu_count() or 1)
    if workers > 1:
        import concurrent.futures  # here, not at the top: it loads logging

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, args.specs, csv_paths))
    else:
        results = list(map(run_one, args.specs, csv_paths))
    worst = EXIT_OK
    for path, code, text in results:
        sys.stdout.write(f"== {path} (exit {code})\n")
        sys.stdout.write(text)
        if code != EXIT_OK and worst == EXIT_OK:
            worst = code
    return worst


# ---------------------------------------------------------------------------
# parser

def _add_run_opts(p: argparse.ArgumentParser, t_end: float) -> None:
    """Integration options of the run-like commands, with their own horizon."""
    p.add_argument("--t-end", type=float, default=t_end,
                   help=f"integration horizon (default {t_end:g})")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="integrator tolerance (default 1e-10)")
    p.add_argument("--conv-tol", type=float, default=1e-8,
                   help="||B_t||_2 threshold declaring convergence")


def _add_sign_opt(p: argparse.ArgumentParser) -> None:
    """--paper-scalar-sign, for run, batch and oracle.  diag checks its map
    against the -1 convention that transform_spec fixes, and fock-verify
    prints both signs, so neither takes it."""
    p.add_argument("--paper-scalar-sign", action="store_true",
                   help="use dC = +8||B||^2 instead of the default -8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwflow",
        description=("Diagonalize quadratic boson Hamiltonians by integrating "
                     "the double-bracket flow on (Omega, B, C)."))
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate the condition ladder")
    p_check.add_argument("spec")
    # None: conditions' defaults, read when check runs
    p_check.add_argument("--tol", type=float)
    p_check.add_argument("--eps", type=float,
                         help="fractional exponent offset for the A5 norm")
    p_check.add_argument("--json", help="also write verdicts/margins as JSON")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="integrate the flow, emit CSV and a summary")
    _add_run_opts(p_run, t_end=10.0)
    _add_sign_opt(p_run)
    p_run.add_argument("spec")
    p_run.add_argument("--csv", help="write the trajectory CSV to this path")
    p_run.set_defaults(func=cmd_run)

    p_diag = sub.add_parser("diag", help="compute the diagonalizing map at the final time")
    _add_run_opts(p_diag, t_end=10.0)
    p_diag.add_argument("spec")
    p_diag.add_argument("--json", help="write (u, v) and tables as JSON")
    p_diag.set_defaults(func=cmd_diag)

    p_fock = sub.add_parser("fock-verify",
                            help="verify the run against truncated-Fock matrices")
    _add_run_opts(p_fock, t_end=2.0)
    p_fock.add_argument("spec")
    p_fock.add_argument("--cutoff", type=int, default=30,
                        help="total occupation cutoff (default 30)")
    p_fock.add_argument("--sector-cut", type=int, default=None,
                        help="projection sector for residuals (default cutoff//2)")
    p_fock.set_defaults(func=cmd_fock_verify)

    p_oracle = sub.add_parser("oracle",
                              help="emit a closed-form family spec and exact CSV")
    p_oracle.add_argument("family", choices=ORACLE_FAMILIES)
    p_oracle.add_argument("params", nargs="*",
                          help="family parameters, e.g. generic 1 2 0.5")
    p_oracle.add_argument("--c0", type=float, default=0.0)
    p_oracle.add_argument("--out", help="write the spec file here "
                          "(default: stdout when --csv is absent)")
    p_oracle.add_argument("--csv", metavar="START:STOP:STEP",
                          help="print the exact trajectory CSV on this grid")
    _add_sign_opt(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_batch = sub.add_parser("batch", help="run several specs, optionally in parallel")
    _add_run_opts(p_batch, t_end=10.0)
    _add_sign_opt(p_batch)
    p_batch.add_argument("specs", nargs="+")
    p_batch.add_argument("--jobs", type=int, default=1,
                         help="parallel workers, at most one per spec and per CPU")
    p_batch.add_argument("--csv-dir", help="write one trajectory CSV per spec here")
    p_batch.set_defaults(func=cmd_batch)
    return parser


# ---------------------------------------------------------------------------
# exit codes

def _report_error(exc: BwflowError, out, err) -> int:
    """The exit code of a command that raised exc, after its report.

    A blow-up prints the blow-up report to out and exits 3.  Every other
    error prints one line to err and exits 4 when the numerics failed (no
    convergence, a step-size underflow, an invalid map or an ambiguous log
    branch) and 2 for bad input or an unwritable output path: "parse
    error: ..." for a ParseError and "error: <Type>: ..." for the rest.
    """
    if isinstance(exc, BlowupDetected):
        _print_blowup(exc, out)
        return EXIT_BLOWUP
    if isinstance(exc, ParseError):
        err.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    err.write(f"error: {type(exc).__name__}: {exc}\n")
    if isinstance(exc, (NotConverged, StepSizeUnderflow, MapInvalid, LogBranch)):
        return EXIT_NOT_CONVERGED
    return EXIT_PARSE


def main(argv=None) -> int:
    """Run a command and return its exit code.  The files a command writes
    go through _open_output, so an OSError that escapes it is a failed
    write to stdout (a closed pipe, a full disk): exit 2, as for any output
    that cannot be written."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            code = args.func(args)
        except BwflowError as exc:
            code = _report_error(exc, sys.stdout, sys.stderr)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # what stdout still buffers goes to the null device, so that the
        # interpreter's flush at exit does not fail a second time
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return _report_error(OutputError(f"cannot write standard output: {exc.strerror}"),
                             sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
