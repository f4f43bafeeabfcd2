"""Command-line front end: spec files in and out, the shared run
options, the parser, exit codes and dispatch.

Spec files are JSON documents (leading lines starting with '#' are treated
as comments and skipped).  Matrices are row-major lists of [re, im] pairs;
alternatively a "blocks" shorthand lists [omegaMinus, omegaPlus, b] triples
that expand to the block-diagonal form.  Exit codes: 0 ok, 1 condition
check failed (for diag: one of its map checks failed), 2 parse or input
error or an output path that cannot be written, 3 blow-up, 4 not converged.

Each command's handler and report live in a module of its own, cli_<command>
(cli_fock_verify for fock-verify), which main imports only once it has
parsed that command: a process compiles the front end and the one handler
it runs, and the handler imports the library modules that command uses:
check loads conditions, run flow, diag flow and bogoliubov, fock-verify
flow and fock.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import (BlowupDetected, BwflowError, LogBranch, MapInvalid,
                     NotConverged, OutputError, ParseError, StepSizeUnderflow)
from .opcore import QuadraticSpec

if TYPE_CHECKING:
    from . import flow

EXIT_OK = 0
EXIT_CONDITION = 1
EXIT_PARSE = 2
EXIT_BLOWUP = 3
EXIT_NOT_CONVERGED = 4

ORACLE_FAMILIES = ("equal-product", "generic", "blowup", "block", "pivotal", "mixed")


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
    _require_finite(spec, source)
    return spec


def _require_finite(spec: QuadraticSpec, source: str) -> None:
    """Refuse a spec whose Omega or B is not finite: the hermitian and
    symmetric parts halve a sum, which overflows near the float range."""
    _require(np.isfinite(spec.omega).all() and np.isfinite(spec.b).all(),
             f"{source}: Omega or B is not finite once made hermitian/symmetric")


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
    _dump_json(spec_to_doc(spec), fh)


def _dump_json(doc: dict, fh) -> None:
    """doc as indented JSON and a newline; numpy arrays become lists."""
    json.dump(doc, fh, indent=2, default=lambda x: x.tolist())
    fh.write("\n")


def _write_json(path: str, doc: dict) -> None:
    """The JSON record of a command (check --json, diag --json) at path."""
    with _open_output(path) as fh:
        _dump_json(doc, fh)


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

    p_run = sub.add_parser("run", help="integrate the flow, emit CSV and a summary")
    _add_run_opts(p_run, t_end=10.0)
    _add_sign_opt(p_run)
    p_run.add_argument("spec")
    p_run.add_argument("--csv", help="write the trajectory CSV to this path")

    p_diag = sub.add_parser("diag", help="compute the diagonalizing map at the final time")
    _add_run_opts(p_diag, t_end=10.0)
    p_diag.add_argument("spec")
    p_diag.add_argument("--json", help="write (u, v) and tables as JSON")

    p_fock = sub.add_parser("fock-verify",
                            help="verify the run against truncated-Fock matrices")
    _add_run_opts(p_fock, t_end=2.0)
    p_fock.add_argument("spec")
    p_fock.add_argument("--cutoff", type=int, default=30,
                        help="total occupation cutoff (default 30)")
    p_fock.add_argument("--sector-cut", type=int, default=None,
                        help="projection sector for residuals (default cutoff//2)")

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

    p_batch = sub.add_parser("batch", help="run several specs, optionally in parallel")
    _add_run_opts(p_batch, t_end=10.0)
    _add_sign_opt(p_batch)
    p_batch.add_argument("specs", nargs="+")
    p_batch.add_argument("--jobs", type=int, default=1,
                         help="parallel workers, at most one per spec and per CPU")
    p_batch.add_argument("--csv-dir", help="write one trajectory CSV per spec here")
    return parser


# ---------------------------------------------------------------------------
# exit codes

def _print_blowup(exc: BlowupDetected, out) -> None:
    ev = exc.event
    out.write("blow-up detected\n")
    out.write(f"  onset t* = {ev.t:.9g} with ||B_t||_2 = {ev.hs_b:.6g}\n")
    out.write(f"  T_max estimate >= {ev.t:.9g}\n")
    out.write(f"  guaranteed blow-up-free horizon T_0 = {ev.t0_lower_bound:.9g}\n")


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
    args = build_parser().parse_args(argv)
    handler = importlib.import_module(f".cli_{args.command.replace('-', '_')}", __package__)
    try:
        try:
            code = handler.handle(args)
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
    # Under python -m this module runs as __main__, and the handlers import
    # it as bwflow.cli: registered under that name too, it is not loaded a
    # second time.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    sys.exit(main())
