"""The check command: the condition ladder of a spec and its report."""

from __future__ import annotations

import math
import sys
import numpy as np

from . import conditions
from .cli import EXIT_CONDITION, EXIT_OK, _check_output, _write_json, load_spec
from .errors import ParseError

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


def handle(args) -> int:
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
        _write_json(args.json, doc)
    ok = all(rep.holds(name) for name in ("A1", "A2", "A3"))
    return EXIT_OK if ok else EXIT_CONDITION
