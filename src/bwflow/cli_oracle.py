"""The oracle command: a closed-form family spec and its exact CSV."""

from __future__ import annotations

import math
import sys

import numpy as np

from . import analytic
from .cli import (EXIT_OK, ORACLE_FAMILIES, _check_output, _max_dim, _open_output, _require,
                  _require_finite, _scalar_sign, dump_spec)
from .errors import NotInRegime, NotOnManifold, OutOfRange, ParseError

# Most points an oracle --csv grid may hold.
MAX_GRID_POINTS = 10 ** 6


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
    with np.errstate(over="ignore"):  # a point past the float range lies past stop
        ts = start + step * np.arange(n + 1)
    return ts[(ts <= stop + 1e-12 * max(1.0, abs(stop))) & np.isfinite(ts)]


def write_exact_csv(blocks, ts: np.ndarray, fh, c0: float, scalar_sign: float) -> None:
    """The exact CSV of a block family on the grid ts.  The closed forms
    overflow silently in the float range, and a row that is not finite
    there raises OutOfRange before any row is written."""
    from . import flow  # only --csv writes rows, and flow loads the stepper

    hsb2, int_total, knorm2 = np.zeros((3, len(ts)))
    min_eig = np.full_like(ts, np.inf)
    with np.errstate(all="ignore"):
        for om_minus, om_plus, b in blocks:
            omm, omp, bt2, ib = analytic.exact_block(float(om_minus), float(om_plus),
                                                     float(b), ts)
            delta = float(om_plus) - float(om_minus)
            hsb2 += 2.0 * bt2
            int_total += 2.0 * ib
            knorm2 += 2.0 * bt2 * delta * delta
            min_eig = np.minimum(min_eig, np.minimum(omm, omp))
        cols = (ts, np.sqrt(hsb2), c0 + scalar_sign * 8.0 * int_total, min_eig,
                np.zeros_like(ts), np.sqrt(knorm2))
    bad = ~np.isfinite(cols).all(axis=0)
    if bad.any():
        raise OutOfRange(f"the exact CSV is not finite at t = {ts[bad][0]:g}")
    flow.write_csv_rows(fh, cols)


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
    def _floats(n, names):
        if len(params) != n:
            raise OutOfRange(f"{family} expects {n} parameters ({names})")
        return [_oracle_param(p, family) for p in params]

    def _blocks_fit(k):
        # run refuses the spec past BWFLOW_MAX_DIM; refuse to build it too
        _require(2 * k <= _max_dim(),
                 f"dimension {2 * k} exceeds BWFLOW_MAX_DIM = {_max_dim()}", "params")

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
        return analytic.pivotal_blocks(k), f"pivotal-{k}", []
    if family == "mixed":
        if len(params) != 2:
            raise OutOfRange("mixed expects two parameters: b1 K")
        b1, k = _oracle_param(params[0], family), _oracle_param(params[1], family, int)
        _blocks_fit(k)
        return analytic.mixed_blocks(b1, k), f"mixed-{b1}-{k}", []
    raise OutOfRange(f"unknown family {family!r}; choose from {ORACLE_FAMILIES}")


def handle(args) -> int:
    _require(math.isfinite(args.c0), "--c0 must be a finite real number", "c0")
    blocks, label, comments = _oracle_blocks(args.family, args.params)
    with np.errstate(all="ignore"):  # a spec past the float range is refused below
        spec = analytic.block_spec(blocks, c0=args.c0, label=label)
    _require_finite(spec, label)
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
