"""The batch command: run several specs, optionally in parallel."""

from __future__ import annotations

import functools
import io
import os
import sys
from typing import Optional

from . import flow
from .cli import EXIT_OK, _controls, _report_error, _scalar_sign, load_spec
from .cli_run import _run_one
from .errors import BwflowError, OutputError, ParseError


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


def handle(args) -> int:
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
