"""The batch command: run several specs in order, in one process."""

from __future__ import annotations

import io
import os
import sys

from .cli import EXIT_OK, _controls, _report_error, _scalar_sign, load_spec
from .cli_run import _run_one
from .errors import BwflowError, OutputError


def handle(args) -> int:
    """Run each spec as run would, under a header with the exit code run
    would give it, its errors reported in its text; exit with the first
    code that is not 0."""
    controls, sign = _controls(args), _scalar_sign(args)
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
    worst = EXIT_OK
    for path, csv_path in zip(args.specs, csv_paths):
        out = io.StringIO()
        try:
            code = _run_one(load_spec(path), args.t_end, controls, sign, out, csv_path)
        except BwflowError as exc:
            code = _report_error(exc, out, out)
        sys.stdout.write(f"== {path} (exit {code})\n")
        sys.stdout.write(out.getvalue())
        if code != EXIT_OK and worst == EXIT_OK:
            worst = code
    return worst
