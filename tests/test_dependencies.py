"""bwflow runs on numpy alone: no module of the package imports scipy,
diag's library path runs with scipy blocked, and pyproject.toml installs
numpy only, with scipy in the test extra, where the tests use it as an
oracle.

pyproject.toml is read with a regular expression, since Python 3.10 has
no tomllib.
"""

import ast
import glob
import os
import re
import subprocess
import sys

from conftest import SRC, fresh_env

PACKAGE = os.path.join(SRC, "bwflow")
PYPROJECT = os.path.join(os.path.dirname(SRC), "pyproject.toml")


def _imported_modules(path):
    tree = ast.parse(open(path, encoding="utf-8").read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _requirement_names(table, key):
    """The distribution names of the list `key` in the pyproject table."""
    text = open(PYPROJECT, encoding="utf-8").read()
    body = re.search(rf"^\[{re.escape(table)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    items = re.search(rf"^{key}\s*=\s*\[(.*?)\]", body, re.M | re.S).group(1)
    return [re.split(r"[<>=!~;\[ ]", req, maxsplit=1)[0]
            for req in re.findall(r'"([^"]*)"', items)]


def test_no_module_imports_scipy():
    files = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert files
    offenders = [(os.path.basename(path), name) for path in files
                 for name in _imported_modules(path)
                 if name == "scipy" or name.startswith("scipy.")]
    assert offenders == []


def test_runtime_dependencies_are_numpy_only():
    assert _requirement_names("project", "dependencies") == ["numpy"]
    assert "scipy" in _requirement_names("project.optional-dependencies", "test")


_DIAG_PATH = """
import numpy as np
from bwflow import analytic, bogoliubov, flow
spec = analytic.block_spec([(1.0, 2.0, 0.5)])
traj = flow.integrate(spec, t_end=5.0)
m = bogoliubov.integrate_uv(traj, 0.0, traj.final.t)
out, dec = bogoliubov.transform_spec(m, spec), bogoliubov.decompose_generator(m)
arrays = (m.u, m.v, out.omega, out.b, np.array([out.c0]), dec.alphas, dec.h_matrix)
digest = " ".join(a.tobytes().hex() for a in arrays)
"""


def test_diag_library_path_runs_without_scipy_bit_for_bit():
    # diag's library path on the README spec (the flow, the carried map, the
    # transformed spec and the squeeze decomposition) gives the same bytes in
    # a fresh interpreter with scipy blocked as here
    code = ('import sys\nsys.modules["scipy"] = None\n' + _DIAG_PATH
            + 'assert not [n for n, mod in sys.modules.items() if n.startswith("scipy") and mod]\n'
            'sys.stdout.write(digest)\n')
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    here = {}
    exec(_DIAG_PATH, here)
    assert proc.stdout == here["digest"]
