"""bwflow runs on numpy alone: no module of the package imports scipy, and
pyproject.toml installs numpy only, with scipy in the test extra, where
the tests use it as an oracle.

pyproject.toml is read with a regular expression, since Python 3.10 has
no tomllib.
"""

import ast
import glob
import os
import re

from conftest import SRC

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
