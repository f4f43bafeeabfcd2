"""The scripts under scripts/ run end to end against the library.

Each runs as its own process, as from the command line, and must exit 0
with its table header first.
"""

import os
import subprocess
import sys

import pytest

from conftest import SRC, fresh_env

SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")


@pytest.mark.parametrize("script, args, header", [
    ("blowup_onset.py", [], "b detected t* T_max t*/T_max horizon T_0"),
    ("decay_rates.py", [], "block fitted rate 2(w-+w+) at limit rel err"),
], ids=["blowup_onset", "decay_rates"])
def test_script_runs(tmp_path, script, args, header):
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                          cwd=tmp_path, env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == header.split()
    assert len(lines) > 1
