"""The standalone oracle scripts re-derive the frozen constants the tests
rely on; each must run to completion and exit 0."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script",
    ["expand_crossed_constants.py", "solve_base_constants.py", "loop_count_oracle.py"],
)
def test_oracle_script_exits_0(script):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
