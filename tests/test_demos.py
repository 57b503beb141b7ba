"""Each demo script runs clean and prints something."""

import pathlib
import subprocess
import sys

import pytest

from conftest import src_env

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip()) > 0
