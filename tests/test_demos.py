"""Each demo script, and each python block of the README, runs clean and
prints something; the README's Route caps table names the caps the code holds."""

import importlib
import pathlib
import re
import subprocess
import sys

import pytest

from conftest import src_env

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def _run_clean(argv):
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=300, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip()) > 0


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(script):
    _run_clean([sys.executable, str(script)])


@pytest.mark.parametrize(
    "block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))]
)
def test_readme_python_block_runs(block):
    _run_clean([sys.executable, "-c", block])


def _cap_value(text: str) -> int:
    # 256, 50,000, 10^4 or 2^33
    base, _, exp = text.replace(",", "").partition("^")
    return int(base) ** int(exp or 1)


def test_readme_route_caps_match_the_code():
    section = (ROOT / "README.md").read_text().split("### Route caps", 1)[1].split("\n### ", 1)[0]
    cells = [line.split("|")[3] for line in section.splitlines() if line.startswith("| ")][1:]
    caps = [
        (module, name, _cap_value(value))
        for cell in cells
        for value, module, name in re.findall(r"<= (\S+)[^(|]*\(`(\w+)\.(MAX_\w+)`\)", cell)
    ]
    assert len(caps) == 9, caps
    for module, name, value in caps:
        assert getattr(importlib.import_module(f"macrofield.{module}"), name) == value, name
