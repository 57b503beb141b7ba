"""Every golden report under tests/golden/ is reproduced byte for byte.

The reports are the benchmark's jobs, a few runs at the ends of the block and
count routes and two greedy fits, written by tests/golden/write.py; this test
only reads them.
"""

from __future__ import annotations

import json
from pathlib import Path

from macrofield import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


def _first_difference(want: str, got: str) -> str:
    want_lines, got_lines = want.splitlines(), got.splitlines()
    for idx, (a, b) in enumerate(zip(want_lines, got_lines), start=1):
        if a != b:
            return f"line {idx}: want {a!r}, got {b!r}"
    return f"line count: want {len(want_lines)}, got {len(got_lines)}"


def test_golden_reports_are_byte_identical(tmp_path):
    meta = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    assert len(meta["cases"]) >= 56
    problems = []
    for name, argv in meta["cases"].items():
        out = tmp_path / name
        code = cli.run([*argv, "--no-timestamp", "--out", str(out)])
        if code != 0:
            problems.append(f"{name}: exit {code}")
            continue
        want, got = (GOLDEN / name).read_bytes(), out.read_bytes()
        if want != got:
            diff = _first_difference(want.decode("utf-8"), got.decode("utf-8"))
            problems.append(f"{name}: {diff}")
    assert not problems, (
        f"{len(problems)} golden reports differ (written with {meta['written_with']}):\n"
        + "\n".join(problems)
    )
