"""Every golden report under tests/golden/ is reproduced byte for byte.

The reports are the benchmark's jobs, a few runs at the ends of the block and
count routes and two greedy fits, written by tests/golden/write.py; this test
only reads them. Each JSON report also replays from its own header.
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


def _replay_argv(report: dict) -> list[str]:
    """The command line a report's header describes: one --key=value per entry."""
    argv = [report["command"]]
    for key, value in report["config"].items():
        flag = "n" if key == "n_list" else key.replace("_", "-")
        argv.append(f"--{flag}={cli._fmt_plain(value)}")
    return argv


# these amplitudes, normalized and then normalized again, move by an ulp, so
# a header that echoed the normalized state would not replay
_PSI_CASE = ["born-converge", "--psi", "45966.34965202573,-339.6055628040029"]


def test_every_report_replays_from_its_own_header(tmp_path):
    meta = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    reports = {name: GOLDEN / name for name in meta["cases"] if name.endswith(".json")}
    reports["psi.json"] = tmp_path / "psi.json"
    assert cli.run([*_PSI_CASE, "--no-timestamp", "--out", str(reports["psi.json"])]) == 0
    problems = []
    for name, path in reports.items():
        want = path.read_bytes()
        argv = _replay_argv(json.loads(want))
        out = tmp_path / f"replay-{name}"
        code = cli.run([*argv, "--no-timestamp", "--out", str(out)])
        if code != 0:
            problems.append(f"{name}: {argv} exits {code}")
        elif out.read_bytes() != want:
            diff = _first_difference(want.decode("utf-8"), out.read_text(encoding="utf-8"))
            problems.append(f"{name}: {diff}")
    assert len(reports) >= 36
    assert not problems, f"{len(problems)} reports do not replay:\n" + "\n".join(problems)
