"""Rewrite the golden reports that tests/test_golden.py checks byte for byte.

Run from the repository root:

    PYTHONPATH=src python tests/golden/write.py

The cases are the jobs of every benchmark workload (bench/jobs.py) at seeds 1
and 7, in JSON and CSV, plus a few runs at the ends of the block and count
routes and two fits that take the greedy rounds.  Each report is written with
--no-timestamp.  cases.json maps each file to its command line and records the
numpy and BLAS that wrote the files, so a mismatch on another machine can be
read.  A change that moves a report reruns
this script and says which reports moved and by how much.
"""

from __future__ import annotations

import json
import platform
import re
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "bench"))

from jobs import WORKLOADS, workload_jobs  # noqa: E402

from macrofield import cli  # noqa: E402

SEEDS = (1, 7)
REACH_SITES = "2,17,64,255,256"
COUNT_SITES = "1,1000,20000"
REACH = {
    "commutator-decay_X_Z": ["commutator-decay", "--seed1", "X", "--seed2", "Z", "--n", REACH_SITES],
    "norm-gap_sym2_X_Z": ["norm-gap", "--section", "sym2(X,Z)", "--n", REACH_SITES],
    "field-check_sym2_X_Z": ["field-check", "--atoms", "0.3:0.0,0.0,1.0;0.7:0.6,-0.2,0.1",
                             "--section", "sym2(X,Z)", "--n", REACH_SITES],
    "born-converge": ["born-converge", "--psi", "0.8,0.6", "--n", COUNT_SITES],
    "window-mass": ["window-mass", "--psi", "0.8,0.6", "--n", COUNT_SITES],
    # the start is refused at two sites and above the budget, so the greedy rounds fit
    "definetti-fit_2_sites": ["definetti-fit", "--atoms", "0.6:0,0,1;0.4:1,0,0", "--sites", "2"],
    "definetti-fit_k-max_2": ["definetti-fit", "--atoms", "0.4:0,0,1;0.3:0,0,-1;0.3:1,0,0",
                              "--sites", "6", "--k-max", "2"],
}


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9.-]+", "_", text).strip("_")


def cases() -> dict[str, list[str]]:
    """File name -> CLI argv, without --format, --no-timestamp and --out."""
    out = {}
    for seed in SEEDS:
        for workload in WORKLOADS:
            for job in workload_jobs(workload, seed):
                for fmt in ("json", "csv"):
                    name = f"s{seed}-{workload}-{_slug(job.name)}.{fmt}"
                    out[name] = [*job.argv(), "--format", fmt]
    for name, argv in REACH.items():
        out[f"reach-{name}.json"] = [*argv, "--format", "json"]
    return out


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (KeyError, TypeError):
        return "unknown"


def main() -> None:
    table = cases()
    for old in HERE.glob("*.json"):
        if old.name != "cases.json":
            old.unlink()
    for old in HERE.glob("*.csv"):
        old.unlink()
    for name, argv in table.items():
        code = cli.run([*argv, "--no-timestamp", "--out", str(HERE / name)])
        if code != 0:
            sys.exit(f"{name}: exit {code}")
    meta = {
        "written_with": {
            "numpy": np.__version__,
            "blas": _blas(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "cases": table,
    }
    (HERE / "cases.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} reports to {HERE}")


if __name__ == "__main__":
    main()
