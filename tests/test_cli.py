"""End-to-end runner checks through real subprocesses.

Values are checked against the same independent oracles the library tests
use: arithmetic Born probabilities, the 2/n Pauli commutator law, binomial
window masses, and hand-built mixtures. Formatting tests pin the CSV schema
and the byte-stability of seeded JSON reports.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    SRC_DIR, assert_raises_before_allocating, binom_window_mass, run_forked, src_env
)

import macrofield
import macrofield.cli as cli
from macrofield import definetti, macrolimit, sections, stochastics
from macrofield._optim import MAX_CHART_SITES
from macrofield.definetti import MAX_ATOMS, MERGE_DELTA
from macrofield.linalg import EigFailed, MacrofieldError
from macrofield.macrolimit import MAX_COUNT_SITES
from macrofield.sections import MAX_BLOCK_SITES
from macrofield.stochastics import MAX_LEAVES
from macrofield.states import density_to_bloch


def run_cli(*argv: str):
    return subprocess.run(
        [sys.executable, "-m", "macrofield", *argv],
        capture_output=True,
        text=True,
        timeout=600,
        env=src_env(),
    )


def run_json(*argv: str) -> dict:
    proc = run_cli(*argv, "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_born_converge_constant_column():
    report = run_json("born-converge", "--psi", "0.8,0.6", "--lambda", "1", "--n", "1..10")
    assert report["command"] == "born-converge"
    assert [r["n"] for r in report["records"]] == list(range(1, 11))
    for rec in report["records"]:
        assert rec["born"] == 0.36
        assert abs(rec["value"] - 0.36) <= 1e-12
    assert report["summary"]["ok"] is True
    assert report["config"]["psi"] == [0.8, 0.6]


def test_commutator_decay_scaled_column():
    report = run_json("commutator-decay", "--seed1", "X", "--seed2", "Z", "--n", "2..8")
    for rec in report["records"]:
        assert abs(rec["scaled"] - 2.0) <= 1e-8
        assert abs(rec["value"] - 2.0 / rec["n"]) <= 1e-10
    assert abs(report["summary"]["fitted_exponent"] - 1.0) <= 1e-6


def test_commutator_decay_past_the_dense_sweeps():
    # the total-spin route; a dense 2^14 x 2^14 complex matrix is 4.3 GB
    report = run_json("commutator-decay", "--seed1", "X", "--seed2", "Z", "--n", "13,14")
    assert [rec["n"] for rec in report["records"]] == [13, 14]
    for rec in report["records"]:
        assert abs(rec["scaled"] - 2.0) <= 1e-8


def test_norm_gap_order_two_seed():
    report = run_json("norm-gap", "--section", "sym2(X,Z)", "--n", "2..6")
    recs = report["records"]
    assert [r["n"] for r in recs] == [2, 3, 4, 5, 6]
    for rec in recs:
        assert abs(rec["product_sup"] - 0.5) <= 1e-6
        assert rec["gap"] >= -1e-8
        assert abs(rec["gap"] - (rec["exact_norm"] - rec["product_sup"])) <= 1e-12
    assert recs[-1]["gap"] < recs[0]["gap"]


def test_window_mass_binomial_oracle():
    report = run_json(
        "window-mass", "--psi", "0.8,0.6", "--epsilon", "0.15", "--n", "1..12"
    )
    assert report["summary"]["born"] == 0.36
    for rec in report["records"]:
        want = binom_window_mass(rec["n"], 0.36, 0.15)
        assert abs(rec["mass"] - want) <= 1e-9


def test_slln_mc_example_and_byte_stability(tmp_path):
    argv = (
        "slln-mc", "--p", "0.3", "--horizon", "10000", "--trials", "10000",
        "--delta", "0.02", "--rng-seed", "7", "--no-timestamp",
    )
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*argv, "--out", str(out1)).returncode == 0
    assert run_cli(*argv, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    rec = report["records"][0]
    assert rec["hit_fraction"] >= 0.99
    assert abs(rec["hoeffding_bound"] - 2.0 * 2.718281828459045 ** (-8.0)) <= 1e-12


def test_field_check_bytes_do_not_follow_the_blas_thread_count():
    # at n = 256 the band-0 diagonal has 16,641 entries, past the length at
    # which OpenBLAS splits one dot product across its threads
    argv = ("field-check", "--atoms", "0.3:0,0,1;0.7:0.6,-0.2,0.1", "--section", "sym2(X,Z)",
            "--n", "255,256", "--no-timestamp")
    outs = []
    for threads in ("1", "2"):
        env = {**src_env(), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "macrofield", *argv],
                              capture_output=True, text=True, timeout=600, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_boolean_check_agreement():
    report = run_json(
        "boolean-check", "--instances", "12", "--sites", "5", "--rng-seed", "11"
    )
    assert len(report["records"]) == 12
    assert report["summary"]["max_abs_error"] <= 1e-10
    assert report["summary"]["ok"] is True
    # same seed, same report
    again = run_json(
        "boolean-check", "--instances", "12", "--sites", "5", "--rng-seed", "11"
    )
    assert again == report


def test_boolean_check_past_the_dense_cap():
    # an event involves a few sites whatever the horizon, and only they are held
    report = run_json(
        "boolean-check", "--instances", "8", "--sites", "1000000", "--rng-seed", "3"
    )
    assert [r["sites"] for r in report["records"]] == [10**6] * 8
    assert report["summary"]["max_abs_error"] <= 1e-10
    assert report["summary"]["ok"] is True


def _report(capsys, *argv: str) -> dict:
    assert cli.run([*argv, "--no-timestamp"]) == 0
    return json.loads(capsys.readouterr().out)


def test_routes_match_closed_forms_far_past_the_dense_cap(capsys):
    # one n per route, against the 2/n commutator law, the Born weight 0.6**2,
    # the mixture's limit 0.5 * 0.6 * 0.8 and an exact two-atom truth
    report = _report(capsys, "commutator-decay", "--seed1", "X", "--seed2", "Z", "--n", "256")
    assert abs(report["records"][0]["scaled"] - 2.0) <= 1e-8
    report = _report(capsys, "born-converge", "--psi", "0.8,0.6", "--n", "20000")
    assert abs(report["records"][0]["value"] - 0.36) <= 1e-10
    for atoms, limit in (("0.5:0,0,1;0.5:1,0,0", 0.0), ("0.5:0,0,1;0.5:0.6,0,0.8", 0.24)):
        summary = _report(
            capsys, "field-check", "--atoms", atoms, "--section", "sym2(X,Z)", "--n", "256"
        )["summary"]
        assert summary["ok"] is True
        assert abs(summary["limit_value"] - limit) <= 1e-12
    truth = "0.3:0.6,0,0.8;0.7:0,-0.6,-0.8"
    report = _report(capsys, "definetti-fit", "--atoms", truth, "--sites", "24")
    assert report["summary"]["residual"] <= 1e-10
    got = sorted((r["weight"], r["x"], r["y"], r["z"]) for r in report["records"])
    np.testing.assert_allclose(got, [(0.3, 0.6, 0.0, 0.8), (0.7, 0.0, -0.6, -0.8)], atol=1e-8)


def test_definetti_fit_round_trip():
    report = run_json(
        "definetti-fit", "--atoms", "0.5:0,0,1;0.5:1,0,0", "--sites", "6", "--k-max", "6"
    )
    assert report["summary"]["residual"] <= 1e-6
    assert report["summary"]["budget_exhausted"] is False
    weights = sorted(rec["weight"] for rec in report["records"])
    assert len(weights) == 2
    assert all(abs(w - 0.5) <= 1e-3 for w in weights)
    points = sorted((rec["x"], rec["y"], rec["z"]) for rec in report["records"])
    for got, want in zip(points, [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)]):
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-3


# norm-gap, commutator-decay and definetti-fit through cli.run in a fresh
# interpreter, then the fit's report and the scipy modules loaded by all three
_IMPORT_PATH_SCRIPT = """
import contextlib, io, json, sys
import macrofield
from macrofield import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run([*argv, "--no-timestamp"]) == 0
    return json.loads(out.getvalue())

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

run("norm-gap", "--section", "sym2(X,Z)", "--n", "2..4")
run("commutator-decay", "--seed1", "X", "--seed2", "Y", "--n", "2..4")
fit = run("definetti-fit", "--atoms", "0.5:0,0,1;0.5:1,0,0", "--sites", "4", "--k-max", "4")
print(json.dumps({"fit": fit, "scipy": scipy_modules()}))
"""


def test_sweeps_and_the_fit_leave_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PATH_SCRIPT],
        capture_output=True,
        text=True,
        timeout=600,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["scipy"] == []
    fit = out["fit"]
    assert fit["summary"]["residual"] <= 1e-6
    atoms = sorted((rec["x"], rec["y"], rec["z"], rec["weight"]) for rec in fit["records"])
    assert len(atoms) == 2
    for got, want in zip(atoms, [(0, 0, 1, 0.5), (1, 0, 0, 0.5)]):
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-3


# the package import, then the CLI entry point on the script's arguments, in
# a fresh interpreter: whether numpy was loaded by the import, the BLAS thread
# setting, thread count and modules the entry point leaves, and any public
# name that does not resolve to its defining submodule's object
_STARTUP_SCRIPT = """
import contextlib, importlib, inspect, io, json, os, sys
import macrofield
numpy_on_import = "numpy" in sys.modules

from macrofield.__main__ import main
sys.argv = ["macrofield", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    with contextlib.suppress(SystemExit):
        main()
threads = len(os.listdir("/proc/self/task"))
dataclasses_loaded = "dataclasses" in sys.modules
# every package module but the entry point this script imports itself
loaded = sorted(name for name in sys.modules if name == "numpy" or (
    name.startswith("macrofield.") and name != "macrofield.__main__"))

wrong = []
for name in macrofield.__all__[1:]:
    obj = getattr(macrofield, name)
    home = "macrofield." + macrofield._HOME[name]
    if obj is not getattr(importlib.import_module(home), name):
        wrong.append(name)
    elif (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != home:
        wrong.append(name)
print(json.dumps({
    "numpy_on_import": numpy_on_import,
    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": threads,
    "loaded": loaded,
    "dataclasses": dataclasses_loaded,
    "wrong": wrong,
    "dir_is_all": sorted(dir(macrofield)) == sorted(macrofield.__all__),
}))
"""


def _start(*argv: str, **blas) -> dict:
    env = src_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(blas)
    proc = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, *argv],
        capture_output=True, text=True, timeout=600, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_SLLN = ("slln-mc", "--p", "0.3", "--horizon", "100", "--trials", "10", "--delta", "0.1")


def test_cli_entry_point_starts_serial_blas_behind_a_lazy_namespace():
    out = _start(*_SLLN)
    assert out["numpy_on_import"] is False
    assert out["wrong"] == []
    assert out["dir_is_all"] is True
    assert out["blas_threads"] == "1"
    # numpy loaded, so its BLAS started the threads it was told to
    assert "numpy" in out["loaded"]
    assert out["threads"] == 1
    # the caller's value wins
    assert _start(*_SLLN, OPENBLAS_NUM_THREADS="2")["blas_threads"] == "2"
    # a start that computes nothing loads neither numpy nor a route, nor the
    # dataclasses the route records are; the last argv is a usage error, as
    # norm-gap requires --section
    for argv in (("--version",), ("--help",), ("norm-gap", "--help"), ("norm-gap",)):
        out = _start(*argv)
        assert out["loaded"] == ["macrofield.cli"], argv
        assert out["dataclasses"] is False, argv


def test_public_names_are_declared_once():
    # the lazy namespace's _EXPORTS is the one list of public names; cli, which
    # that namespace does not load, declares its own
    binders = sorted(
        path.name
        for path in (SRC_DIR / "macrofield").glob("*.py")
        if any(
            isinstance(node, ast.Name) and node.id == "__all__" and isinstance(node.ctx, ast.Store)
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert binders == ["__init__.py", "cli.py"]
    # names the routes run, which resolve through the namespace test above
    assert {"recover_mixture", "leaves"} <= set(macrofield.__all__)


# the package modules each subcommand loads besides cli and numpy: its route
# and the layers that route runs, and states where a parser builds a state
_ROUTES = {
    _SLLN: ("linalg", "stochastics"),
    ("boolean-check", "--instances", "2"): ("linalg", "states", "stochastics"),
    ("definetti-fit", "--atoms", "1:0,0,1", "--sites", "2", "--k-max", "1"):
        ("linalg", "sections", "states", "_optim", "definetti"),
    ("field-check", "--atoms", "1:0,0,1", "--section", "X", "--n", "1..2"):
        ("linalg", "sections", "states", "_optim", "definetti"),
    ("born-converge", "--psi", "0.8,0.6", "--n", "1..2"):
        ("linalg", "sections", "states", "_optim", "macrolimit"),
    ("window-mass", "--psi", "0.8,0.6", "--n", "1..2"):
        ("linalg", "sections", "states", "_optim", "macrolimit"),
    ("commutator-decay", "--seed1", "X", "--seed2", "Z", "--n", "2..3"):
        ("linalg", "sections", "_optim", "macrolimit"),
    ("norm-gap", "--section", "X", "--n", "2..3"): ("linalg", "sections", "_optim", "macrolimit"),
}


@pytest.mark.parametrize("argv", list(_ROUTES), ids=lambda argv: argv[0])
def test_each_subcommand_loads_numpy_and_only_its_own_route(argv):
    want = sorted(["numpy", "macrofield.cli", *(f"macrofield.{name}" for name in _ROUTES[argv])])
    assert _start(*argv)["loaded"] == want


# the fit and the field check at n = 12 in a fresh interpreter, then its peak
# RSS; at 2^12 x 2^12 a single dense complex matrix is 268 MB
_FOOTPRINT_SCRIPT = """
import contextlib, io, json, resource
from macrofield import cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run([*argv, "--no-timestamp"]) == 0
    return json.loads(out.getvalue())["summary"]

fit = run("definetti-fit", "--atoms", "0.5:0,0,1;0.5:1,0,0", "--sites", "12")
field = run("field-check", "--atoms", "0.5:0,0,1;0.5:1,0,0", "--section", "sym2(X,Z)",
            "--n", "2..12")
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"fit": fit, "field": field, "rss_mb": rss_kb / 1024}))
"""


def test_fit_and_field_check_stay_small_at_twelve_sites():
    out = run_forked(_FOOTPRINT_SCRIPT)
    assert out["fit"]["residual"] <= 1e-10
    assert out["field"]["max_abs_error"] <= 1e-9
    assert out["rss_mb"] < 200


def test_fit_and_field_check_build_no_dense_state(monkeypatch, capsys):
    # mixture_state and j_nm build every n-site state and section, so with
    # both failing a dense route stops at once instead of allocating 4.3 GB
    # per matrix at n = 14
    def must_not_run(*args, **kwargs):
        raise AssertionError("a CLI route built an n-site matrix")

    monkeypatch.setattr(definetti, "mixture_state", must_not_run)
    monkeypatch.setattr(sections, "j_nm", must_not_run)
    atoms = "0.5:0,0,1;0.5:1,0,0"
    assert cli.run(["definetti-fit", "--atoms", atoms, "--sites", "14", "--no-timestamp"]) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["summary"]["residual"] <= 1e-10
    argv = ["field-check", "--atoms", atoms, "--section", "sym2(X,Z)", "--n", "13,14"]
    assert cli.run([*argv, "--no-timestamp"]) == 0
    field = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in field["records"]] == [13, 14]
    assert field["summary"]["max_abs_error"] <= 1e-9


def test_field_check_limit_oracle():
    report = run_json(
        "field-check", "--atoms", "0.25:0,0,0.8;0.75:0.3,0,-0.5", "--section", "avg(Z)"
    )
    assert [r["n"] for r in report["records"]] == list(range(1, 9))
    assert abs(report["summary"]["limit_value"] - (-0.175)) <= 1e-12
    assert report["summary"]["max_abs_error"] <= 1e-9
    assert report["summary"]["ok"] is True


def test_csv_schema_and_config_echo():
    proc = run_cli(
        "commutator-decay", "--seed1", "X", "--seed2", "Z", "--n", "2..4",
        "--format", "csv", "--no-timestamp",
    )
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "# command=commutator-decay"
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "n,value,scaled"
    data = [ln for ln in lines[header_idx + 1 :] if not ln.startswith("#")]
    assert len(data) == 3
    assert data[0].split(",")[0] == "2"
    assert "# seed1=avg(X)" in lines
    assert "# n_list=2,3,4" in lines


def test_out_file_and_quiet_stdout(tmp_path):
    out = tmp_path / "report.csv"
    proc = run_cli(
        "born-converge", "--psi", "0.6,0.8", "--n", "1..3",
        "--format", "csv", "--no-timestamp", "--out", str(out),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    text = out.read_text()
    assert text.count("\n") >= 5
    assert "n,value,born,abs_error" in text


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_out_path_exits_2_with_one_error_line(tmp_path, target):
    argv = ("field-check", "--atoms", "1:0,0,1", "--section", "sym2(X,Z)", "--n", "2")
    proc = run_cli(*argv, "--out", str(tmp_path / target))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_n_list_is_normalized():
    report = run_json("window-mass", "--psi", "0.8,0.6", "--n", "5,3,3")
    assert report["config"]["n_list"] == [3, 5]
    assert [r["n"] for r in report["records"]] == [3, 5]


def test_timestamp_appears_by_default():
    proc = run_cli("born-converge", "--psi", "1,0", "--lambda", "0", "--n", "1..2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert "timestamp" in report
    assert "wall_time_s" in report


@pytest.mark.parametrize(
    "argv",
    [
        ("bogus-cmd",),
        ("norm-gap", "--section", "avg(Q)", "--n", "2..4"),
        ("commutator-decay", "--seed1", "sym2(X,Z)", "--seed2", "Z", "--n", "1..4"),
        ("born-converge", "--psi", "0.8,0.6", "--n", "4..2"),
        ("born-converge", "--psi", "0,0", "--n", "1..2"),
        ("born-converge", "--psi", "0.8,0.6", "--lambda", "7", "--n", "1..2"),
        ("definetti-fit", "--atoms", "0.9:0,0,1;0.2:1,0,0"),
        ("definetti-fit", "--atoms", "1.0:0,0,2"),
        # the fit's site count is capped by its chart
        ("definetti-fit", "--atoms", "1.0:0,0,1", "--sites", "0"),
        ("definetti-fit", "--atoms", "1.0:0,0,1", "--sites", str(MAX_CHART_SITES + 1)),
        ("slln-mc", "--p", "1.5", "--horizon", "10", "--trials", "5", "--delta", "0.1"),
        ("slln-mc", "--p", "0.3", "--horizon", "10", "--trials", "5",
         "--delta", "0.1", "--rng-seed", "-1"),
        ("slln-mc", "--p", "0.3", "--horizon", "10", "--trials", "5", "--delta", "nan"),
        # a horizon beyond the int64 range of the binomial sampler, trials over the cap
        ("slln-mc", "--p", "0.3", "--horizon", str(2**63), "--trials", "5", "--delta", "0.1"),
        ("slln-mc", "--p", "0.3", "--horizon", "10", "--trials", "10000001", "--delta", "0.1"),
        ("window-mass", "--psi", "0.8,0.6", "--epsilon", "-0.1", "--n", "1..3"),
        ("field-check", "--atoms", "1.0:0,0,1", "--section", "sym2(X,Z)", "--n", "1..4"),
        # the identity is in the shared Pauli table but not in the grammar
        ("norm-gap", "--section", "avg(I)", "--n", "2..4"),
        ("commutator-decay", "--seed1", "I", "--seed2", "Z", "--n", "2..4"),
        # non-finite weights and coordinates
        ("definetti-fit", "--atoms", "nan:0,0,1"),
        ("definetti-fit", "--atoms", "1:nan,0,0"),
        ("field-check", "--atoms", "nan:0,0,1", "--section", "avg(Z)", "--n", "1..3"),
        # non-finite amplitudes and window
        ("born-converge", "--psi", "nan,1", "--n", "1..2"),
        ("born-converge", "--psi", "inf,1", "--n", "1..2"),
        ("window-mass", "--psi", "0.8,0.6", "--epsilon", "nan", "--n", "1..3"),
        # each subcommand takes only the flags it reads
        ("born-converge", "--psi", "0.8,0.6", "--n", "1..2", "--tol", "nan"),
        ("boolean-check", "--instances", "2", "--tol", "-1"),
        ("field-check", "--atoms", "1.0:0,0,1", "--section", "avg(Z)", "--n", "1..3",
         "--tol", "inf"),
        ("norm-gap", "--section", "X", "--n", "2..4", "--tol", "1e-3"),
        ("born-converge", "--psi", "0.8,0.6", "--rng-seed", "1"),
        # both size inputs of boolean-check are capped
        ("boolean-check", "--max-leaves", str(MAX_LEAVES + 1)),
        ("boolean-check", "--instances", str(cli.MAX_INSTANCES + 1)),
        # each is admitted alone, but together they exceed the work cap
        ("boolean-check", "--instances", "10000", "--max-leaves", "256", "--sites", "16"),
    ],
)
def test_bad_input_exits_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""


# each check's route, as its handler looks it up, and a short run of the check
_CHECK_RUNS = {
    "born-converge": (macrolimit, "born_curve", ["--psi", "0.8,0.6", "--n", "1..3"]),
    "boolean-check": (stochastics, "quantum_classical_agreement", ["--instances", "3"]),
    "field-check": (definetti, "field_of_states_check",
                    ["--atoms", "1.0:0,0,1", "--section", "avg(Z)", "--n", "1..3"]),
}


def _check_report(command, capsys) -> dict:
    assert cli.run([command, *_CHECK_RUNS[command][2], "--no-timestamp"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command", sorted(_CHECK_RUNS))
def test_verdict_fails_past_the_tables_tolerance(command, monkeypatch, capsys):
    module, name, _ = _CHECK_RUNS[command]
    route, tol = getattr(module, name), cli._CHECK_TOL[command]
    calls = []

    # the second record's value moves by twice the check's tolerance
    def skewed(*args):
        if command == "boolean-check":
            calls.append(None)
            quantum, classical = route(*args)
            return quantum + (2 * tol if len(calls) == 2 else 0.0), classical
        rows = route(*args)
        n, value, *rest = rows[1]
        rows[1] = (n, value + 2 * tol, *rest)
        return rows

    monkeypatch.setattr(module, name, skewed)
    report = _check_report(command, capsys)
    errors = [r["abs_error"] for r in report["records"]]
    assert max(errors) == errors[1] > tol
    assert report["summary"]["max_abs_error"] == errors[1]
    assert report["summary"]["ok"] is False


@pytest.mark.parametrize("command", sorted(_CHECK_RUNS))
def test_verdict_passes_unpatched_and_echoes_no_tolerance(command, capsys):
    report = _check_report(command, capsys)
    worst = max(r["abs_error"] for r in report["records"])
    assert report["summary"]["max_abs_error"] == worst <= cli._CHECK_TOL[command]
    assert report["summary"]["ok"] is True
    assert "tol" not in report["config"]


@pytest.mark.parametrize("psi", ["1e-200,1e-200", "1e200,1e200"])
def test_psi_normalization_survives_tiny_and_huge_amplitudes(psi, capsys):
    # squaring these amplitudes would underflow to zero or overflow
    records = []
    for text in ("1,1", psi):
        assert cli.run(["born-converge", "--psi", text, "--n", "1..2", "--no-timestamp"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["psi"] == [float(tok) for tok in text.split(",")]
        records.append(report["records"])
    assert records[1] == records[0]


def test_help_exits_0():
    assert run_cli("--help").returncode == 0
    assert cli.run(["--help"]) == 0


def test_numerical_failure_exits_3(monkeypatch, capsys):
    def eig_fails(*args, **kwargs):
        raise EigFailed("eigensolver diverged")

    monkeypatch.setattr(macrolimit, "commutator_decay", eig_fails)
    assert cli.run(["commutator-decay", "--seed1", "X", "--seed2", "Z", "--n", "2..3"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err


def test_site_count_past_the_count_cap_exits_2_at_once():
    started = time.perf_counter()
    proc = run_cli("born-converge", "--psi", "0.8,0.6", "--n", "1..1000000000")
    elapsed = time.perf_counter() - started
    assert proc.returncode == 2
    assert f"1..{MAX_COUNT_SITES}" in proc.stderr
    # interpreter start and imports dominate; a list of 10**9 counts takes tens of GB
    assert elapsed < 5.0


# one atom past the cap, each at weight 1 / (MAX_ATOMS + 1) and apart on the z axis
_ATOMS_PAST_CAP = ";".join(
    f"{1 / (MAX_ATOMS + 1)!r}:0,0,{2 * i / MAX_ATOMS - 1!r}" for i in range(MAX_ATOMS + 1)
)


def _must_not_run(*args, **kwargs):
    raise AssertionError("the route ran before its cap was checked")


@pytest.mark.parametrize(
    "argv, entries",
    [
        (("born-converge", "--psi", "0.8,0.6", "--n", f"1..{MAX_COUNT_SITES + 1}"),
         ("macrolimit.born_curve",)),
        # the count route's cap holds for any one-site dimension
        (("born-converge", "--psi", "1,1,1", "--n", f"{MAX_COUNT_SITES + 1}"),
         ("macrolimit.born_curve",)),
        (("window-mass", "--psi", "1,1,1", "--n", f"1..{MAX_COUNT_SITES + 1}"),
         ("macrolimit.window_mass",)),
        (("commutator-decay", "--seed1", "X", "--seed2", "Z", "--n",
          f"2..{MAX_BLOCK_SITES + 1}"), ("macrolimit.commutator_decay",)),
        (("norm-gap", "--section", "sym2(X,Z)", "--n", f"{MAX_BLOCK_SITES + 1}"),
         ("macrolimit.norm_gap",)),
        (("field-check", "--atoms", "1.0:0,0,1", "--section", "X", "--n",
          f"2..{MAX_BLOCK_SITES + 1}"), ("definetti.field_of_states_check",)),
        (("definetti-fit", "--atoms", "1.0:0,0,1", "--sites", f"{MAX_CHART_SITES + 1}"),
         ("definetti.recover_mixture",)),
        (("boolean-check", "--max-leaves", f"{MAX_LEAVES + 1}"),
         ("stochastics.quantum_classical_agreement",)),
        (("boolean-check", "--instances", f"{cli.MAX_INSTANCES + 1}"),
         ("stochastics.random_expression", "stochastics.quantum_classical_agreement")),
        # one instance more than the work cap admits at 256 leaves (511 nodes) on 16 sites
        (("boolean-check", "--instances", f"{cli.MAX_BOOLEAN_WORK // (511 << 16) + 1}",
          "--max-leaves", "256", "--sites", "16"),
         ("stochastics.random_expression", "stochastics.quantum_classical_agreement")),
        (("definetti-fit", "--atoms", "1.0:0,0,1", "--k-max", f"{MAX_ATOMS + 1}"),
         ("definetti.recover_mixture",)),
        (("field-check", "--atoms", _ATOMS_PAST_CAP, "--section", "X", "--n", "2..3"),
         ("definetti.field_of_states_check",)),
    ],
    ids=[
        "born-converge", "born-converge-qutrit", "window-mass-qutrit", "commutator-decay",
        "norm-gap", "field-check", "definetti-fit", "max-leaves", "instances",
        "boolean-work", "k-max", "atoms",
    ],
)
def test_input_one_past_a_route_cap_exits_2_before_the_route_runs(
    argv, entries, monkeypatch, capsys
):
    # each entry names a route function in its defining module, where the
    # handler looks it up when it runs
    for target in entries:
        monkeypatch.setattr(f"macrofield.{target}", _must_not_run)
    started = time.perf_counter()
    assert cli.run(list(argv)) == 2
    assert time.perf_counter() - started < 5.0
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "instances, leaves",
    # the most the work cap admits at 256 leaves on 16 sites, and 8-leaf
    # expressions, which involve at most 8 of the 16 sites
    [(cli.MAX_BOOLEAN_WORK // (511 << 16), 256), (cli.MAX_INSTANCES, 8)],
)
def test_boolean_work_cap_admits_its_edge(instances, leaves, monkeypatch, capsys):
    def drawn(*args):
        raise cli.BadFlag("the first expression was drawn")

    monkeypatch.setattr(stochastics, "random_expression", drawn)
    argv = ["--instances", str(instances), "--max-leaves", str(leaves), "--sites", "16"]
    assert cli.run(["boolean-check", *argv]) == 2
    assert "the first expression was drawn" in capsys.readouterr().err


# ------------------------------------------------------- n-list grammar

_SITES = st.integers(min_value=1, max_value=14)
_CAPS = st.sampled_from([MAX_CHART_SITES, MAX_BLOCK_SITES, MAX_COUNT_SITES])


def _near_ends(cap: int):
    """Site counts near 1 or near a route cap, on either side of it."""
    return st.one_of(st.integers(-2, 14), st.integers(cap - 3, cap + 3))


@given(_CAPS, st.data())
def test_n_range_equals_its_comma_list(cap, data):
    hi = data.draw(_near_ends(cap))
    lo = data.draw(st.integers(hi - 12, hi))
    texts = (f"{lo}..{hi}", ",".join(str(n) for n in range(lo, hi + 1)))
    if 1 <= lo and hi <= cap:
        want = list(range(lo, hi + 1))
        assert cli._parse_n_list(texts[0], cap) == cli._parse_n_list(texts[1], cap) == want
    else:
        for text in texts:
            with pytest.raises(cli.BadFlag, match=f"1..{cap}"):
                cli._parse_n_list(text, cap)


@given(_CAPS, st.data())
def test_n_comma_list_is_strictly_increasing(cap, data):
    ns = data.draw(st.lists(_near_ends(cap), min_size=1, max_size=20))
    text = ",".join(str(n) for n in ns)
    if not 1 <= min(ns) <= max(ns) <= cap:
        with pytest.raises(cli.BadFlag, match=f"1..{cap}"):
            cli._parse_n_list(text, cap)
        return
    vals = cli._parse_n_list(text, cap)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert set(vals) == set(ns)


def test_huge_range_is_refused_before_it_is_built():
    huge = "1..1000000000"
    assert_raises_before_allocating(cli.BadFlag, cli._parse_n_list, huge, MAX_COUNT_SITES)


_MALFORMED = st.one_of(
    # nothing but blanks
    st.text(alphabet=" \t", max_size=4),
    # a comma list with an empty token
    st.lists(_SITES.map(str), max_size=4).map(lambda toks: ",".join(toks + [""])),
    # a number with a stray character
    st.tuples(_SITES, st.sampled_from("x.+e")).map(lambda t: f"{t[0]}{t[1]}"),
    # a range running downwards
    st.tuples(_SITES, _SITES)
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: f"{max(t)}..{min(t)}"),
    # a range with a missing or extra end
    st.sampled_from(["..", "3..", "..3", "1..2..3"]),
)


@given(_MALFORMED)
def test_n_list_rejects_malformed_text(text):
    with pytest.raises(cli.BadFlag):
        cli._parse_n_list(text, MAX_BLOCK_SITES)


# ------------------------------------------------------- atom grammar

_COORD = st.floats(-1.0, 1.0)


@st.composite
def _atom_specs(draw):
    """Weights on the open simplex and Bloch points in the ball, pairwise
    apart by more than the merge floor."""
    k = draw(st.integers(1, 4))
    blochs = []
    for _ in range(k):
        b = np.array(draw(st.tuples(_COORD, _COORD, _COORD)))
        blochs.append(b / max(1.0, float(np.linalg.norm(b))))
    gaps = [0.5 * np.linalg.norm(a - b) for i, a in enumerate(blochs) for b in blochs[i + 1 :]]
    assume(all(gap >= 1.01 * MERGE_DELTA for gap in gaps))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    return [(w / sum(raw), b) for w, b in zip(raw, blochs)]


def _atom_tokens(spec) -> list[list[str]]:
    return [[repr(float(w))] + [repr(float(v)) for v in b] for w, b in spec]


def _atoms_text(tokens) -> str:
    return ";".join(f"{w}:{x},{y},{z}" for w, x, y, z in tokens)


def _blochs(mix) -> np.ndarray:
    return np.array([[v.x, v.y, v.z] for v in (density_to_bloch(rho) for _, rho in mix.atoms)])


@settings(deadline=None)
@given(_atom_specs())
def test_atom_echo_parses_back_to_the_same_mixture(spec):
    mix, canon = cli._parse_atoms(_atoms_text(_atom_tokens(spec)))
    again, echo = cli._parse_atoms(canon)
    assert [w for w, _ in mix.atoms] == [w for w, _ in spec]
    assert [w for w, _ in again.atoms] == [w for w, _ in mix.atoms]
    # _blochs reads each point back from its density matrix, where
    # z = ((1 + z) - (1 - z)) / 2 may round by an ulp of 1 or two
    np.testing.assert_allclose(_blochs(mix), [b for _, b in spec], rtol=0, atol=4.5e-16)
    np.testing.assert_allclose(_blochs(again), _blochs(mix), rtol=0, atol=4.5e-16)


@settings(deadline=None)
@given(_atom_specs())
def test_atom_echo_is_a_fixed_point(spec):
    text = _atoms_text(_atom_tokens(spec))
    _, canon = cli._parse_atoms(text)
    _, echo = cli._parse_atoms(canon)
    assert echo == canon
    # the tokens are float reprs already, so they come back as written
    assert canon == text


def _refused_before_any_fit(text: str) -> None:
    def must_not_run(*args, **kwargs):
        raise AssertionError("a refused mixture reached the computation")

    with pytest.raises((MacrofieldError, ValueError)):
        cli._parse_atoms(text)
    with (
        mock.patch.object(definetti, "recover_mixture", must_not_run),
        mock.patch.object(definetti, "field_of_states_check", must_not_run),
    ):
        assert cli.run(["definetti-fit", "--atoms", text, "--sites", "2"]) == 2
        assert cli.run(["field-check", "--atoms", text, "--section", "avg(Z)", "--n", "1..2"]) == 2


_MALFORMED_ATOMS = st.one_of(
    # nothing but blanks and separators
    st.text(alphabet=" ;", max_size=4),
    # a missing weight or separator, or a wrong coordinate count
    st.sampled_from(["1.0", "0,0,1", ":0,0,1", "1.0:", "1.0:0,0", "1.0:0,0,0,0", "1.0;0,0,1"]),
    # a token with a stray or missing character
    st.tuples(
        st.sampled_from(["{}:0,0,1", "1.0:{},0,1", "1.0:0,{},1"]),
        st.sampled_from(["x", "1e", "+-1", "0..5", ""]),
    ).map(lambda t: t[0].format(t[1])),
)


@settings(deadline=None)
@given(_MALFORMED_ATOMS)
def test_atoms_reject_malformed_text(text):
    _refused_before_any_fit(text)


@settings(deadline=None)
@given(_atom_specs(), st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999"]), st.data())
def test_atoms_reject_non_finite_values(spec, bad, data):
    tokens = _atom_tokens(spec)
    atom = data.draw(st.integers(0, len(tokens) - 1))
    slot = data.draw(st.integers(0, 3))
    tokens[atom][slot] = bad
    _refused_before_any_fit(_atoms_text(tokens))


@settings(deadline=None)
@given(_atom_specs(), st.data())
def test_atoms_reject_points_outside_the_ball(spec, data):
    atom = data.draw(st.integers(0, len(spec) - 1))
    direction = np.array(data.draw(st.tuples(_COORD, _COORD, _COORD)))
    assume(np.linalg.norm(direction) > 0.1)
    radius = data.draw(st.floats(1.0 + 1e-9, 3.0))
    spec[atom] = (spec[atom][0], radius * direction / np.linalg.norm(direction))
    _refused_before_any_fit(_atoms_text(_atom_tokens(spec)))


@settings(deadline=None)
@given(_atom_specs(), st.data())
def test_atoms_reject_colliding_points(spec, data):
    # split one atom into two whose trace distance 0.5 |b| f stays below the floor
    atom = data.draw(st.integers(0, len(spec) - 1))
    w, b = spec[atom]
    f = data.draw(st.floats(0.0, 1.9 * MERGE_DELTA))
    spec[atom : atom + 1] = [(w / 2, b), (w / 2, (1.0 - f) * b)]
    _refused_before_any_fit(_atoms_text(_atom_tokens(spec)))


# ------------------------------------------------------- section grammar

_LETTER = st.sampled_from(["X", "Y", "Z", "P0", "P1"])
_BLANKS = st.text(alphabet=" \t", max_size=2)
_FORMS = st.sampled_from(
    [
        ("{}", _LETTER),
        ("avg({})", _LETTER),
        ("sym2({},{})", _LETTER),
        ("freq({})", st.sampled_from("01")),
    ]
)


@st.composite
def _section_variants(draw):
    """A plain descriptor, and the same one with its letters in random case
    and blanks around the tokens and the whole."""
    form, args = draw(_FORMS)
    plain = [draw(args) for _ in range(form.count("{}"))]
    varied = [
        "".join(c.lower() if draw(st.booleans()) else c for c in tok) for tok in plain
    ]
    varied = [draw(_BLANKS) + tok + draw(_BLANKS) for tok in varied]
    return form.format(*plain), draw(_BLANKS) + form.format(*varied) + draw(_BLANKS)


def _same_section(a, b) -> bool:
    return (a.d, a.m) == (b.d, b.m) and np.array_equal(a.seed.entries, b.seed.entries)


@given(_section_variants())
def test_section_echo_parses_back_to_itself(texts):
    _, text = texts
    section, canon = cli._parse_section(text)
    again, echo = cli._parse_section(canon)
    assert echo == canon
    assert _same_section(again, section)


@given(_section_variants())
def test_section_case_and_blank_variants_agree(texts):
    plain, varied = texts
    section, canon = cli._parse_section(plain)
    other, other_canon = cli._parse_section(varied)
    assert other_canon == canon
    assert _same_section(other, section)


_MALFORMED_SECTIONS = st.one_of(
    # the identity is in the shared Pauli table but not in the grammar
    st.sampled_from(["I", " i ", "avg(I)", "sym2(I,X)", "sym2(Z,i)"]),
    # a frequency outcome other than 0 or 1
    st.integers(2, 99).map(lambda k: f"freq({k})"),
    st.sampled_from(["freq(-1)", "freq(+1)", "freq()", "freq(x)", "freq(0,1)"]),
    # a wrong letter count
    st.sampled_from(["avg()", "avg(X,Z)", "sym2(X)", "sym2(X,Y,Z)", "sym2()", "sym2(X,)"]),
    # an unknown kind or letter, or a missing or stray character
    st.sampled_from(["", "foo(X)", "avg(X", "avgX)", "avg(X))", "avg(X)Z", "avg (X)", "(X)"]),
    st.sampled_from(["XZ", "P2", "avg(Q)", "sym2(X,P)"]),
)


@given(_MALFORMED_SECTIONS)
def test_section_rejects_malformed_text(text):
    with pytest.raises(cli.BadFlag):
        cli._parse_section(text)
