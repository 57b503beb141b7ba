"""End-to-end runner checks through real subprocesses.

Values are checked against the same independent oracles the library tests
use: arithmetic Born probabilities, the 2/n Pauli commutator law, binomial
window masses, and hand-built mixtures. Formatting tests pin the CSV schema
and the byte-stability of seeded JSON reports.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import binom_window_mass, src_env

import macrofield.cli as cli
from macrofield import definetti, sections
from macrofield._optim import OptimizerFailed
from macrofield.definetti import MERGE_DELTA
from macrofield.linalg import EigFailed
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


# the package import, then the CLI entry point on --version, in a fresh
# interpreter: whether numpy was loaded by the import, the BLAS thread setting
# and thread count the entry point leaves, and any public name that does not
# resolve to its defining submodule's object
_STARTUP_SCRIPT = """
import contextlib, importlib, inspect, io, json, os, sys
import macrofield
numpy_on_import = "numpy" in sys.modules

from macrofield.__main__ import main
sys.argv = ["macrofield", "--version"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    main()
threads = len(os.listdir("/proc/self/task"))

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
    "wrong": wrong,
    "dir_is_all": sorted(dir(macrofield)) == sorted(macrofield.__all__),
}))
"""


def test_cli_entry_point_starts_serial_blas_behind_a_lazy_namespace():
    def start(**blas):
        env = src_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        env.update(blas)
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT],
            capture_output=True, text=True, timeout=600, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    out = start()
    assert out["numpy_on_import"] is False
    assert out["wrong"] == []
    assert out["dir_is_all"] is True
    assert out["blas_threads"] == "1"
    assert out["threads"] == 1
    # the caller's value wins
    assert start(OPENBLAS_NUM_THREADS="2")["blas_threads"] == "2"


# the fit and the field check at n = 12 in a fresh interpreter, then its peak
# RSS; at 2^12 x 2^12 a single dense complex matrix is 268 MB. ru_maxrss
# survives exec, so an interpreter started from the test process would report
# that process's peak; the work runs in a child forked from this small one
_FOOTPRINT_SCRIPT = """
import os, sys
pid = os.fork()
if pid:
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))

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
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT],
        capture_output=True,
        text=True,
        timeout=600,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["fit"]["residual"] <= 1e-10
    assert out["field"]["max_abs_error"] <= 1e-9
    assert out["rss_mb"] < 200


def test_fit_and_field_check_build_no_dense_state(monkeypatch, capsys):
    # mixture_state and j_nm build every n-site state and section, so with
    # both failing a dense route stops at once instead of allocating 4.3 GB
    # per matrix at n = 14; the CLI's own name for mixture_state is covered
    # too, should it import one
    def must_not_run(*args, **kwargs):
        raise AssertionError("a CLI route built an n-site matrix")

    monkeypatch.setattr(definetti, "mixture_state", must_not_run)
    monkeypatch.setattr(cli, "mixture_state", must_not_run, raising=False)
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
        # the fit runs on the chart, but its site count keeps the dense cap
        ("definetti-fit", "--atoms", "1.0:0,0,1", "--sites", "0"),
        ("definetti-fit", "--atoms", "1.0:0,0,1", "--sites", "15"),
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
        # non-finite amplitudes and window; a tolerance must be finite and >= 0
        ("born-converge", "--psi", "nan,1", "--n", "1..2"),
        ("born-converge", "--psi", "inf,1", "--n", "1..2"),
        ("window-mass", "--psi", "0.8,0.6", "--epsilon", "nan", "--n", "1..3"),
        ("born-converge", "--psi", "0.8,0.6", "--n", "1..2", "--tol", "nan"),
        ("boolean-check", "--instances", "2", "--tol", "-1"),
        ("field-check", "--atoms", "1.0:0,0,1", "--section", "avg(Z)", "--n", "1..3",
         "--tol", "inf"),
        # each subcommand takes only the flags it reads
        ("norm-gap", "--section", "X", "--n", "2..4", "--tol", "1e-3"),
        ("born-converge", "--psi", "0.8,0.6", "--rng-seed", "1"),
    ],
)
def test_bad_input_exits_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""


@pytest.mark.parametrize("psi", ["1e-200,1e-200", "1e200,1e200"])
def test_psi_normalization_survives_tiny_and_huge_amplitudes(psi, capsys):
    # squaring these amplitudes would underflow to zero or overflow
    echoes = []
    for text in ("1,1", psi):
        assert cli.run(["born-converge", "--psi", text, "--n", "1..2", "--no-timestamp"]) == 0
        echoes.append(json.loads(capsys.readouterr().out)["config"]["psi"])
    assert echoes[1] == echoes[0]


def test_help_exits_0():
    assert run_cli("--help").returncode == 0
    assert cli.run(["--help"]) == 0


def test_numerical_failure_exits_3(monkeypatch, capsys):
    def sup_fails(*args, **kwargs):
        raise OptimizerFailed("no start converged")

    monkeypatch.setattr(cli, "norm_gap", sup_fails)
    assert cli.run(["norm-gap", "--section", "avg(Z)", "--n", "2..3"]) == 3

    def eig_fails(*args, **kwargs):
        raise EigFailed("eigensolver diverged")

    monkeypatch.setattr(cli, "commutator_decay", eig_fails)
    assert cli.run(["commutator-decay", "--seed1", "X", "--seed2", "Z", "--n", "2..3"]) == 3
    err = capsys.readouterr().err
    assert "error:" in err


def test_site_count_past_the_dense_cap_exits_2_at_once():
    started = time.perf_counter()
    proc = run_cli("born-converge", "--psi", "0.8,0.6", "--n", "1000000000")
    elapsed = time.perf_counter() - started
    assert proc.returncode == 2
    assert "dense cap" in proc.stderr
    # interpreter start and imports dominate; forming 2**(10**9) took seconds
    assert elapsed < 5.0


def test_site_count_past_the_qutrit_cap_exits_2_before_the_sweep(monkeypatch):
    # the cap depends on the one-site dimension: 8 sites at d = 3
    def must_not_run(*args, **kwargs):
        raise AssertionError("the sweep ran before the site list was checked")

    monkeypatch.setattr(cli, "born_curve", must_not_run)
    monkeypatch.setattr(cli, "window_mass", must_not_run)
    for command in ("born-converge", "window-mass"):
        assert cli.run([command, "--psi", "1,1,1", "--n", "1..14"]) == 2


# ------------------------------------------------------- n-list grammar

_SITES = st.integers(min_value=1, max_value=14)


@given(_SITES, _SITES)
def test_n_range_equals_its_comma_list(a, b):
    lo, hi = min(a, b), max(a, b)
    comma = ",".join(str(n) for n in range(lo, hi + 1))
    assert cli._parse_n_list(f"{lo}..{hi}") == cli._parse_n_list(comma)


@given(st.lists(_SITES, min_size=1, max_size=20))
def test_n_comma_list_is_strictly_increasing(ns):
    vals = cli._parse_n_list(",".join(str(n) for n in ns))
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert set(vals) == set(ns)


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
        cli._parse_n_list(text)


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

    with pytest.raises((cli.MacrofieldError, ValueError)):
        cli._parse_atoms(text)
    with (
        mock.patch.object(cli, "recover_mixture", must_not_run),
        mock.patch.object(cli, "field_of_states_check", must_not_run),
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
