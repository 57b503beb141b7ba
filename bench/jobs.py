"""Workload definitions: the CLI jobs of each workload and their output checks.

Every input is derived from the workload seed. Each check compares a job's
JSON report with an independent closed form (the 2/n Pauli commutator law,
binomial window mass, Born weights, the truth mixture), so a check never
reuses the program's own code. This module imports no numerical library:
the untraced benchmark process stays small and independent of the program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# the cap shared by the dense sweeps: n = 12 is dim 4096, n = 14 would need
# 4.3 GB per complex matrix
N_MAX = 12
PSI = (0.8, 0.6)
FIT_SITES = 6
FIT_K_MAX = 6
FIT_COUNT = 6
MIN_SEPARATION = 0.3  # trace distance between truth atoms, as in the acceptance gate


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `python -m macrofield <command> <args>`."""

    name: str
    command: str
    args: tuple[str, ...]
    params: dict = field(compare=False)

    def argv(self) -> list[str]:
        return [self.command, *self.args]


def _n_range(lo: int, hi: int) -> str:
    return f"{lo}..{hi}"


def commutator_job(seed1: str, seed2: str, hi: int) -> Job:
    return Job(
        f"commutator-decay:{seed1},{seed2}",
        "commutator-decay",
        ("--seed1", seed1, "--seed2", seed2, "--n", _n_range(2, hi)),
        {"seed1": seed1, "seed2": seed2, "n": list(range(2, hi + 1))},
    )


def norm_gap_job(section: str, hi: int) -> Job:
    return Job(
        f"norm-gap:{section}",
        "norm-gap",
        ("--section", section, "--n", _n_range(2, hi)),
        {"section": section, "n": list(range(2, hi + 1))},
    )


def _psi_text() -> str:
    return ",".join(repr(a) for a in PSI)


def window_mass_job(hi: int) -> Job:
    return Job(
        "window-mass",
        "window-mass",
        ("--psi", _psi_text(), "--n", _n_range(1, hi)),
        {"psi": PSI, "lam": 1, "epsilon": 0.1, "n": list(range(1, hi + 1))},
    )


def born_converge_job(hi: int) -> Job:
    return Job(
        "born-converge",
        "born-converge",
        ("--psi", _psi_text(), "--n", _n_range(1, hi)),
        {"psi": PSI, "lam": 1, "n": list(range(1, hi + 1))},
    )


def boolean_check_job(seed: int) -> Job:
    return Job(
        "boolean-check",
        "boolean-check",
        ("--sites", "10", "--instances", "20", "--rng-seed", str(seed)),
        {"sites": 10, "instances": 20, "max_leaves": 4, "rng_seed": seed},
    )


def slln_job(seed: int) -> Job:
    return Job(
        "slln-mc",
        "slln-mc",
        ("--p", "0.3", "--horizon", "10000", "--trials", "10000", "--delta", "0.02",
         "--rng-seed", str(seed)),
        {"p": 0.3, "horizon": 10000, "trials": 10000, "delta": 0.02, "rng_seed": seed},
    )


def _atoms_text(atoms) -> str:
    return ";".join(f"{w!r}:{x!r},{y!r},{z!r}" for w, (x, y, z) in atoms)


def fit_job(idx: int, atoms) -> Job:
    return Job(
        f"definetti-fit:{idx}",
        "definetti-fit",
        ("--atoms", _atoms_text(atoms), "--sites", str(FIT_SITES), "--k-max", str(FIT_K_MAX)),
        {"atoms": atoms, "sites": FIT_SITES, "k_max": FIT_K_MAX},
    )


def field_check_job(atoms, section: str, hi: int) -> Job:
    return Job(
        f"field-check:{section}",
        "field-check",
        ("--atoms", _atoms_text(atoms), "--section", section, "--n", _n_range(2, hi)),
        {"atoms": atoms, "section": section, "n": list(range(2, hi + 1))},
    )


def _unit_vector(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            return tuple(c / norm for c in v)


def truth_mixtures(seed: int):
    """Two-atom mixtures of pure qubit atoms, at least MIN_SEPARATION apart
    in trace distance (half the Bloch distance), weights in [0.2, 0.8]."""
    rng = random.Random(seed)
    out = []
    for _ in range(FIT_COUNT):
        while True:
            b1, b2 = _unit_vector(rng), _unit_vector(rng)
            if 0.5 * math.dist(b1, b2) >= MIN_SEPARATION:
                break
        w1 = rng.uniform(0.2, 0.8)
        out.append(((w1, b1), (1.0 - w1, b2)))
    return out


# Why each workload: see NOTES.md. Each list is one pass, run in this order.
def workload_jobs(name: str, seed: int) -> list[Job]:
    if name == "dense-sweep":
        return [
            commutator_job("X", "Z", N_MAX),
            norm_gap_job("sym2(X,Z)", N_MAX),
            commutator_job("X", "Y", N_MAX - 1),
        ]
    if name == "event-algebra":
        return [
            boolean_check_job(seed),
            window_mass_job(N_MAX),
            born_converge_job(N_MAX),
            slln_job(seed),
        ]
    if name == "mixture-recovery":
        mixtures = truth_mixtures(seed)
        jobs = [fit_job(i, atoms) for i, atoms in enumerate(mixtures)]
        jobs.append(field_check_job(mixtures[0], "sym2(X,Z)", 10))
        return jobs
    raise KeyError(name)


WORKLOADS = ("dense-sweep", "event-algebra", "mixture-recovery")

# one job per workload is run twice with --no-timestamp to check byte stability;
# the cheapest one, so the check stays a small share of a traced run
STABILITY_JOB = {
    "dense-sweep": "commutator-decay:X,Y",
    "event-algebra": "born-converge",
    "mixture-recovery": "field-check:sym2(X,Z)",
}


# ------------------------------------------------------------------ checks
# each returns a list of problems; an empty list means the report is right


def _check_n_list(job: Job, report: dict) -> list[str]:
    got = [rec["n"] for rec in report["records"]]
    return [] if got == job.params["n"] else [f"n list {got} != {job.params['n']}"]


def _check_commutator(job: Job, report: dict) -> list[str]:
    # [avg A, avg B] = (1/n^2) sum_k [A_k, B_k] has norm 2/n for two distinct Paulis
    problems = _check_n_list(job, report)
    for rec in report["records"]:
        if abs(rec["scaled"] - 2.0) > 1e-8:
            problems.append(f"n={rec['n']}: scaled {rec['scaled']!r} != 2")
    return problems


def _check_norm_gap(job: Job, report: dict) -> list[str]:
    problems = _check_n_list(job, report)
    gaps = {rec["n"]: rec["gap"] for rec in report["records"]}
    for n, gap in gaps.items():
        if gap < -1e-8:
            problems.append(f"n={n}: negative gap {gap!r}")
    hi = max(job.params["n"])
    if not gaps.get(hi, math.inf) < gaps.get(4, -math.inf):
        problems.append(f"gap({hi}) is not below gap(4)")
    return problems


def _born(psi, lam: int) -> float:
    return psi[lam] ** 2 / sum(a * a for a in psi)


def binomial_window_mass(n: int, p: float, eps: float) -> float:
    """Binomial(n, p) mass of {k : |k/n - p| <= eps}, the window edge
    widened by the same 1e-12 as the program's spectral window."""
    return sum(
        math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        for k in range(n + 1)
        if abs(k / n - p) <= eps + 1e-12
    )


def _check_window_mass(job: Job, report: dict) -> list[str]:
    problems = _check_n_list(job, report)
    p = _born(job.params["psi"], job.params["lam"])
    for rec in report["records"]:
        want = binomial_window_mass(rec["n"], p, job.params["epsilon"])
        if abs(rec["mass"] - want) > 1e-9:
            problems.append(f"n={rec['n']}: mass {rec['mass']!r} != binomial {want!r}")
    return problems


def _check_born(job: Job, report: dict) -> list[str]:
    problems = _check_n_list(job, report)
    want = _born(job.params["psi"], job.params["lam"])
    for rec in report["records"]:
        if abs(rec["value"] - want) > 1e-10:
            problems.append(f"n={rec['n']}: value {rec['value']!r} != |amp|^2 {want!r}")
    return problems


def _check_ok(job: Job, report: dict) -> list[str]:
    return [] if report.get("summary", {}).get("ok") is True else ["summary ok is not true"]


def _check_slln(job: Job, report: dict) -> list[str]:
    hit = report["records"][0]["hit_fraction"]
    return [] if hit >= 0.99 else [f"hit_fraction {hit!r} < 0.99"]


def _check_fit(job: Job, report: dict) -> list[str]:
    truth = list(job.params["atoms"])
    got = [(rec["weight"], (rec["x"], rec["y"], rec["z"])) for rec in report["records"]]
    if len(got) != len(truth):
        return [f"{len(got)} atoms recovered, truth has {len(truth)}"]
    problems = []
    residual = report["summary"]["residual"]
    if residual > 1e-6:
        problems.append(f"residual {residual!r} > 1e-6")
    for w_true, b_true in truth:
        j = min(range(len(got)), key=lambda i: math.dist(got[i][1], b_true))
        w_got = got.pop(j)[0]
        if abs(w_got - w_true) > 1e-3:
            problems.append(f"weight {w_got!r} != truth {w_true!r}")
    return problems


_CHECKS = {
    "commutator-decay": _check_commutator,
    "norm-gap": _check_norm_gap,
    "window-mass": _check_window_mass,
    "born-converge": _check_born,
    "boolean-check": _check_ok,
    "field-check": _check_ok,
    "slln-mc": _check_slln,
    "definetti-fit": _check_fit,
}


# every CLI subcommand; a traced run reports per-command metrics for each
COMMANDS = tuple(_CHECKS)


def check_report(job: Job, report: dict) -> list[str]:
    if report.get("command") != job.command:
        return [f"report is for {report.get('command')!r}"]
    try:
        return _CHECKS[job.command](job, report)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed report: {exc!r}"]
