"""Experiment runner: one subcommand per experiment, CSV or JSON reports.

A report's config header echoes every flag as parsed except --out and
--no-timestamp; --n and the descriptors (--psi, --atoms, --section, --seed1,
--seed2) echo their parsed values, so a report can be replayed bit-for-bit
from its own header. Records are ordered by their leading key.
Exit codes: 0 success, 2 bad input, 3 numerical failure.
"""

from __future__ import annotations

# Only the standard library loads with this module: each subcommand imports
# numpy and its own route when it runs, so --version, --help and usage errors
# load neither. argparse thus loads before numpy; a `boolean-check` process
# peaks at 35.6 MB, against 36.0 MB with every module loaded at import (median
# of 15 starts on a 2-core x86-64 VM with numpy 2.4.6)
import argparse
import json
import math
import re
import sys
import time

from . import __version__

__all__ = ["BadFlag", "run", "main"]


class BadFlag(ValueError):
    """A flag or descriptor outside its grammar or range; `run` exits 2 on it."""


MAX_INSTANCES = 10**4  # boolean-check instances per run
# boolean-check work cap on instances x tree nodes x assignments of the
# involved sites, of which there are at most the leaves, the sites and
# MAX_ENUM_SITES: 256 instances of up to 256 leaves on 16 sites, the most
# it admits there, take about 52 s
MAX_BOOLEAN_WORK = 2**33

# the one-site letters of the descriptor grammar; the identity is not one
_LETTERS = ("X", "Y", "Z", "P0", "P1")

_SECTION_RE = re.compile(r"(avg|sym2|freq)\(([^)]*)\)\Z")


def _letter(tok: str):
    from .linalg import PAULI
    key = tok.strip().upper()
    if key not in _LETTERS:
        raise BadFlag(f"unknown one-site letter {tok!r}; use {', '.join(_LETTERS)}")
    return PAULI[key].entries


def _parse_section(text: str):
    """Descriptor to section: avg(L), sym2(L,L), freq(0|1), or a bare letter."""
    import numpy as np
    from .linalg import Operator, SiteSpace
    from .sections import SymmetricSection, frequency_section
    src = text.strip()
    if src.upper() in _LETTERS:
        src = f"avg({src})"
    m = _SECTION_RE.match(src)
    if m is None:
        raise BadFlag(f"bad section descriptor {text!r}")
    kind, body = m.group(1), m.group(2)
    if kind == "avg":
        arr = _letter(body)
        canon = f"avg({body.strip().upper()})"
        return SymmetricSection(2, 1, Operator(SiteSpace(2, 1), arr)), canon
    if kind == "sym2":
        parts = body.split(",")
        if len(parts) != 2:
            raise BadFlag(f"sym2 needs two letters, got {text!r}")
        a, b = _letter(parts[0]), _letter(parts[1])
        seed = 0.5 * (np.kron(a, b) + np.kron(b, a))
        canon = f"sym2({parts[0].strip().upper()},{parts[1].strip().upper()})"
        return SymmetricSection(2, 2, Operator(SiteSpace(2, 2), seed)), canon
    if body.strip() not in ("0", "1"):
        raise BadFlag(f"freq takes outcome 0 or 1, got {text!r}")
    k = int(body)
    return frequency_section(_freq_spec(2, k)), f"freq({k})"


def _parse_n_list(text: str, cap: int) -> list[int]:
    """Either lo..hi or a comma list of site counts in 1..cap, the cap of the
    route that runs them; the result is strictly increasing."""
    src = text.strip()
    try:
        if ".." in src:
            lo_txt, hi_txt = src.split("..", 1)
            lo, hi = int(lo_txt), int(hi_txt)
            if hi < lo:
                raise BadFlag(f"empty site range {text!r}")
            vals = range(lo, hi + 1)
        else:
            vals = sorted({int(tok) for tok in src.split(",")})
    except ValueError:
        raise BadFlag(f"bad site list {text!r}") from None
    # both ends are checked before a range is expanded, so a huge one fails fast
    if not (1 <= vals[0] and vals[-1] <= cap):
        raise BadFlag(f"site counts must lie in 1..{cap}, the route's cap, got {text!r}")
    return list(vals)


def _parse_psi(text: str):
    """Comma list of real amplitudes to a normalized state; the echo repeats
    the parsed floats, so replaying it normalizes the same amplitudes."""
    import numpy as np
    from .states import PureState
    try:
        vals = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise BadFlag(f"bad amplitude list {text!r}") from None
    if len(vals) < 2:
        raise BadFlag("state needs at least two amplitudes")
    if not all(map(math.isfinite, vals)):
        raise BadFlag(f"amplitudes must be finite, got {text!r}")
    # hypot scales its arguments, so tiny or huge amplitudes neither underflow
    # to zero nor overflow
    norm = math.hypot(*vals)
    if norm <= 0.0:
        raise BadFlag("state amplitudes are all zero")
    return PureState(len(vals), np.array(vals, dtype=np.complex128) / norm), vals


def _parse_atoms(text: str):
    """w:x,y,z;w:x,y,z descriptor to a mixture; the echo repeats the parsed floats."""
    from .definetti import MAX_ATOMS, DiscreteMixture
    from .states import BlochVector, bloch_to_density
    pairs = []
    for part in text.split(";"):
        chunk = part.strip()
        if not chunk:
            continue
        try:
            w_txt, b_txt = chunk.split(":", 1)
            coords = [float(tok) for tok in b_txt.split(",")]
            weight = float(w_txt)
        except ValueError:
            raise BadFlag(f"bad atom {part!r}; expected w:x,y,z") from None
        if len(coords) != 3:
            raise BadFlag(f"atom needs three Bloch coordinates, got {part!r}")
        pairs.append((weight, coords))
    if not pairs:
        raise BadFlag("no atoms given")
    if len(pairs) > MAX_ATOMS:
        raise BadFlag(f"{len(pairs)} atoms exceed the cap {MAX_ATOMS}")
    mix = DiscreteMixture(tuple((w, bloch_to_density(BlochVector(*b))) for w, b in pairs))
    canon = ";".join(f"{w!r}:{x!r},{y!r},{z!r}" for w, (x, y, z) in pairs)
    return mix, canon


def _freq_spec(d: int, lam: int):
    import numpy as np
    from .linalg import Operator, SiteSpace
    from .sections import FrequencySpec
    if not 0 <= lam < d:
        raise BadFlag(f"outcome index {lam} outside 0..{d - 1}")
    proj = np.zeros((d, d), dtype=np.complex128)
    proj[lam, lam] = 1.0
    return FrequencySpec(d, Operator(SiteSpace(d, 1), proj))


def _clean(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


# ------------------------------------------------------------- subcommands
# each handler returns (parsed, records, summary): parsed holds the forms it
# parsed out of descriptor flags, which replace the raw text in run()'s echo of
# the flags; the CSV columns are the first record's keys, in order


def _cmd_born_converge(args):
    from .macrolimit import MAX_COUNT_SITES, born_curve
    psi, amplitudes = _parse_psi(args.psi)
    spec = _freq_spec(psi.d, args.lam)
    n_list = _parse_n_list(args.n, MAX_COUNT_SITES)
    born = float(abs(psi.amplitudes[args.lam]) ** 2)
    records = [
        {"n": int(n), "value": float(v), "born": born, "abs_error": abs(float(v) - born)}
        for n, v in born_curve(psi, spec, n_list)
    ]
    worst = max(r["abs_error"] for r in records)
    return {"psi": amplitudes, "n_list": n_list}, records, {
        "max_abs_error": worst,
        "ok": worst <= args.tol,
    }


def _cmd_commutator_decay(args):
    from dataclasses import asdict
    from .macrolimit import commutator_decay, fit_decay_exponent
    from .sections import MAX_BLOCK_SITES
    s1, canon1 = _parse_section(args.seed1)
    s2, canon2 = _parse_section(args.seed2)
    n_list = _parse_n_list(args.n, MAX_BLOCK_SITES)
    recs = commutator_decay(s1, s2, n_list)
    records = list(map(asdict, recs))
    exponent = fit_decay_exponent(recs)
    parsed = {"seed1": canon1, "seed2": canon2, "n_list": n_list}
    return parsed, records, {"fitted_exponent": _clean(exponent)}


def _cmd_norm_gap(args):
    from dataclasses import asdict
    from .macrolimit import norm_gap
    from .sections import MAX_BLOCK_SITES
    section, canon = _parse_section(args.section)
    n_list = _parse_n_list(args.n, MAX_BLOCK_SITES)
    records = list(map(asdict, norm_gap(section, n_list)))
    gaps = [r["gap"] for r in records]
    return {"section": canon, "n_list": n_list}, records, {
        "min_gap": min(gaps),
        "max_gap": max(gaps),
    }


def _cmd_window_mass(args):
    from dataclasses import asdict
    from .macrolimit import MAX_COUNT_SITES, window_mass
    psi, amplitudes = _parse_psi(args.psi)
    spec = _freq_spec(psi.d, args.lam)
    n_list = _parse_n_list(args.n, MAX_COUNT_SITES)
    records = list(map(asdict, window_mass(psi, spec, n_list, args.epsilon)))
    return {"psi": amplitudes, "n_list": n_list}, records, {
        "born": float(abs(psi.amplitudes[args.lam]) ** 2),
        "final_mass": records[-1]["mass"],
    }


def _cmd_slln_mc(args):
    from .stochastics import BernoulliSpec, slln_check
    report = slln_check(
        BernoulliSpec(args.p), args.horizon, args.trials, args.delta, args.rng_seed
    )
    record = {
        "p": float(report.p),
        "horizon": int(report.n),
        "trials": int(report.trials),
        "delta": float(report.delta),
        "hit_fraction": float(report.hit_fraction),
        "hoeffding_bound": float(report.hoeffding_bound),
    }
    return {}, [record], {}


def _cmd_boolean_check(args):
    import numpy as np
    from .states import PureState
    from .stochastics import MAX_ENUM_SITES, leaves, quantum_classical_agreement, random_expression
    if not 1 <= args.instances <= MAX_INSTANCES:
        raise BadFlag(f"instances must lie in 1..{MAX_INSTANCES} (the cap), got {args.instances}")
    nodes = 2 * args.max_leaves - 1
    work = args.instances * nodes * 2 ** min(args.sites, args.max_leaves, MAX_ENUM_SITES)
    if work > MAX_BOOLEAN_WORK:
        raise BadFlag(f"instances x nodes x assignments {work} exceed the cap {MAX_BOOLEAN_WORK}")
    rng = np.random.default_rng(args.rng_seed)
    records = []
    for idx in range(args.instances):
        expr = random_expression(rng, args.sites, args.max_leaves)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = PureState(2, v / np.linalg.norm(v))
        quantum, classical = quantum_classical_agreement(psi, expr, args.sites)
        records.append(
            {
                "instance": idx,
                "sites": args.sites,
                "leaves": sum(1 for _ in leaves(expr)),
                "quantum": float(quantum),
                "classical": float(classical),
                "abs_error": abs(float(quantum) - float(classical)),
            }
        )
    worst = max(r["abs_error"] for r in records)
    return {}, records, {"max_abs_error": worst, "ok": worst <= args.tol}


def _cmd_definetti_fit(args):
    from ._optim import MAX_CHART_SITES
    from .definetti import MAX_ATOMS, recover_mixture
    from .states import density_to_bloch
    mix, canon = _parse_atoms(args.atoms)
    if not 1 <= args.sites <= MAX_CHART_SITES:
        raise BadFlag(f"sites must lie in 1..{MAX_CHART_SITES}, the chart's cap, got {args.sites}")
    if not 1 <= args.k_max <= MAX_ATOMS:
        raise BadFlag(f"k-max must lie in 1..{MAX_ATOMS}, the atom cap, got {args.k_max}")
    result = recover_mixture(mix, args.sites, args.k_max)
    records = []
    for idx, (w, rho) in enumerate(result.mixture.atoms):
        b = density_to_bloch(rho)
        records.append(
            {"atom": idx, "weight": float(w), "x": b.x, "y": b.y, "z": b.z}
        )
    return {"atoms": canon}, records, {
        "residual": float(result.residual),
        "iterations": int(result.iterations),
        "budget_exhausted": bool(result.budget_exhausted),
    }


def _cmd_field_check(args):
    from .definetti import field_of_states_check
    from .sections import MAX_BLOCK_SITES
    mix, canon = _parse_atoms(args.atoms)
    section, canon_sec = _parse_section(args.section)
    n_list = _parse_n_list(args.n, MAX_BLOCK_SITES) if args.n else list(range(section.m, 9))
    rows = field_of_states_check(mix, section, n_list)
    records = [
        {"n": n, "lhs": float(lhs), "rhs": float(rhs), "abs_error": abs(lhs - rhs)}
        for n, lhs, rhs in rows
    ]
    worst = max(r["abs_error"] for r in records)
    parsed = {"atoms": canon, "section": canon_sec, "n_list": n_list}
    return parsed, records, {
        "limit_value": records[0]["rhs"],
        "max_abs_error": worst,
        "ok": worst <= args.tol,
    }


_COMMANDS = {
    "born-converge": _cmd_born_converge,
    "commutator-decay": _cmd_commutator_decay,
    "norm-gap": _cmd_norm_gap,
    "window-mass": _cmd_window_mass,
    "slln-mc": _cmd_slln_mc,
    "boolean-check": _cmd_boolean_check,
    "definetti-fit": _cmd_definetti_fit,
    "field-check": _cmd_field_check,
}


# ---------------------------------------------------------------- plumbing


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed {value} outside the unsigned 64-bit range")
    return value


def _tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance {text!r}") from None
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="json")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timestamp and wall time, for byte-stable reports",
    )

    parser = argparse.ArgumentParser(
        prog="macrofield",
        description="Finite-size experiments over permutation-averaged observables.",
    )
    parser.add_argument("--version", action="version", version=f"macrofield {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("born-converge", parents=[common], help="frequency expectation per n")
    p.add_argument("--psi", required=True, help="comma-separated real amplitudes, normalized")
    p.add_argument("--lambda", dest="lam", type=int, default=1, help="basis outcome index")
    p.add_argument("--n", default="1..10", help="site counts, lo..hi or comma list")
    p.add_argument("--tol", type=_tol, default=1e-10, metavar="REAL")

    p = sub.add_parser("commutator-decay", parents=[common], help="commutator norm per n")
    p.add_argument("--seed1", required=True, help="section descriptor or bare letter")
    p.add_argument("--seed2", required=True)
    p.add_argument("--n", default="2..12")

    p = sub.add_parser("norm-gap", parents=[common], help="exact norm vs product supremum")
    p.add_argument("--section", required=True)
    p.add_argument("--n", default="2..12")

    p = sub.add_parser("window-mass", parents=[common], help="frequency window weight per n")
    p.add_argument("--psi", required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--n", default="1..12")

    p = sub.add_parser("slln-mc", parents=[common], help="Bernoulli sample-mean concentration")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--horizon", type=int, required=True, help="sequence length per trial")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--rng-seed", type=_u64, default=0, metavar="U64")

    p = sub.add_parser("boolean-check", parents=[common], help="event vs projection agreement")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--max-leaves", dest="max_leaves", type=int, default=4)
    p.add_argument("--sites", type=int, default=6)
    p.add_argument("--rng-seed", type=_u64, default=0, metavar="U64")
    p.add_argument("--tol", type=_tol, default=1e-10, metavar="REAL")

    p = sub.add_parser("definetti-fit", parents=[common], help="mixture recovery round trip")
    p.add_argument("--atoms", required=True, help="truth mixture, w:x,y,z;w:x,y,z")
    p.add_argument("--sites", type=int, default=6)
    p.add_argument("--k-max", dest="k_max", type=int, default=6)

    p = sub.add_parser("field-check", parents=[common], help="mixture expectations vs the limit")
    p.add_argument("--atoms", required=True)
    p.add_argument("--section", required=True)
    p.add_argument("--n", default=None, help="defaults to seed order..8")
    p.add_argument("--tol", type=_tol, default=1e-9, metavar="REAL")

    return parser


def _fmt_plain(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt_plain(v) for v in value)
    if value is None:
        return "nan"
    return str(value)


def _render_csv(report: dict) -> str:
    lines = [f"# command={report['command']}", f"# version={report['version']}"]
    for key in sorted(report["config"]):
        lines.append(f"# {key}={_fmt_plain(report['config'][key])}")
    columns = list(report["records"][0])
    lines.append(",".join(columns))
    for rec in report["records"]:
        lines.append(",".join(_fmt_plain(rec[c]) for c in columns))
    for key in sorted(report.get("summary", ())):
        lines.append(f"# {key}={_fmt_plain(report['summary'][key])}")
    if "timestamp" in report:
        lines.append(f"# timestamp={report['timestamp']}")
        lines.append(f"# wall_time_s={_fmt_plain(report['wall_time_s'])}")
    return "\n".join(lines) + "\n"


def _render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    from .linalg import EigFailed, MacrofieldError
    started = time.perf_counter()
    try:
        parsed, records, summary = _COMMANDS[args.command](args)
    except EigFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (MacrofieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # every flag as parsed but --out and --no-timestamp, --lambda under its
    # own name; descriptors and --n echo the forms their handler parsed
    skip = ("command", "out", "no_timestamp", "n")
    config = {"lambda" if k == "lam" else k: v for k, v in vars(args).items() if k not in skip}
    report = {
        "command": args.command,
        "version": __version__,
        "config": config | parsed,
        "records": records,
    }
    if summary:
        report["summary"] = summary
    if not args.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        report["wall_time_s"] = round(time.perf_counter() - started, 6)

    text = _render_csv(report) if args.format == "csv" else _render_json(report)
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())
