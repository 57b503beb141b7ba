"""Traced in-process replay of a workload pass.

Each job is replayed by calling the public functions of each layer in the
order its CLI handler calls them, serially, with one span around every call.
The replay rebuilds the job's report records, so the benchmark can check that
the traced calls compute exactly what the CLI reported. Spans live in memory;
the caller reduces them to per-layer self times and counts.

Functions that the CLI reaches only inside another layer's call are not split
out: window_projection's frequency operator and eigendecomposition count as
window_projection, and the private `_optim` module is timed through its two
callers, product_state_sup and fit_mixture.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from macrofield import (
    BernoulliSpec,
    BlochVector,
    DiscreteMixture,
    FrequencySpec,
    Operator,
    PureState,
    SiteSpace,
    SymmetricSection,
    bloch_to_density,
    classical_probability,
    commutator,
    cylinder_to_projection,
    density_to_bloch,
    expect,
    fit_mixture,
    frequency_operator,
    materialize,
    mixture_state,
    power_vector,
    product_power,
    product_state_sup,
    pure_power,
    random_expression,
    slln_check,
    spectral_norm,
    window_projection,
)
from macrofield.linalg import PAULI

# every span name the replay can record, in report order
LAYER_SPANS = (
    "sections.materialize",
    "sections.frequency_operator",
    "linalg.commutator",
    "linalg.spectral_norm",
    "macrolimit.product_state_sup",
    "macrolimit.window_projection",
    "states.power_vector",
    "states.pure_power",
    "states.expect",
    "stochastics.cylinder_to_projection",
    "stochastics.classical_probability",
    "stochastics.slln_check",
    "definetti.fit_mixture",
    "definetti.mixture_state",
)
# spans whose returned operator size is recorded as a computed byte count
OUT_BYTES_SPANS = (
    "sections.materialize",
    "macrolimit.window_projection",
    "stochastics.cylinder_to_projection",
)


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; `call` wraps one layer call in a span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = ""

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.job, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, n: int | None = None):
        """Run fn(*args) in a span; n, when given, records the site count."""
        idx = self.begin(name)
        try:
            out = fn(*args)
        finally:
            self.end(idx)
        if n is not None:
            self.spans[idx].counts["n"] = n
        if name in OUT_BYTES_SPANS:
            self.spans[idx].counts["out_bytes"] = int(out.entries.nbytes)
        return out

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


# ------------------------------------------------ inputs, built as the CLI does


def _section(text: str) -> SymmetricSection:
    """avg of a bare Pauli letter, or sym2(A,B); the descriptors the workloads use."""
    if text.startswith("sym2(") and text.endswith(")"):
        a, b = (PAULI[t].entries for t in text[5:-1].split(","))
        seed = 0.5 * (np.kron(a, b) + np.kron(b, a))
        return SymmetricSection(2, 2, Operator(SiteSpace(2, 2), seed))
    return SymmetricSection(2, 1, Operator(SiteSpace(2, 1), PAULI[text].entries))


def _psi(amps) -> PureState:
    v = np.array(amps, dtype=np.complex128)
    return PureState(v.size, v / float(np.linalg.norm(v)))


def _freq_spec(d: int, lam: int) -> FrequencySpec:
    proj = np.zeros((d, d), dtype=np.complex128)
    proj[lam, lam] = 1.0
    return FrequencySpec(d, Operator(SiteSpace(d, 1), proj))


def _mixture(atoms) -> DiscreteMixture:
    return DiscreteMixture(tuple((w, bloch_to_density(BlochVector(*b))) for w, b in atoms))


# --------------------------------------------------------------- replays
# each returns the records the CLI handler would report


def _commutator_decay(t: Tracer, p: dict) -> list[dict]:
    s1, s2 = _section(p["seed1"]), _section(p["seed2"])
    records = []
    for n in p["n"]:
        a = t.call("sections.materialize", materialize, s1, n, n=n)
        b = t.call("sections.materialize", materialize, s2, n, n=n)
        c = t.call("linalg.commutator", commutator, a, b, n=n)
        value = t.call("linalg.spectral_norm", spectral_norm, c, n=n)
        records.append({"n": n, "value": value, "scaled": value * n})
    return records


def _norm_gap(t: Tracer, p: dict) -> list[dict]:
    section = _section(p["section"])
    sup = t.call("macrolimit.product_state_sup", product_state_sup, section, section.m)
    records = []
    for n in p["n"]:
        a = t.call("sections.materialize", materialize, section, n, n=n)
        exact = t.call("linalg.spectral_norm", spectral_norm, a, n=n)
        records.append({"n": n, "exact_norm": exact, "product_sup": sup, "gap": exact - sup})
    return records


def _window_mass(t: Tracer, p: dict) -> list[dict]:
    psi, spec = _psi(p["psi"]), _freq_spec(2, p["lam"])
    amps = psi.amplitudes
    mean = complex(np.vdot(amps, spec.projector.entries @ amps))
    mean = min(max(float(mean.real), 0.0), 1.0)
    records = []
    for n in p["n"]:
        proj = t.call(
            "macrolimit.window_projection", window_projection, spec, n, mean, p["epsilon"], n=n
        )
        vec = t.call("states.power_vector", power_vector, psi, n, n=n)
        mass = float(np.vdot(vec, proj.entries @ vec).real)
        records.append({"n": n, "epsilon": p["epsilon"], "mass": mass})
    return records


def _born_converge(t: Tracer, p: dict) -> list[dict]:
    psi, spec = _psi(p["psi"]), _freq_spec(2, p["lam"])
    born = float(abs(psi.amplitudes[p["lam"]]) ** 2)
    records = []
    for n in p["n"]:
        f = t.call("sections.frequency_operator", frequency_operator, spec, n, n=n)
        vec = t.call("states.power_vector", power_vector, psi, n, n=n)
        value = float(np.vdot(vec, f.entries @ vec).real)
        records.append({"n": n, "value": value, "born": born, "abs_error": abs(value - born)})
    return records


def _boolean_check(t: Tracer, p: dict) -> list[dict]:
    rng = np.random.default_rng(p["rng_seed"])
    n = p["sites"]
    records = []
    for idx in range(p["instances"]):
        expr = random_expression(rng, n, p["max_leaves"])
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = PureState(2, v / np.linalg.norm(v))
        proj = t.call(
            "stochastics.cylinder_to_projection", cylinder_to_projection, expr, n, n=n
        )
        state = t.call("states.pure_power", pure_power, psi, n)
        quantum = t.call("states.expect", expect, state, proj)
        prob = min(max(abs(psi.amplitudes[1]) ** 2, 0.0), 1.0)
        classical = t.call(
            "stochastics.classical_probability", classical_probability, BernoulliSpec(prob), expr
        )
        records.append({"instance": idx, "quantum": quantum, "classical": classical})
    return records


def _slln_mc(t: Tracer, p: dict) -> list[dict]:
    rep = t.call(
        "stochastics.slln_check", slln_check,
        BernoulliSpec(p["p"]), p["horizon"], p["trials"], p["delta"], p["rng_seed"],
    )
    return [{"hit_fraction": rep.hit_fraction, "hoeffding_bound": rep.hoeffding_bound}]


def _definetti_fit(t: Tracer, p: dict) -> list[dict]:
    target = t.call("definetti.mixture_state", mixture_state, _mixture(p["atoms"]), p["sites"])
    result = t.call("definetti.fit_mixture", fit_mixture, target, p["k_max"])
    t.spans[-1].counts["iterations"] = int(result.iterations)  # the fit span has no children
    records = []
    for i, (w, rho) in enumerate(result.mixture.atoms):
        b = density_to_bloch(rho)
        records.append({"atom": i, "weight": w, "x": b.x, "y": b.y, "z": b.z})
    return records


def _field_check(t: Tracer, p: dict) -> list[dict]:
    mix, section = _mixture(p["atoms"]), _section(p["section"])
    # a_infinity(section, rho), spelled out so that expect is timed
    rhs = sum(
        w * t.call("states.expect", expect, product_power(rho, section.m), section.seed)
        for w, rho in mix.atoms
    )
    records = []
    for n in p["n"]:
        state = t.call("definetti.mixture_state", mixture_state, mix, n, n=n)
        op = t.call("sections.materialize", materialize, section, n, n=n)
        lhs = t.call("states.expect", expect, state, op)
        records.append({"n": n, "lhs": lhs, "rhs": rhs, "abs_error": abs(lhs - rhs)})
    return records


_REPLAYS = {
    "commutator-decay": _commutator_decay,
    "norm-gap": _norm_gap,
    "window-mass": _window_mass,
    "born-converge": _born_converge,
    "boolean-check": _boolean_check,
    "slln-mc": _slln_mc,
    "definetti-fit": _definetti_fit,
    "field-check": _field_check,
}


def replay(tracer: Tracer, job) -> list[dict]:
    """Replay one job under a `cli.<command>` span; returns its records."""
    tracer.job = job.name
    idx = tracer.begin(f"cli.{job.command}")
    try:
        return _REPLAYS[job.command](tracer, job.params)
    finally:
        tracer.end(idx)


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer totals over one traced pass: self time, calls, byte and
    iteration counts; zero for a layer the workload does not reach."""
    own = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_SPANS:
        hits = [i for i, s in enumerate(tracer.spans) if s.name == name]
        out[f"{name}.s"] = (float(sum(own[i] for i in hits)), "s")
        out[f"{name}.calls"] = (len(hits), "count")
        if name in OUT_BYTES_SPANS:
            total = sum(tracer.spans[i].counts.get("out_bytes", 0) for i in hits)
            out[f"{name}.out_bytes"] = (total, "bytes")
    iterations = sum(
        s.counts.get("iterations", 0) for s in tracer.spans if s.name == "definetti.fit_mixture"
    )
    out["definetti.fit_mixture.iterations"] = (iterations, "count")
    glue = [i for i, s in enumerate(tracer.spans) if s.name.startswith("cli.")]
    out["trace.handler_self.s"] = (float(sum(own[i] for i in glue)), "s")
    return out


def max_record_diff(cli_records: list[dict], traced: list[dict]) -> float:
    """Largest absolute difference over the fields the replay rebuilds;
    infinite when the records do not line up."""
    if len(cli_records) != len(traced):
        return float("inf")
    worst = 0.0
    for cli_rec, rec in zip(cli_records, traced):
        for key, value in rec.items():
            if key not in cli_rec:
                return float("inf")
            worst = max(worst, abs(float(cli_rec[key]) - float(value)))
    return worst
