"""Top-level behavioural gates, one per headline property of the library.

Every test pins a tolerance and a wall-clock budget and prints a one-line
summary with the worst observed deviation (visible under pytest -s). The
reference values come from independent closed forms: arithmetic Born
probabilities, binomial tail sums, the 2/n Pauli commutator law, and
hand-built mixtures.
"""

from __future__ import annotations

import json
import time

import numpy as np

from conftest import SX, SZ, P1, binom_window_mass, haar_qubit, naive_perm_matrix, rand_hermitian

import macrofield.cli as cli
from macrofield.definetti import (
    DiscreteMixture,
    field_of_states_check,
    fit_mixture,
    mixture_state,
)
from macrofield.linalg import Operator, SiteSpace
from macrofield.macrolimit import (
    born_curve,
    commutator_decay,
    deviation_norm,
    fit_decay_exponent,
    norm_gap,
    window_mass,
)
from macrofield.sections import FrequencySpec, SymmetricSection, frequency_operator, frequency_section
from macrofield.states import BlochVector, PureState, bloch_to_density, density_to_bloch, power_vector
from macrofield.stochastics import And, Not, Or, cylinder_to_projection, quantum_classical_agreement, random_expression

ONE_SITE = SiteSpace(2, 1)
TWO_SITE = SiteSpace(2, 2)
COUNT_SPEC = FrequencySpec(2, Operator(ONE_SITE, P1))


def avg_section(mat: np.ndarray) -> SymmetricSection:
    return SymmetricSection(2, 1, Operator(ONE_SITE, mat))


def sym2_section(a: np.ndarray, b: np.ndarray) -> SymmetricSection:
    seed = 0.5 * (np.kron(a, b) + np.kron(b, a))
    return SymmetricSection(2, 2, Operator(TWO_SITE, seed))


def unit_bloch(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def test_born_probability_constant_in_site_count():
    # expectation of the counting observable on a product power equals the
    # single-site outcome probability at every n, not just in the limit
    start = time.perf_counter()
    ops = {n: frequency_operator(COUNT_SPEC, n).entries for n in range(1, 11)}
    rng = np.random.default_rng(101)
    worst = 0.0
    states = [PureState(2, haar_qubit(rng)) for _ in range(100)]
    for psi in states:
        born = float(abs(psi.amplitudes[1]) ** 2)
        vec = psi.amplitudes
        for n in range(1, 11):
            if n > 1:
                vec = np.kron(vec, psi.amplitudes)
            val = float(np.vdot(vec, ops[n] @ vec).real)
            worst = max(worst, abs(val - born))
    # tie the unrolled loop back to the public curve on a few states
    for psi in states[:3]:
        born = float(abs(psi.amplitudes[1]) ** 2)
        for _, val in born_curve(psi, COUNT_SPEC, range(1, 11)):
            worst = max(worst, abs(val - born))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 10.0
    print(f"[PASS] born constancy: worst |value - p| = {worst:.3e} over 100 states, {elapsed:.1f}s")


def test_deviation_norm_and_window_mass_match_binomial():
    start = time.perf_counter()
    worst_dev = 0.0
    worst_mass = 0.0
    for amps in ([0.8, 0.6], [2 ** -0.5, 2 ** -0.5]):
        psi = PureState(2, np.array(amps))
        p = float(abs(psi.amplitudes[1]) ** 2)
        for n in range(1, 13):
            got = deviation_norm(psi, COUNT_SPEC, n)
            want = (p * (1.0 - p) / n) ** 0.5
            worst_dev = max(worst_dev, abs(got - want))
            [rec] = window_mass(psi, COUNT_SPEC, [n], 0.15)
            worst_mass = max(worst_mass, abs(rec.mass - binom_window_mass(n, p, 0.15)))
    balanced = PureState(2, np.array([2 ** -0.5, 2 ** -0.5]))
    [pinned] = window_mass(balanced, COUNT_SPEC, [12], 0.15)
    # (C(12,5) + C(12,6) + C(12,7)) / 2^12 = 2508 / 4096, worked out by hand
    assert abs(pinned.mass - 0.6123046875) <= 1e-12
    elapsed = time.perf_counter() - start
    assert worst_dev <= 1e-9
    assert worst_mass <= 1e-9
    assert elapsed < 30.0
    print(
        f"[PASS] sampling-noise scaling: worst deviation-norm error {worst_dev:.3e}, "
        f"worst window-mass error {worst_mass:.3e}, {elapsed:.1f}s"
    )


def test_averaged_pauli_commutators_decay():
    start = time.perf_counter()
    records = commutator_decay(avg_section(SX), avg_section(SZ), range(2, 13))
    worst = max(abs(r.scaled - 2.0) for r in records)
    assert worst <= 1e-8
    pair = commutator_decay(sym2_section(SX, SX), sym2_section(SZ, SZ), range(2, 13))
    exponent = fit_decay_exponent(pair)
    assert exponent >= 0.9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"[PASS] commutator decay: worst |n*norm - 2| = {worst:.3e}, "
        f"order-2 exponent {exponent:.3f}, {elapsed:.1f}s"
    )


def test_norm_converges_to_product_state_sup():
    start = time.perf_counter()
    mixed = norm_gap(sym2_section(SX, SZ), range(2, 13))
    gaps = {r.n: r.gap for r in mixed}
    assert min(gaps.values()) >= -1e-8
    assert gaps[12] < gaps[4]
    flat_worst = 0.0
    for section in (avg_section(SZ), sym2_section(SX, SX)):
        for rec in norm_gap(section, range(2, 13)):
            assert -1e-8 <= rec.gap <= 1e-8
            flat_worst = max(flat_worst, abs(rec.gap))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"[PASS] norm convergence: mixed-seed gap {gaps[4]:.3e} -> {gaps[12]:.3e}, "
        f"closed-form seeds worst |gap| = {flat_worst:.3e}, {elapsed:.1f}s"
    )


def _lattice_defect(expr, n: int) -> float:
    eye = np.eye(2 ** n)
    worst = 0.0
    stack = [expr]
    while stack:
        node = stack.pop()
        p = cylinder_to_projection(node, n).entries
        worst = max(worst, float(np.max(np.abs(p @ p - p))))
        worst = max(worst, float(np.max(np.abs(p - p.conj().T))))
        if isinstance(node, Not):
            inner = cylinder_to_projection(node.inner, n).entries
            worst = max(worst, float(np.max(np.abs(p - (eye - inner)))))
            stack.append(node.inner)
        elif isinstance(node, (And, Or)):
            a = cylinder_to_projection(node.left, n).entries
            b = cylinder_to_projection(node.right, n).entries
            worst = max(worst, float(np.max(np.abs(a @ b - b @ a))))
            want = a @ b if isinstance(node, And) else a + b - a @ b
            worst = max(worst, float(np.max(np.abs(p - want))))
            stack.append(node.left)
            stack.append(node.right)
    return worst


def test_boolean_images_form_a_lattice_and_match_bernoulli():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    worst_lattice = 0.0
    worst_agree = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        expr = random_expression(rng, n, 4)
        psi = PureState(2, haar_qubit(rng))
        worst_lattice = max(worst_lattice, _lattice_defect(expr, n))
        quantum, classical = quantum_classical_agreement(psi, expr, n)
        worst_agree = max(worst_agree, abs(quantum - classical))
    elapsed = time.perf_counter() - start
    assert worst_lattice <= 1e-10
    assert worst_agree <= 1e-10
    assert elapsed < 10.0
    print(
        f"[PASS] boolean homomorphism: worst lattice defect {worst_lattice:.3e}, "
        f"worst quantum/classical gap {worst_agree:.3e}, {elapsed:.1f}s"
    )


def test_long_run_frequencies_concentrate_and_reports_are_stable(tmp_path):
    start = time.perf_counter()
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    argv = [
        "slln-mc", "--p", "0.3", "--horizon", "10000", "--trials", "10000",
        "--delta", "0.02", "--rng-seed", "7", "--no-timestamp",
    ]
    for path in paths:
        assert cli.run(argv + ["--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    report = json.loads(paths[0].read_text())
    fraction = report["records"][0]["hit_fraction"]
    assert fraction >= 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"[PASS] classical long-run law: hit fraction {fraction:.4f} over 10^4 trials, "
        f"byte-stable reports, {elapsed:.1f}s"
    )


def test_two_atom_mixtures_are_recovered():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_w = 0.0
    worst_resid = 0.0
    for _ in range(20):
        while True:
            b1, b2 = unit_bloch(rng), unit_bloch(rng)
            if 0.5 * np.linalg.norm(b1 - b2) >= 0.3:  # trace separation for qubits
                break
        w1 = float(rng.uniform(0.2, 0.8))
        truth = [(w1, b1), (1.0 - w1, b2)]
        mix = DiscreteMixture(
            [(w, bloch_to_density(BlochVector(*b))) for w, b in truth]
        )
        fit = fit_mixture(mixture_state(mix, 6), k_max=6)
        assert len(fit.mixture.atoms) == 2
        worst_resid = max(worst_resid, fit.residual)
        got = [
            (w, np.array([v.x, v.y, v.z]))
            for w, v in ((w, density_to_bloch(rho)) for w, rho in fit.mixture.atoms)
        ]
        for w_true, b_true in truth:
            j = min(range(len(got)), key=lambda i: np.linalg.norm(got[i][1] - b_true))
            worst_w = max(worst_w, abs(got[j][0] - w_true))
            got.pop(j)
    elapsed = time.perf_counter() - start
    assert worst_w <= 1e-3
    assert worst_resid <= 1e-6
    assert elapsed < 300.0
    print(
        f"[PASS] mixture recovery: worst weight error {worst_w:.3e}, "
        f"worst residual {worst_resid:.3e} over 20 instances, {elapsed:.1f}s"
    )


def test_mixture_field_agrees_with_its_limit():
    start = time.perf_counter()
    rng = np.random.default_rng(808)
    swap = naive_perm_matrix(2, 2, (1, 0))
    worst = 0.0
    for case in range(10):
        k = int(rng.integers(1, 4))
        weights = rng.uniform(0.2, 1.0, size=k)
        weights /= weights.sum()
        atoms = []
        for w in weights:
            b = unit_bloch(rng) * rng.uniform(0.0, 0.95)
            atoms.append((float(w), bloch_to_density(BlochVector(*b))))
        mix = DiscreteMixture(atoms)
        which = case % 3
        if which == 0:
            section = avg_section(rand_hermitian(rng, 2))
        elif which == 1:
            h = rand_hermitian(rng, 4)
            section = SymmetricSection(2, 2, Operator(TWO_SITE, 0.5 * (h + swap @ h @ swap)))
        else:
            section = frequency_section(COUNT_SPEC)
        for n, lhs, rhs in field_of_states_check(mix, section, range(section.m, 9)):
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 60.0
    print(
        f"[PASS] field consistency: worst |finite - limit| = {worst:.3e} "
        f"over 10 mixtures, {elapsed:.1f}s"
    )
