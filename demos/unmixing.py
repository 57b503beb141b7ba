"""Recovering the mixing measure of an exchangeable state.

A permutation-symmetric state assembled from three hidden product powers is
handed to the fitter, which sees only the big density matrix. The recovered
atoms and weights are printed next to the truth.
"""

import numpy as np

from macrofield import (
    BlochVector,
    DiscreteMixture,
    bloch_to_density,
    density_to_bloch,
    fit_mixture,
    mixture_state,
)

TRUTH = [
    (0.5, BlochVector(0.0, 0.0, 1.0)),
    (0.3, BlochVector(1.0, 0.0, 0.0)),
    (0.2, BlochVector(0.0, -0.6, 0.0)),  # an impure atom, strictly inside the ball
]


def main() -> None:
    mix = DiscreteMixture([(w, bloch_to_density(b)) for w, b in TRUTH])
    target = mixture_state(mix, 6)
    print(f"target: symmetric state on 6 sites, dim {target.space.dim}")

    fit = fit_mixture(target, k_max=6)
    print(f"fit finished after {fit.iterations} iteration(s), residual {fit.residual:.3e}")
    print()
    print(f"{'':>10}  {'weight':>8}  {'bloch vector':>24}")
    for w, b in sorted(TRUTH, key=lambda t: -t[0]):
        print(f"{'truth':>10}  {w:>8.4f}  ({b.x:>6.3f}, {b.y:>6.3f}, {b.z:>6.3f})")
    for w, rho in fit.mixture.atoms:
        b = density_to_bloch(rho)
        print(f"{'recovered':>10}  {w:>8.4f}  ({b.x:>6.3f}, {b.y:>6.3f}, {b.z:>6.3f})")


if __name__ == "__main__":
    main()
