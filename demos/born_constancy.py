"""Outcome statistics of the counting observable on product powers.

The expectation of the averaged counter is the single-site outcome weight
at every n. What changes with n is the spread: the deviation norm shrinks
like 1/sqrt(n), and the mass inside a fixed frequency window drifts toward
one. The drift is jagged at small n because the window picks up whole
binomial atoms at a time, but it is what makes frequencies meaningful.
"""

import numpy as np

from macrofield import (
    FrequencySpec,
    PROJ_1,
    PureState,
    born_curve,
    deviation_norm,
    window_mass,
)


def main() -> None:
    psi = PureState(2, np.array([0.8, 0.6]))
    spec = FrequencySpec(2, PROJ_1)
    p = abs(psi.amplitudes[1]) ** 2

    print(f"state (0.8, 0.6), outcome weight p = {p:.4f}")
    print(f"{'n':>3}  {'expectation':>14}  {'deviation':>12}  {'rate':>12}  {'mass(eps=0.15)':>15}")
    masses = window_mass(psi, spec, range(1, 11), 0.15)
    for (n, value), rec in zip(born_curve(psi, spec, range(1, 11)), masses):
        dev = deviation_norm(psi, spec, n)
        rate = (p * (1 - p) / n) ** 0.5
        print(f"{n:>3}  {value:>14.12f}  {dev:>12.6f}  {rate:>12.6f}  {rec.mass:>15.6f}")
    print("expectation column is flat; deviation tracks sqrt(p(1-p)/n) exactly")


if __name__ == "__main__":
    main()
