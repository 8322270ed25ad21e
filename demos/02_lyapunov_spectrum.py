"""Lyapunov spectrum estimation for i.i.d. matrix cocycles.

Shows the spectrum estimator, which reads each partial sum from the growth
of one column under the compound (exterior-power) cocycle, on systems where
the exponents are known, and checks the determinant conservation law.
"""

import numpy as np

from affinedim import BernoulliWeights, lyapunov_spectrum

uniform2 = BernoulliWeights.uniform(2)

# deterministic diagonal cocycle: exponents are exactly log 2 and log 3
diag = (np.diag([1 / 3, 1 / 2]), np.diag([1 / 3, 1 / 2]))
spec = lyapunov_spectrum(diag, uniform2, steps=4000, trials=8, rng=1)
print("diag(1/3, 1/2) twice:")
print("  exponents:", spec.exponents, " expected:", [np.log(2), np.log(3)])
print("  multiplicities:", spec.multiplicities)

# swapping the axes between the two maps merges the exponents
swapped = (np.diag([0.5, 0.25]), np.diag([0.25, 0.5]))
spec = lyapunov_spectrum(swapped, uniform2, steps=20000, trials=8, rng=2)
print("\nswapped diagonals: exponents", spec.exponents,
      " expected both:", 1.5 * np.log(2))
print("  multiplicities:", spec.multiplicities, " (merged block)")

# a random positive pair: exponents unknown, conservation still exact
rng = np.random.default_rng(3)
maps = [0.6 * m / np.linalg.norm(m, 2) for m in rng.uniform(0.1, 1.0, (2, 3, 3))]
weights = BernoulliWeights(np.array([0.3, 0.7]))
spec = lyapunov_spectrum(maps, weights, steps=5000, trials=12, rng=4)
expected_sum = -sum(p * np.log(abs(np.linalg.det(m))) for p, m in zip(weights.p, maps))
print("\nrandom positive 3x3 pair:")
print("  exponents:", spec.exponents, "+-", spec.stderr)
print("  sum of exponents:", spec.exponents.sum(), " vs mean log-det rate:", expected_sum)
