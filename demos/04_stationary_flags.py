"""Nested invariant subspaces of the inverse cocycle.

Samples the stationary flag distribution by backward iteration: each sample
is an orthonormal frame whose first k columns span its k-dimensional flag
member.  Tests stationarity: flags sampled with one more backward iteration
have the same law of line angles (a two-sample KS test against an
independent sample)."""

import numpy as np
from scipy import stats

from affinedim import (
    BernoulliWeights,
    SubspaceFrame,
    furstenberg_sample,
    principal_angle_distance,
)

uniform2 = BernoulliWeights.uniform(2)
diag = (np.diag([1 / 3, 1 / 2]), np.diag([1 / 3, 1 / 2]))

# the stationary distribution here is a point mass at the strong axis e1
samples = furstenberg_sample(diag, uniform2, iterations=80, count=2000, rng=13)
e1 = SubspaceFrame(np.eye(2)[:, :1])
worst = max(principal_angle_distance(SubspaceFrame(q[:, :1]), e1) for q in samples)
print(f"2000 backward-iterated flags: worst angle to e1 = {worst:.2e}")

def line_angles(samples):
    vecs = samples[:, :, 0]  # each sample's line is its frame's first column
    return np.arctan2(vecs[:, 1], vecs[:, 0]) % np.pi


# a random positive pair has a genuinely spread-out stationary law
rng = np.random.default_rng(17)
maps = [0.55 * m / np.linalg.norm(m, 2) for m in rng.uniform(0.1, 1.0, (2, 2, 2))]
flags = furstenberg_sample(maps, uniform2, iterations=100, count=4000, rng=19)
angles = line_angles(flags)
print(f"\nrandom positive pair: sampled line angles span "
      f"[{angles.min():.3f}, {angles.max():.3f}] rad, sd {angles.std():.3f}")

# stationarity: one more inverse step leaves the law unchanged
pushed = furstenberg_sample(maps, uniform2, iterations=101, count=4000, rng=23)
ks = stats.ks_2samp(angles, line_angles(pushed))
print(f"two-sample KS against 101 inverse steps: {ks.statistic:.4f} (p = {ks.pvalue:.3f})")
