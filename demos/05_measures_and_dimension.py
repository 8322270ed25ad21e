"""End to end: sample self-affine measures, certify separation, lift,
estimate dimensions empirically (ball-mass slopes over the pipeline's own
radii grid, and box counting), and compare against the formulas."""

import numpy as np

from affinedim import (
    BernoulliWeights,
    IfsSystem,
    PipelineConfig,
    box_counting_dimension,
    check_separation,
    diagonal_closed_form,
    full_pipeline,
    lift_ifs,
    local_dimension_estimate,
    sample_measure,
    self_affinity_check,
)
from affinedim.measure import default_radii

cantor = IfsSystem(
    np.array([[[1 / 3]], [[1 / 3]]]),
    np.array([[0.0], [2 / 3]]),
    BernoulliWeights.uniform(2),
)

verdict = check_separation(cantor, level=8)
print("Cantor separation:", verdict.status, f"at level {verdict.level}",
      f"(gap at least {verdict.witness_gap:.4f}; pairs formed: {verdict.pairs_formed})")

cloud = sample_measure(cantor, 60_000, depth=35, rng=1)
aff = self_affinity_check(cloud, cantor, [(np.array([0.0]), np.array([1 / 3]))])
box = aff[0]
print(f"stationarity on [0, 1/3]: mass {box.mass:.4f} vs pushed {box.pushed_mass:.4f} "
      f"({box.status})")

local = local_dimension_estimate(cloud, default_radii(cloud), rng=2)
boxes = box_counting_dimension(cloud)
print(f"Cantor dimension: ball-slope median {local.median:.4f} (IQR {local.iqr:.3f}), "
      f"box-count {boxes.dimension:.4f}, exact {np.log(2) / np.log(3):.4f}")

# lifting an overlapping system one dimension up always separates
overlapping = IfsSystem(
    np.array([[[0.45]], [[0.45]]]), np.array([[0.0], [0.1]]), BernoulliWeights.uniform(2)
)
lifted = lift_ifs(overlapping)
lifted_verdict = check_separation(lifted.ifs, level=14)
print("\noverlap below, but the lift separates:", lifted_verdict.status,
      f"at level {lifted_verdict.level} (rho = {lifted.rho})")

# the reference carpet, diag(1/3, 1/2) at the cells (0, 0), (1, 0) and (2, 1):
# the diagonal closed form vs the generic pipeline
carpet = IfsSystem(
    np.tile(np.diag([1 / 3, 1 / 2]), (3, 1, 1)),
    np.array([[0.0, 0.0], [1 / 3, 0.0], [2 / 3, 1 / 2]]),
    BernoulliWeights.uniform(3),
)
closed, inputs = diagonal_closed_form(carpet)
print("\ncarpet closed form:", round(closed, 4),
      "| entropy", round(inputs.entropy, 4),
      "| projection dim", round(inputs.projection_dims[1], 4))

# carpet cells touch at corners: the open-set condition gives H = 0
report = full_pipeline(carpet, PipelineConfig(seed=5, sample_count=100_000, fiber_entropy=0.0))
print("pipeline:", f"formula {report.ly_dim:.4f},",
      f"box-count {report.empirical_boxcount.dimension:.4f},",
      f"Kaplan-Yorke {report.lyapunov_dim.value:.4f},",
      f"equivalence {report.equivalence.status}")
print("projected dimension at index 1:", round(report.projection_dims[1], 4),
      "vs closed form", round(inputs.projection_dims[1], 4))
