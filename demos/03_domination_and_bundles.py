"""Dominated splitting: gap-ratio scans, the strict-total-positivity
sufficient condition, and the invariant fast/slow bundles it produces along
one i.i.d. word, drawn by ``Generator.choice`` as the library draws its own."""

import numpy as np

from affinedim import (
    BernoulliWeights,
    bundle_growth_ratios,
    cone_invariance_check,
    detect_domination,
    gap_ratio_scan,
    stp_check,
    strong_stable_bundle,
)

pascal = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [1.0, 3.0, 6.0]])
maps = (0.1 * pascal, 0.08 * pascal)

print("strict total positivity of each map:")
for j, m in enumerate(maps):
    chk = stp_check(m)
    print(f"  map {j}: is_stp={chk.is_stp}, det>0={chk.det_positive}, min minor={chk.min_minor:.3g}")
for p in (1, 2):
    print(f"positive exterior cone strictly invariant at order {p}:",
          cone_invariance_check(maps, p))

table = gap_ratio_scan(maps, n_max=8)
report = detect_domination(table)
print("\nper-length max log gap ratios (rows n=0..8):")
print(np.round(table.log_ratios, 3))
for item in report.indices:
    print(f"index {item.index}: {item.status}, decay rate {item.decay_rate:.4f}, "
          f"C ~ {item.constant_estimate:.3f}")
print("dominated index set:", report.dominated_indices)

# Bundle estimates carry ~1e-16 relative error, and a growth-ratio check out
# to n steps amplifies it by exp(n * log cond).  The Pascal pair above has
# log cond ~ 5.3 per map, so its meaningful window is under 7 steps; for the
# bundle demonstration use a mildly conditioned STP pair instead.
def mild_stp(rng, norm=0.8):
    while True:
        a = np.eye(3)
        for j in range(4):
            m = np.diag(rng.uniform(0.95, 1.05, 3))
            for k in range(2):
                m[(k + 1, k) if j % 2 == 0 else (k, k + 1)] = rng.uniform(0.1, 0.18)
            a = a @ m
        if stp_check(a).is_stp:
            return norm * a / np.linalg.norm(a, 2)


rng = np.random.default_rng(5)
mild = (mild_stp(rng), mild_stp(rng, norm=0.7))
mild_report = detect_domination(gap_ratio_scan(mild, n_max=7))
print("\nmild STP pair (log cond per map "
      f"{[round(float(np.log(np.linalg.cond(m))), 2) for m in mild]}): "
      f"D = {mild_report.dominated_indices}")

word = np.random.default_rng(7).choice(2, size=61, p=BernoulliWeights.uniform(2).p)
bundles = [strong_stable_bundle(mild, word, i, depth=60, domination=mild_report)
           for i in (1, 2)]
for est in bundles:
    print(f"index {est.index}: fast bundle dim {est.fast.k}, slow dim {est.slow.k}, "
          f"transversality angle {est.angle_lower_bound:.3f} rad")
    ratios = bundle_growth_ratios(mild, word, est.fast, est.index, depth=40)
    print(f"  growth bound sup_n ||A^(n)|fast||/alpha_{est.index + 1}: {ratios.max():.3f}")
