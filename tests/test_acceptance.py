"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; each test prints ``ACCEPTANCE <n>: PASS`` after its assertions.
"""

import json
import time

import numpy as np
import pytest
from conftest import (
    bm_carpet_ifs,
    cantor_ifs,
    gentle_stp_tuple,
    is_stp,
    random_contractive_tuple,
    random_stp_tuple,
    telescoping_identity_check,
)

from affinedim.cli import main as cli_main
from affinedim.cocycle import (
    BernoulliWeights,
    furstenberg_sample,
    lyapunov_spectrum,
)
from affinedim.dimension import (
    PipelineConfig,
    diagonal_closed_form,
    full_pipeline,
    kaplan_yorke_equivalence_check,
    ly_dimension,
    lyapunov_dimension,
)
from affinedim.domination import (
    bundle_growth_ratios,
    detect_domination,
    gap_ratio_scan,
    strong_stable_bundle,
)
from affinedim.linalg import (
    SubspaceFrame,
    exterior_power,
    principal_angle_distance,
    singular_values,
)
from affinedim.measure import check_separation, lift_ifs, sample_measure, self_affinity_check
from scipy import stats

DIAG_PAIR = (np.diag([1.0 / 3.0, 0.5]), np.diag([1.0 / 3.0, 0.5]))
UNIFORM2 = BernoulliWeights.uniform(2)


def _passed(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_lyapunov_diagonal_oracle():
    t0 = time.perf_counter()
    spec = lyapunov_spectrum(DIAG_PAIR, UNIFORM2, steps=10_000, trials=20, rng=1)
    elapsed = time.perf_counter() - t0
    assert spec.exponents == pytest.approx([np.log(2), np.log(3)], abs=0.01)
    assert elapsed < 5.0
    _passed(1, f"chi=({spec.exponents[0]:.4f}, {spec.exponents[1]:.4f}) in {elapsed:.2f}s")


def test_criterion_02_spectrum_conservation():
    rng = np.random.default_rng(202)
    hits = 0
    for case in range(50):
        d = 2 if case < 25 else 3
        n_maps = int(rng.integers(2, 4))
        maps = random_contractive_tuple(rng, d, n_maps, norm=0.75)
        p = rng.uniform(0.2, 1.0, size=n_maps)
        weights = BernoulliWeights(p / p.sum())
        spec = lyapunov_spectrum(maps, weights, steps=2000, trials=10,
                                 rng=int(rng.integers(2**31)))
        expected = -sum(q * np.log(abs(np.linalg.det(m))) for q, m in zip(weights.p, maps))
        trial_sums = spec.trial_exponents.sum(axis=1)
        se = trial_sums.std(ddof=1) / np.sqrt(len(trial_sums))
        if abs(spec.exponents.sum() - expected) <= 3 * se:
            hits += 1
    assert hits >= 47
    _passed(2, f"conservation within 3 stderr in {hits}/50 random tuples")


def test_criterion_03_exterior_power_identities():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    for _ in range(1000):
        d = int(rng.integers(2, 6))
        while True:
            a = rng.uniform(-1.0, 1.0, size=(d, d))
            b = rng.uniform(-1.0, 1.0, size=(d, d))
            sva, svb = singular_values(a), singular_values(b)
            if sva[0] > 1e-6 * sva[-1] and svb[0] > 1e-6 * svb[-1]:
                break  # keep condition numbers below 1e6
        for p in range(1, d + 1):
            ca, cb = exterior_power(a, p), exterior_power(b, p)
            cab = exterior_power(a @ b, p)
            prod = ca @ cb
            scale = max(1.0, np.abs(cab).max(), np.abs(prod).max())
            assert np.max(np.abs(cab - prod)) <= 1e-10 * scale
            for m, sv in ((a, sva), (b, svb)):
                top = np.linalg.norm(exterior_power(m, p), 2)
                assert top == pytest.approx(np.prod(sv[::-1][:p]), rel=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(3, f"1000 pairs, multiplicativity + norm products, {elapsed:.2f}s")


def test_criterion_04_stp_implies_full_domination():
    rng = np.random.default_rng(404)
    for k in range(20):
        maps = random_stp_tuple(rng, 3, 2)
        assert is_stp(maps)
        report = detect_domination(gap_ratio_scan(maps, n_max=7))
        assert report.dominated_indices == (1, 2), f"tuple {k}: {report.dominated_indices}"
    theta = rng.uniform(0.2, 1.2, size=2)
    conformal = tuple(
        0.5 * np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) for t in theta
    )
    conf_report = detect_domination(gap_ratio_scan(conformal, n_max=7))
    assert conf_report.dominated_indices == ()
    _passed(4, "20/20 random STP triples give D={1,2}; conformal pair gives D={}")


def test_criterion_05_bundle_growth_bound_stable():
    # The estimated bundle carries ~1e-16 relative error, amplified along a
    # product by exp(n * log cond); STP tuples are therefore drawn with
    # per-map log-condition <= 0.85 so the full 40-step window stays within
    # the double-precision resolution horizon (40 * 0.85 < 37 ~ log 1e16).
    rng = np.random.default_rng(505)
    cases = [("diag", DIAG_PAIR, (1,)), ("stp", tuple(gentle_stp_tuple(rng, 3, 2)), (1, 2))]
    worst = 0.0
    for name, maps, indices in cases:
        report = detect_domination(gap_ratio_scan(maps, n_max=7))
        assert set(indices) <= set(report.dominated_indices)
        for i in indices:
            for trial in range(100):
                word = np.random.default_rng(10_000 + trial).choice(2, size=61, p=UNIFORM2.p)
                est = strong_stable_bundle(maps, word, i, depth=60, domination=report)
                ratios = bundle_growth_ratios(maps, word, est.fast, i, depth=40)
                sup20 = float(ratios[:20].max())
                sup40 = float(ratios.max())
                assert np.isfinite(sup40)
                assert sup40 < 2.0 * sup20
                worst = max(worst, sup40)
    _passed(5, f"restricted-growth ratio finite and stable (sup {worst:.3f})")


def test_criterion_06_furstenberg_degenerate_and_stationary():
    samples = furstenberg_sample(DIAG_PAIR, UNIFORM2, iterations=80, count=10_000, rng=606)
    e1 = SubspaceFrame(np.eye(2)[:, [0]])
    worst = max(principal_angle_distance(SubspaceFrame(q[:, :1]), e1) for q in samples)
    assert worst <= 1e-6
    rng = np.random.default_rng(607)
    maps = [0.55 * m / np.linalg.norm(m, 2) for m in rng.uniform(0.1, 1.0, size=(2, 2, 2))]
    # stationarity: one more iteration leaves the law of the line angle unchanged
    flags = furstenberg_sample(maps, UNIFORM2, iterations=100, count=10_000, rng=608)
    pushed = furstenberg_sample(maps, UNIFORM2, iterations=101, count=10_000, rng=609)
    angle = lambda q: np.arctan2(q[:, 1, 0], q[:, 0, 0]) % np.pi  # each frame's first column
    ks = stats.ks_2samp(angle(flags), angle(pushed)).statistic
    assert ks < 0.05
    _passed(6, f"10^4 flags within {worst:.2e} of the strong axis; KS={ks:.4f}")


def test_criterion_07_ledrappier_young_vs_closed_form():
    t0 = time.perf_counter()
    closed, inputs = diagonal_closed_form(bm_carpet_ifs())
    formula = ly_dimension(inputs)
    assert formula == pytest.approx(closed, abs=1e-3)
    assert closed == pytest.approx(1.3390, abs=5e-4)

    # cells touch at corners: the open-set condition justifies H = 0
    report = full_pipeline(
        bm_carpet_ifs(),
        PipelineConfig(seed=707, sample_count=200_000, fiber_entropy=0.0),
    )
    elapsed = time.perf_counter() - t0
    assert report.empirical_boxcount.dimension == pytest.approx(closed, abs=0.05)
    assert report.ly_dim == pytest.approx(closed, abs=0.02)
    assert elapsed < 60.0
    _passed(
        7,
        f"formula {formula:.4f} = closed form {closed:.4f}; box-count "
        f"{report.empirical_boxcount.dimension:.4f} within 0.05, {elapsed:.1f}s",
    )


def test_criterion_08_lyapunov_dimension_and_equivalence():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        d = int(rng.integers(1, 6))
        chi = np.sort(rng.uniform(0.05, 3.0, size=d))
        h = rng.uniform(0.0, 4.0)
        res = lyapunov_dimension(h, chi)
        best = min(
            (k - 1) + (h - sum(chi[: k - 1])) / chi[k - 1] for k in range(1, d + 1)
        )
        assert res.raw == best

    log2, log3 = np.log(2.0), np.log(3.0)
    bm_ky = lyapunov_dimension(log3, [log2, log3])
    assert bm_ky.value == pytest.approx(1.0 + (log3 - log2) / log3, abs=1e-12)
    assert bm_ky.value == pytest.approx(1.3691, abs=5e-5)

    bm_check = kaplan_yorke_equivalence_check(diagonal_closed_form(bm_carpet_ifs())[1], tol=1e-6)
    assert bm_check.status == "fails"
    from affinedim.cocycle import LyapunovSpectrum
    from affinedim.dimension import DimensionInputs

    cantor_inputs = DimensionInputs(
        log2, 0.0, LyapunovSpectrum(np.array([log3]), None, (1,), 0.0), {}, ()
    )
    cantor_check = kaplan_yorke_equivalence_check(cantor_inputs, tol=1e-9)
    assert cantor_check.status == "holds"
    _passed(8, f"brute-force min matches exactly; BM KY={bm_ky.value:.4f}, "
               f"equivalence fails (BM) / holds (Cantor)")


def test_criterion_09_telescoping_identity():
    rng = np.random.default_rng(909)
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        chi = np.sort(rng.uniform(0.01, 5.0, size=d))
        hseq = np.sort(rng.uniform(0.0, 3.0, size=d + 1))[::-1]
        assert telescoping_identity_check(hseq, chi, rtol=1e-12)
    _passed(9, "both arrangements agree to 1e-12 on 1000 random inputs")


def test_criterion_10_lift_construction():
    from affinedim.measure import IfsSystem

    rng = np.random.default_rng(1010)
    for case in range(20):
        d = int(rng.integers(1, 3))
        maps = []
        while len(maps) < 2:
            m = rng.uniform(-1.0, 1.0, size=(d, d))
            m *= 0.55 / np.linalg.norm(m, 2)
            if singular_values(m)[0] > 0.1:
                maps.append(m)
        ts = rng.uniform(0.0, 1.0, size=(2, d))
        ifs = IfsSystem(np.stack(maps), ts, BernoulliWeights.uniform(2))
        lifted = lift_ifs(ifs)
        # rho sits strictly below every base singular value, so by the block
        # structure it is exactly the smallest lifted singular value
        assert lifted.rho < min(float(singular_values(m)[0]) for m in ifs.matrices)
        for j in range(2):
            assert lifted.ifs.matrices[j][d, d] == lifted.rho
            sv = singular_values(lifted.ifs.matrices[j])
            assert sv[0] == pytest.approx(lifted.rho, rel=1e-12)
        gap_z = 0.5 - lifted.rho
        alpha = float(lifted.ifs.top_singular_values.max())
        r = lifted.ifs.bounding_radius
        level = max(2, int(np.ceil(np.log(gap_z / (4.0 * r)) / np.log(alpha))) + 1)
        verdict = check_separation(lifted.ifs, level=level)
        assert verdict.status == "ssc-verified", f"case {case}: {verdict}"
    _passed(10, "20/20 lifted systems certified strongly separated, alpha_min = rho")


def test_criterion_11_self_affinity_boxes():
    rng = np.random.default_rng(1111)
    cantor = cantor_ifs()
    cloud = sample_measure(cantor, 100_000, 35, rng=1112)
    boxes = [(np.array([0.0]), np.array([1.0])),
             (np.array([0.0]), np.array([1.0 / 3.0])),
             (np.array([2.0 / 3.0]), np.array([1.0]))]
    while len(boxes) < 10:
        lo = rng.uniform(0.0, 0.7, size=1)
        boxes.append((lo, lo + rng.uniform(0.25, 0.3, size=1)))
    rep = self_affinity_check(cloud, cantor, boxes)
    assert all(b.status == "pass" for b in rep.boxes)

    bm = bm_carpet_ifs()
    bm_cloud = sample_measure(bm, 100_000, 30, rng=1113)
    bm_boxes = [(np.array([0.0, 0.0]), np.array([1.0, 1.0]))]
    while len(bm_boxes) < 10:
        lo = rng.uniform(0.0, 0.5, size=2)
        bm_boxes.append((lo, lo + rng.uniform(0.3, 0.5, size=2)))
    bm_rep = self_affinity_check(bm_cloud, bm, bm_boxes)
    assert all(b.status == "pass" for b in bm_rep.boxes)
    _passed(11, "stationarity identity passes on all 20 boxes at 3 sigma")


def test_criterion_12_cli_determinism(tmp_path):
    cfg_doc = {
        "schema_version": 1,
        "ifs": {
            "matrices": [[[1 / 3]], [[1 / 3]]],
            "translations": [[0.0], [2 / 3]],
            "weights": [0.5, 0.5],
        },
        "seed": 12,
        "lyapunov": {"steps": 1000, "trials": 4},
        "dim": {"sample_count": 8000, "centers": 32, "spectrum_steps": 800,
                "spectrum_trials": 4, "flag_iterations": 64, "flag_count": 4},
        "validate": {"sample_count": 8000},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_doc))
    commands = {
        "lyapunov": ["lyapunov", "--config", str(cfg)],
        "domination": ["domination", "--config", str(cfg)],
        "dim": ["dim", "--config", str(cfg)],
        "validate": ["validate", "--config", str(cfg)],
    }
    for name, argv in commands.items():
        payloads = []
        for run_id in ("a", "b"):
            out = tmp_path / f"{name}-{run_id}.json"
            code = cli_main(argv + ["--deterministic", "--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1], f"{name} report not byte-identical"
    _passed(12, "all four commands byte-identical across repeated seeded runs")
