"""Tests for gap-ratio scans, domination detection, and bundle estimation."""

import itertools

import numpy as np
import pytest
from conftest import (PASCAL3, brute_force_minors, haar_frame, is_stp,
                      random_contractive_tuple, random_stp_tuple, word_product)

from affinedim import domination
from affinedim.cocycle import BernoulliWeights
from affinedim.domination import (
    EPS_MINOR,
    detect_domination,
    gap_ratio_scan,
    smallest_minors,
    strong_stable_bundle,
)
from affinedim.errors import BudgetExceededError
from affinedim.linalg import DET_EPS, SubspaceFrame, exterior_power, principal_angle_distance

DIAG_PAIR = (np.diag([1.0 / 3.0, 0.5]), np.diag([1.0 / 3.0, 0.5]))


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def stp_pair_3x3():
    return (0.1 * PASCAL3, 0.08 * PASCAL3)


# ---------------------------------------------------------------------------
# gap ratio scan


def test_scan_diagonal_ratio_decay():
    table = gap_ratio_scan(DIAG_PAIR, n_max=8)
    expected = np.arange(9) * np.log(2.0 / 3.0)
    assert np.allclose(table.log_ratios[:, 0], expected, atol=1e-10)


def test_scan_conformal_ratio_one():
    maps = (0.5 * rotation(0.3), 0.5 * rotation(1.2))
    table = gap_ratio_scan(maps, n_max=7)
    assert np.allclose(table.log_ratios, 0.0, atol=1e-10)


def test_scan_identity_row():
    table = gap_ratio_scan(DIAG_PAIR, n_max=6)
    assert np.allclose(table.log_ratios[0], 0.0)


def test_scan_budget_error():
    with pytest.raises(BudgetExceededError, match=r"^2\^25 words exceed the 1000 product budget$"):
        gap_ratio_scan(DIAG_PAIR, n_max=25, budget=1000)


def test_scan_maximum_over_words_is_exact():
    # brute force oracle over all words of each length
    rng = np.random.default_rng(2)
    maps = random_contractive_tuple(rng, 2, 2, norm=0.7)
    table = gap_ratio_scan(maps, n_max=6)
    for n in range(1, 7):
        best = -np.inf
        for word in itertools.product(range(2), repeat=n):
            prod = np.eye(2)
            for s in word:
                prod = prod @ maps[s]
            sv = np.linalg.svd(prod, compute_uv=False)
            best = max(best, np.log(sv[1] / sv[0]))
        assert table.log_ratios[n, 0] == pytest.approx(best, abs=1e-9)


def brute_force_gap_table(maps, n_max):
    """Per-length max log gap ratios from every word product, one word at a time."""
    d = maps[0].shape[0]
    table = np.full((n_max + 1, d - 1), -np.inf)
    table[0] = 0.0
    for n in range(1, n_max + 1):
        for word in itertools.product(range(len(maps)), repeat=n):
            prod = word_product(maps, word)
            log_norms = [np.log(np.linalg.norm(exterior_power(prod, p), 2))
                         for p in range(1, d + 1)]
            padded = np.concatenate(([0.0], log_norms))
            table[n] = np.maximum(table[n], padded[2:] - 2.0 * padded[1:-1] + padded[:-2])
    return table


SMALL_SYSTEMS = [(1, 2, 6, 11), (2, 1, 6, 12), (2, 3, 5, 13), (3, 2, 6, 14), (3, 3, 4, 15),
                 (3, 1, 5, 16), (2, 2, 6, 17)]


@pytest.mark.parametrize("d,n_maps,n_max,seed", SMALL_SYSTEMS)
def test_scan_matches_brute_force_over_all_words(d, n_maps, n_max, seed):
    maps = random_contractive_tuple(np.random.default_rng(seed), d, n_maps, norm=0.7)
    table = gap_ratio_scan(maps, n_max)
    assert np.allclose(table.log_ratios, brute_force_gap_table(maps, n_max), rtol=0.0, atol=1e-9)
    assert table.products_examined == sum(n_maps**n for n in range(1, n_max + 1))


@pytest.mark.parametrize("d,n_maps,n_max,seed", SMALL_SYSTEMS)
def test_scan_one_parent_per_batch_matches_default(monkeypatch, d, n_maps, n_max, seed):
    maps = random_contractive_tuple(np.random.default_rng(seed), d, n_maps, norm=0.7)
    default = gap_ratio_scan(maps, n_max)
    monkeypatch.setattr(domination, "_SCAN_BATCH_FLOATS", 1)
    narrow = gap_ratio_scan(maps, n_max)
    assert np.array_equal(narrow.log_ratios, default.log_ratios)
    assert narrow.products_examined == default.products_examined


def test_scan_in_one_dimension_forms_no_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a product was formed")

    # d = 1 has no gap index: no compound or norm is formed, yet every word counts
    monkeypatch.setattr(domination, "exterior_power", refuse)
    monkeypatch.setattr(domination, "_two_norms", refuse)
    table = gap_ratio_scan([np.array([[0.2]]), np.array([[0.3]]), np.array([[-0.4]])], 5)
    assert table.log_ratios.shape == (6, 0)
    assert table.products_examined == 3 + 9 + 27 + 81 + 243


@pytest.mark.parametrize("n", [2, 3, 8, 28, 56])  # compound sizes from d = 2 to d = 8
def test_two_norms_match_the_svd_norm(n):
    rng = np.random.default_rng(n)
    frames = np.stack([haar_frame(n, rng) for _ in range(24)])
    # singular values in [0.1, 0.9] but the smallest at the invertibility floor
    sv = np.sort(rng.uniform(0.1, 0.9, (24, n)), axis=1)[:, ::-1]
    sv[:, -1] = DET_EPS
    floor = (frames * sv[:, None]) @ frames[::-1]
    batches = {
        "gaussian": rng.standard_normal((24, n, n)),
        "conformal": rng.uniform(0.1, 0.9, (24, 1, 1)) * frames,  # equal singular values
        "det-floor": floor,
        # the smallest norm a scan child of order p <= 7 can have
        "det-floor-7": DET_EPS**7 * floor,
    }
    for name, a in batches.items():
        ref = np.linalg.norm(a, 2, axis=(-2, -1))
        assert np.max(np.abs(domination._two_norms(a) - ref) / ref) <= 1e-14, name


@pytest.mark.parametrize("maps", [stp_pair_3x3(), random_stp_tuple(np.random.default_rng(4), 4, 2)],
                         ids=["stp3", "stp4"])
def test_scan_needs_no_svd(maps, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("svd or norm called")

    default = gap_ratio_scan(maps, 7)
    # the maps are validated (by an SVD each) before the refusal is set
    mats = domination.as_map_stack(maps)
    monkeypatch.setattr(domination, "as_map_stack", lambda _: mats)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    table = gap_ratio_scan(maps, 7)
    assert np.array_equal(table.log_ratios, default.log_ratios)


# ---------------------------------------------------------------------------
# domination detection


def test_detect_diagonal_dominated():
    table = gap_ratio_scan(DIAG_PAIR, n_max=8)
    report = detect_domination(table)
    assert report.dominated_indices == (1,)
    assert report.indices[0].decay_rate == pytest.approx(np.log(2.0 / 3.0), abs=1e-6)
    assert report.tds_verified


def test_detect_conformal_empty():
    maps = (0.5 * rotation(0.3), 0.5 * rotation(1.2))
    report = detect_domination(gap_ratio_scan(maps, n_max=7))
    assert report.dominated_indices == ()
    assert report.indices[0].status == "non-dominated"


def test_detect_stp_tuple_full_domination():
    report = detect_domination(gap_ratio_scan(stp_pair_3x3(), n_max=7))
    assert report.dominated_indices == (1, 2)


def test_detect_requires_enough_lengths():
    with pytest.raises(ValueError):
        detect_domination(gap_ratio_scan(DIAG_PAIR, n_max=4))


def test_fitted_constant_dominates_data_with_inflation():
    for maps in (DIAG_PAIR, stp_pair_3x3()):
        table = gap_ratio_scan(maps, n_max=8)
        report = detect_domination(table)
        for item in report.indices:
            if item.status != "dominated":
                continue
            tau = np.exp(item.decay_rate)
            ratios = np.exp(table.log_ratio_for_index(item.index))
            bound = 1.1 * item.constant_estimate * tau ** np.arange(9)
            assert np.all(ratios <= bound)


# ---------------------------------------------------------------------------
# the table of smallest minors: STP and cone conditions


def test_smallest_minors_positive_2x2_is_stp():
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    minors = smallest_minors(a)
    assert minors.shape == (2,)
    assert is_stp(a) and minors[-1] > EPS_MINOR


def test_smallest_minors_one_by_one_is_vacuously_stp():
    maps = np.array([[[0.5]], [[-0.25]]])
    minors = smallest_minors(maps)
    # no minor of order 1..d-1, and the determinant column is the entry itself
    assert minors.shape == (2, 1)
    assert minors[:, :-1].size == 0 and is_stp(maps)
    assert minors[:, -1].tolist() == [0.5, -0.25]


def test_smallest_minors_identity_is_not_stp():
    assert smallest_minors(np.eye(2)).tolist() == [0.0, 1.0]
    assert not is_stp(np.eye(2))


@pytest.mark.parametrize("n_maps", [1, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_smallest_minors_against_minor_enumeration_oracle(d, n_maps):
    maps = np.array(random_contractive_tuple(np.random.default_rng(10 * d + n_maps), d, n_maps))
    minors = smallest_minors(maps)
    oracle = brute_force_minors(maps)
    assert minors.shape == (n_maps, d)
    if d == 1:
        # a 1x1 determinant comes back through LU, a few ulps off the entry
        assert minors == pytest.approx(oracle, rel=1e-9)
        return
    assert minors[:, :-1] == pytest.approx(oracle[:, :-1], rel=1e-9)
    assert np.array_equal(minors[:, -1], oracle[:, -1])


def test_stp_implies_cone_invariance():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        maps = random_stp_tuple(rng, d, 2)
        assert is_stp(maps)
        positive = smallest_minors(maps) > EPS_MINOR
        for p in range(1, d):
            assert positive[:, p - 1].all()
            # the closed positive orthant of the p-th exterior power maps into its interior
            comp = exterior_power(np.array(maps), p)
            k = comp.shape[-1]
            v = np.where(rng.random(k) < 0.5, 0.0, rng.random(k))
            v[rng.integers(k)] = 1.0
            assert np.all(comp @ v > 0)


def test_stp_random_tuples_fully_dominated():
    rng = np.random.default_rng(5)
    for _ in range(5):
        maps = random_stp_tuple(rng, 3, 2)
        report = detect_domination(gap_ratio_scan(maps, n_max=7))
        assert report.dominated_indices == (1, 2)


def test_cone_invariance_identity_false():
    positive = smallest_minors((np.eye(2), np.array([[0.5, 0.1], [0.2, 0.3]]))) > EPS_MINOR
    # the second map alone keeps the order-1 cone; the identity does not
    assert positive[:, 0].tolist() == [False, True]


def test_positive_entries_negative_det_still_dominated():
    # entry positivity gives cone invariance for p=1 regardless of det sign,
    # and the scan agrees
    maps = (np.array([[0.2, 0.4], [0.3, 0.1]]), np.array([[0.3, 0.1], [0.2, 0.2]]))
    positive = smallest_minors(maps) > EPS_MINOR
    assert positive[:, 0].all() and positive[:, -1].tolist() == [False, True]
    report = detect_domination(gap_ratio_scan(maps, n_max=8))
    assert report.dominated_indices == (1,)


# ---------------------------------------------------------------------------
# bundles


def _choice(weights, n, seed):
    """``n`` i.i.d. symbols of law ``weights``, drawn from ``seed`` as the library draws words."""
    return np.random.default_rng(seed).choice(weights.n, size=n, p=weights.p)


def diag_report():
    return detect_domination(gap_ratio_scan(DIAG_PAIR, n_max=6))


def test_bundle_diagonal_axes_exact():
    word = _choice(BernoulliWeights.uniform(2), 41, 7)
    est = strong_stable_bundle(DIAG_PAIR, word, i=1, depth=40, domination=diag_report())
    e1 = SubspaceFrame(np.eye(2)[:, [0]])
    e2 = SubspaceFrame(np.eye(2)[:, [1]])
    assert principal_angle_distance(est.fast, e1) <= 1e-10
    assert principal_angle_distance(est.slow, e2) <= 1e-10
    assert est.angle_lower_bound == pytest.approx(np.pi / 2)
    assert est.equivariance_angle <= 1e-10


def test_bundle_refuses_undominated_index():
    maps = (0.5 * rotation(0.3), 0.5 * rotation(1.2))
    report = detect_domination(gap_ratio_scan(maps, n_max=7))
    word = _choice(BernoulliWeights.uniform(2), 41, 9)
    with pytest.raises(ValueError):
        strong_stable_bundle(maps, word, i=1, depth=40, domination=report)


def test_bundle_rejects_bool_word():
    with pytest.raises(ValueError, match=r"^words\[0\] is True; .* not bool$"):
        strong_stable_bundle(DIAG_PAIR, [True, False] * 5, i=1, depth=4, domination=diag_report())


def test_bundle_stp_cone_geometry():
    rng = np.random.default_rng(11)
    maps = random_stp_tuple(rng, 2, 2)
    report = detect_domination(gap_ratio_scan(maps, n_max=8))
    assert report.dominated_indices == (1,)
    word = _choice(BernoulliWeights.uniform(2), 61, 13)
    est = strong_stable_bundle(maps, word, i=1, depth=60, domination=report)
    slow_dir = est.slow.frame[:, 0]
    fast_dir = est.fast.frame[:, 0]
    # slow bundle lives inside the positive quadrant (up to overall sign),
    # fast bundle strictly outside its closure
    assert np.all(slow_dir > 0) or np.all(slow_dir < 0)
    assert np.any(fast_dir > 0) and np.any(fast_dir < 0)


def test_bundle_growth_ratio_bounded():
    word = _choice(BernoulliWeights.uniform(2), 41, 17)
    est = strong_stable_bundle(DIAG_PAIR, word, i=1, depth=40, domination=diag_report())
    assert np.isfinite(est.growth_ratio_sup)
    assert est.growth_ratio_sup <= 1.0 + 1e-9  # diagonal case is tight


@pytest.mark.parametrize("index", [1, 2])
def test_bundle_growth_ratio_singular_values_on_a_diagonal_system(index):
    # a frame off the axes grows unlike any singular value, so only the
    # identity frame's sorted growth gives alpha_{index+1} of each product
    maps = (np.diag([0.5, 0.3, 0.2]), np.diag([0.25, 0.4, 0.1]))
    word = _choice(BernoulliWeights.uniform(2), 30, 23)
    f = np.array([[1.0], [2.0], [2.0]]) / 3.0
    ratios = domination.bundle_growth_ratios(maps, word, SubspaceFrame(f), index, 30)
    products = np.cumprod([np.diag(maps[s]) for s in word[:30]], axis=0)
    alpha = -np.sort(-products, axis=1)[:, index]
    expected = np.linalg.norm(products * f[:, 0], axis=1) / alpha
    assert ratios == pytest.approx(expected, rel=1e-12)


def test_bundle_holder_continuity_probe():
    rng = np.random.default_rng(19)
    maps = random_stp_tuple(rng, 2, 2)
    report = detect_domination(gap_ratio_scan(maps, n_max=8))
    w = BernoulliWeights.uniform(2)
    ks = [2, 4, 6, 8, 10]
    mean_log_angle = []
    for k in ks:
        angles = []
        for trial in range(6):
            shared = _choice(w, k, 100 * k + trial)
            tail_a = _choice(w, 41 - k, 200 * k + trial)
            tail_b = _choice(w, 41 - k, 300 * k + trial)
            wa = np.concatenate([shared, tail_a])
            wb = np.concatenate([shared, tail_b])
            fa = strong_stable_bundle(maps, wa, 1, 40, report).fast
            fb = strong_stable_bundle(maps, wb, 1, 40, report).fast
            angles.append(max(principal_angle_distance(fa, fb), 1e-15))
        mean_log_angle.append(np.log(np.mean(angles)))
    slope, _ = np.polyfit(ks, mean_log_angle, 1)
    assert slope < -0.1  # geometric decay in the shared prefix length


def test_splitting_diagonal_three_dim_axes():
    maps = (np.diag([0.25, 1.0 / 3.0, 0.5]), np.diag([0.25, 1.0 / 3.0, 0.5]))
    report = detect_domination(gap_ratio_scan(maps, n_max=8))
    assert report.dominated_indices == (1, 2)
    word = _choice(BernoulliWeights.uniform(2), 81, 29)
    bundles = [
        strong_stable_bundle(maps, word, i, depth=80, domination=report) for i in (1, 2)
    ]
    # each index splits the weakly contracted axes (slow) from the strongly contracted ones (fast)
    for est, slow_axes in zip(bundles, ([2], [1, 2])):
        fast_axes = [k for k in range(3) if k not in slow_axes]
        slow, fast = (SubspaceFrame(np.eye(3)[:, axes]) for axes in (slow_axes, fast_axes))
        assert principal_angle_distance(est.slow, slow) <= 1e-8
        assert principal_angle_distance(est.fast, fast) <= 1e-8


def test_splitting_random_stp_direct_sum():
    rng = np.random.default_rng(31)
    maps = random_stp_tuple(rng, 3, 2)
    report = detect_domination(gap_ratio_scan(maps, n_max=7))
    assert report.dominated_indices == (1, 2)
    word = _choice(BernoulliWeights.uniform(2), 81, 37)
    bundles = [
        strong_stable_bundle(maps, word, i, depth=80, domination=report) for i in (1, 2)
    ]
    for est in bundles:  # slow and fast together span R^3, well apart
        combined = np.hstack([est.slow.frame, est.fast.frame])
        assert np.linalg.svd(combined, compute_uv=False).min() > 1e-6
        assert est.angle_lower_bound > 1e-3


def test_transversality_margin_over_random_words():
    rng = np.random.default_rng(43)
    maps = random_stp_tuple(rng, 2, 2)
    report = detect_domination(gap_ratio_scan(maps, n_max=8))
    w = BernoulliWeights.uniform(2)
    min_angle = np.pi
    for trial in range(100):
        word = _choice(w, 51, 1000 + trial)
        est = strong_stable_bundle(maps, word, 1, 50, report)
        min_angle = min(min_angle, est.angle_lower_bound)
    assert min_angle > 1e-2
