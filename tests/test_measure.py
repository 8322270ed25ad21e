"""Tests for IFS sampling, separation checks, lifting, and dimension slopes."""

import itertools
import re

import numpy as np
import pytest
from conftest import bm_carpet_ifs, cantor_dust_ifs, cantor_ifs, segment_ifs
from scipy import stats
from scipy.spatial import cKDTree

from affinedim import cocycle, measure
from affinedim.cocycle import BernoulliWeights
from affinedim.linalg import SubspaceFrame, singular_values
from affinedim.measure import (
    IfsSystem,
    _ball_counts,
    _cell_counts,
    _cross_pairs,
    _enumerate_cylinders,
    _nearest,
    _prefix_slopes,
    PointCloud,
    box_counting_dimension,
    check_separation,
    cloud_from_csv,
    cloud_to_csv,
    lift_ifs,
    local_dimension_estimate,
    natural_projection,
    project_cloud,
    sample_measure,
    self_affinity_check,
)

CANTOR_DIM = np.log(2) / np.log(3)


# ---------------------------------------------------------------------------
# natural projection


def test_natural_projection_fixed_point():
    point, err = natural_projection(cantor_ifs(), [0] * 12)
    assert point == pytest.approx([0.0], abs=1e-15)
    assert err == pytest.approx(3.0**-12)


def test_natural_projection_geometric_series():
    for n in (1, 2, 8):
        point, err = natural_projection(cantor_ifs(), [1] * n)
        assert point[0] == pytest.approx(1.0 - 3.0**-n, rel=1e-14)
        assert err == pytest.approx(3.0**-n)


def test_natural_projection_single_symbol():
    ifs = cantor_ifs()
    point, err = natural_projection(ifs, [1])
    assert np.allclose(point, ifs.translations[1])
    assert err == pytest.approx(ifs.bounding_radius / 3.0)


def test_natural_projection_refinement_within_bound():
    ifs = bm_carpet_ifs()
    rng = np.random.default_rng(3)
    for _ in range(20):
        word = rng.integers(0, 3, size=25)
        for n in (5, 10, 20):
            coarse, bound = natural_projection(ifs, word[:n])
            fine, _ = natural_projection(ifs, word[: n + 5])
            assert np.linalg.norm(fine - coarse) <= bound + 1e-15


def test_natural_projection_rejects_empty_word():
    with pytest.raises(ValueError):
        natural_projection(cantor_ifs(), [])


# ---------------------------------------------------------------------------
# sampling


def test_sample_degenerate_weights_hits_fixed_point():
    ifs = cantor_ifs(weights=[1.0, 0.0])
    cloud = sample_measure(ifs, count=50, depth=30, rng=1)
    assert np.all(np.abs(cloud.points) <= 3.0**-29)


def test_sample_cantor_mean_and_bounding_ball():
    ifs = cantor_ifs()
    m = 40_000
    cloud = sample_measure(ifs, count=m, depth=40, rng=2)
    # the measure is symmetric about 1/2 with variance 1/8
    sigma = np.sqrt(1.0 / 8.0)
    assert abs(cloud.points.mean() - 0.5) <= 3 * sigma / np.sqrt(m)
    assert np.all(np.linalg.norm(cloud.points, axis=1) <= ifs.bounding_radius + 1e-12)
    assert np.all(cloud.errors <= ifs.bounding_radius * 3.0**-40 + 1e-30)


def test_sample_first_level_cylinder_masses_match_weights():
    ifs = cantor_ifs(weights=[0.3, 0.7])
    m = 50_000
    cloud = sample_measure(ifs, count=m, depth=30, rng=5)
    in_left = np.mean(cloud.points[:, 0] <= 1.0 / 3.0)
    se = np.sqrt(0.3 * 0.7 / m)
    assert abs(in_left - 0.3) <= 3 * se
    # sampled cylinder membership must agree with the stored words
    assert np.array_equal(cloud.points[:, 0] <= 1.0 / 3.0, cloud.words[:, 0] == 0)


def test_sample_deterministic_given_seed():
    ifs = bm_carpet_ifs()
    a = sample_measure(ifs, 100, 20, rng=9)
    b = sample_measure(ifs, 100, 20, rng=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.words, b.words)
    assert a.seed == 9


def test_sample_keeps_the_drawn_arrays(monkeypatch):
    copied = []

    def recording(a):
        out = real(a)
        if out is not a:
            copied.append(a.shape)
        return out

    real = measure._frozen
    monkeypatch.setattr(measure, "_frozen", recording)
    ifs = bm_carpet_ifs()
    cloud = sample_measure(ifs, 300, 20, rng=61)
    assert copied == []
    drawn = np.random.default_rng(61).choice(ifs.n_maps, size=(300, 20), p=ifs.weights.p)
    assert np.array_equal(cloud.words, drawn)
    assert cloud.words.flags.owndata and not cloud.words.flags.writeable


def _per_sample_sampling(ifs, count, depth, seed):
    """Reference sampler: one draw of every word, then each sample stepped alone."""
    rng = np.random.default_rng(seed)
    words = rng.choice(ifs.n_maps, size=(count, depth), p=ifs.weights.p)
    pts = np.zeros((count, ifs.d))
    for k in range(depth - 1, -1, -1):
        sel = words[:, k]
        pts = np.einsum("nij,nj->ni", ifs.matrices[sel], pts) + ifs.translations[sel]
    return pts, words, ifs.truncation_bound(words)


def _assert_sampling_exact(ifs, count, depth, seed):
    cloud = sample_measure(ifs, count, depth, rng=seed)
    pts, words, errors = _per_sample_sampling(ifs, count, depth, seed)
    assert np.array_equal(cloud.points, pts)
    assert np.array_equal(cloud.words, words)
    assert np.array_equal(cloud.errors, errors)


@pytest.mark.parametrize("seed", range(12))
def test_sample_equals_per_sample_recursion(seed, monkeypatch):
    # a small block makes every draw span several blocks, split inside rows
    monkeypatch.setattr(cocycle, "_WORD_BLOCK_SYMBOLS", 16)
    monkeypatch.setattr(measure, "_WORD_BLOCK_SYMBOLS", 16)
    rng = np.random.default_rng(8800 + seed)
    ifs = _random_small_ifs(rng, ["general", "one-map", "identical"][seed % 3])
    if seed % 2 and ifs.n_maps > 1:  # a map that is never drawn
        p = rng.uniform(0.1, 1.0, ifs.n_maps)
        p[rng.integers(ifs.n_maps)] = 0.0
        ifs = IfsSystem(ifs.matrices, ifs.translations, BernoulliWeights(p / p.sum()))
    depth = int(rng.integers(1, 9))
    full = ifs.n_maps**depth  # every suffix of every length fits in the table
    for count in {1, max(1, full // 3), max(1, full - 1), full, full + 5, 3 * full + 1}:
        _assert_sampling_exact(ifs, min(count, 5000), depth, seed)


@pytest.mark.parametrize("ifs", [cantor_ifs(), cantor_ifs(weights=[0.0, 1.0]), bm_carpet_ifs(),
                                 IfsSystem([[[0.5]]], [[0.25]], BernoulliWeights.uniform(1))],
                         ids=["cantor", "zero-weight", "carpet", "one-map"])
@pytest.mark.parametrize("count, depth", [(1, 1), (1, 12), (7, 1), (500, 1), (500, 12)])
def test_sample_exact_at_the_edges(ifs, count, depth):
    _assert_sampling_exact(ifs, count, depth, 29)


def test_sample_block_draw_matches_one_draw():
    ifs = cantor_dust_ifs()
    count = 2 * cocycle._WORD_BLOCK_SYMBOLS // 6 + 5  # two full blocks and a short one
    gen = np.random.default_rng(404)
    cloud = sample_measure(ifs, count, 6, rng=gen)
    ref = np.random.default_rng(404)
    assert np.array_equal(cloud.words, ref.choice(4, size=(count, 6), p=ifs.weights.p))
    # the generator is left where one draw leaves it
    assert gen.bit_generator.state == ref.bit_generator.state
    assert gen.random() == ref.random()


# ---------------------------------------------------------------------------
# self-affinity identity


def test_self_affinity_whole_ball_exact():
    ifs = cantor_ifs()
    cloud = sample_measure(ifs, 5000, 30, rng=11)
    r = ifs.bounding_radius
    report = self_affinity_check(cloud, ifs, [(np.array([-r]), np.array([r]))])
    box = report.boxes[0]
    assert box.status == "pass"
    assert box.mass == 1.0 and box.pushed_mass == pytest.approx(1.0)


def test_self_affinity_first_cylinder():
    ifs = cantor_ifs(weights=[0.4, 0.6])
    cloud = sample_measure(ifs, 30_000, 30, rng=13)
    report = self_affinity_check(cloud, ifs, [(np.array([0.0]), np.array([1.0 / 3.0]))])
    box = report.boxes[0]
    assert box.status == "pass"
    assert box.pushed_mass == pytest.approx(0.4, abs=1e-12)


def test_self_affinity_disjoint_box_trivial():
    ifs = cantor_ifs()
    cloud = sample_measure(ifs, 2000, 25, rng=17)
    report = self_affinity_check(cloud, ifs, [(np.array([-0.9]), np.array([-0.5]))])
    assert report.boxes[0].status == "pass"
    assert report.boxes[0].mass == 0.0 and report.boxes[0].pushed_mass == 0.0


def test_self_affinity_small_box_skipped():
    ifs = cantor_ifs()
    cloud = sample_measure(ifs, 2000, 25, rng=19)
    report = self_affinity_check(cloud, ifs, [(np.array([0.0]), np.array([1e-4]))])
    assert report.boxes[0].status in ("skipped", "pass")


def test_self_affinity_rejects_box_outside_ball():
    ifs = cantor_ifs()
    cloud = sample_measure(ifs, 1000, 20, rng=21)
    with pytest.raises(ValueError):
        self_affinity_check(cloud, ifs, [(np.array([5.0]), np.array([6.0]))])


def test_self_affinity_bm_boxes_pass():
    ifs = bm_carpet_ifs()
    cloud = sample_measure(ifs, 40_000, 30, rng=23)
    rng = np.random.default_rng(29)
    boxes = []
    for _ in range(6):
        lo = rng.uniform(0.0, 0.6, size=2)
        hi = lo + rng.uniform(0.2, 0.4, size=2)
        boxes.append((lo, hi))
    report = self_affinity_check(cloud, ifs, boxes)
    assert report.all_pass


# ---------------------------------------------------------------------------
# separation


def test_separation_cantor_verified_with_gap():
    verdict = check_separation(cantor_ifs(), level=8)
    assert verdict.status == "ssc-verified"
    assert verdict.witness_gap == pytest.approx(1.0 / 3.0, abs=0.01)


def test_separation_cantor_deep_level_pinned():
    # every hull pair is apart, so the 1-D nearest-centre search decides the witness
    verdict = check_separation(cantor_ifs(), level=15)
    assert (verdict.status, verdict.witness_words, verdict.witness_gap, verdict.level) == (
        "ssc-verified", ((0,) + (1,) * 14, (1,) + (0,) * 14), 0.3333332636416139, 15)


def test_separation_identical_maps_overlap():
    mats = np.array([[[1.0 / 3.0]], [[1.0 / 3.0]]])
    ts = np.array([[0.1], [0.1]])
    ifs = IfsSystem(mats, ts, BernoulliWeights.uniform(2))
    verdict = check_separation(ifs, level=6)
    assert verdict.status == "overlap-detected"
    assert verdict.witness_gap == pytest.approx(0.0, abs=1e-12)


def test_separation_abutting_inconclusive():
    verdict = check_separation(segment_ifs(), level=8)
    assert verdict.status == "inconclusive"


def test_separation_single_map_has_no_witness():
    ifs = IfsSystem(np.array([[[0.5]]]), np.array([[0.25]]), BernoulliWeights.uniform(1))
    verdict = check_separation(ifs, level=4)
    assert verdict.status == "ssc-verified"
    assert verdict.witness_words is None and verdict.witness_gap is None


@pytest.mark.parametrize("ifs", [cantor_ifs(), bm_carpet_ifs(), cantor_dust_ifs()],
                         ids=["cantor", "bm", "dust"])
def test_cylinder_centres_are_natural_projections(ifs):
    level = 4
    centers, radii, firsts, samples, words = _enumerate_cylinders(ifs, level)
    assert words.shape == (ifs.n_maps**level, level)
    # every word once, in reverse lexicographic order
    codes = words @ ifs.n_maps ** np.arange(level - 1, -1, -1)
    assert np.array_equal(codes, np.arange(ifs.n_maps**level)[::-1])
    assert np.array_equal(firsts, words[:, 0])
    for center, word in zip(centers, words):
        assert np.allclose(center, natural_projection(ifs, word)[0], rtol=0.0, atol=1e-14)


def _random_small_ifs(rng, kind):
    d = int(rng.integers(1, 4))
    n = 1 if kind == "one-map" else int(rng.integers(2, 5))
    # independent singular values per map give unequal hull radii, so hulls
    # can be near one another and still apart
    mats = np.array([
        u @ np.diag(rng.uniform(0.05, 0.6, d)) @ vt
        for u, _, vt in (np.linalg.svd(rng.standard_normal((d, d))) for _ in range(n))
    ])
    ts = rng.uniform(-1.0, 1.0, size=(n, d))
    if kind == "identical":
        mats[1], ts[1] = mats[0], ts[0]
    elif kind == "zero-translations":
        ts[:] = 0.0
    return IfsSystem(mats, ts, BernoulliWeights.uniform(n))


def _brute_force_cross_pairs(ifs, level):
    """Hull gaps and sample distances of every cross-first-symbol pair, all O(n^2) of them."""
    centers, radii, firsts, samples, words = _enumerate_cylinders(ifs, level)
    i, j = np.nonzero(firsts[:, None] != firsts[None, :])
    gaps = np.linalg.norm(centers[i] - centers[j], axis=1) - radii[i] - radii[j]
    sample_dist = np.linalg.norm(samples[i] - samples[j], axis=1)
    index = {tuple(w): k for k, w in enumerate(words.tolist())}
    return gaps, sample_dist, index, centers, radii, samples


def test_separation_matches_brute_force_on_random_systems():
    rng = np.random.default_rng(2024)
    kinds = ["generic", "generic", "one-map", "identical", "zero-translations"]
    seen = set()
    for trial in range(60):
        ifs = _random_small_ifs(rng, kinds[trial % len(kinds)])
        level = int(rng.integers(1, 5 if ifs.n_maps < 4 else 4))
        verdict = check_separation(ifs, level)
        seen.add(verdict.status)
        scale = 1.0 + ifs.bounding_radius
        guard, resolution = 1e-12 * scale, 1e-9 * scale
        if ifs.n_maps == 1:
            assert verdict.status == "ssc-verified", trial
            assert verdict.witness_words is None and verdict.witness_gap is None, trial
            continue
        gaps, sample_dist, index, centers, radii, samples = _brute_force_cross_pairs(ifs, level)
        assert verdict.witness_words[0][0] != verdict.witness_words[1][0], trial
        a, b = (index[w] for w in verdict.witness_words)
        pair_gap = np.linalg.norm(centers[a] - centers[b]) - radii[a] - radii[b]
        if gaps.min() > guard:
            assert verdict.status == "ssc-verified", trial
            assert verdict.witness_gap > guard, trial
            assert verdict.witness_gap == pytest.approx(pair_gap, rel=1e-12, abs=1e-15), trial
        elif sample_dist.min() <= resolution:
            assert verdict.status == "overlap-detected", trial
            assert verdict.witness_gap == pytest.approx(sample_dist.min(), abs=1e-15), trial
            assert np.linalg.norm(samples[a] - samples[b]) <= resolution, trial
        else:
            assert verdict.status == "inconclusive", trial
            assert verdict.witness_gap == pytest.approx(gaps.min(), rel=1e-12, abs=1e-15), trial
            assert pair_gap == pytest.approx(gaps.min(), rel=1e-12, abs=1e-15), trial
    assert seen == {"ssc-verified", "overlap-detected", "inconclusive"}


def test_separation_budget_precondition():
    with pytest.raises(ValueError):
        check_separation(cantor_dust_ifs(), level=12, budget=10_000)


# ---------------------------------------------------------------------------
# lift


def test_lift_arithmetic_example():
    mats = np.array([[[0.4]], [[0.5]]])
    ts = np.array([[0.0], [0.3]])
    ifs = IfsSystem(mats, ts, BernoulliWeights.uniform(2))
    lifted = lift_ifs(ifs)
    assert lifted.rho == pytest.approx(0.36)
    assert np.allclose(lifted.taus, [0.0, 0.5])
    # last-coordinate images [tau, tau + rho] are disjoint
    assert 0.0 + lifted.rho < 0.5


def test_lift_smallest_singular_value_is_rho():
    ifs = bm_carpet_ifs()
    lifted = lift_ifs(ifs)
    for i in range(ifs.n_maps):
        base_sv = singular_values(ifs.matrices[i])
        # block structure: the lifted singular values are the base ones plus rho,
        # and rho < min alpha_d makes it exactly the smallest
        assert min(float(base_sv[0]), lifted.rho) == lifted.rho
        sv = singular_values(lifted.ifs.matrices[i])
        assert sv[0] == pytest.approx(lifted.rho, rel=1e-12)


def test_lift_passes_separation_even_with_overlap_below():
    mats = np.array([[[0.45]], [[0.45]]])
    ts = np.array([[0.0], [0.1]])  # heavily overlapping on the line
    ifs = IfsSystem(mats, ts, BernoulliWeights.uniform(2))
    lifted = lift_ifs(ifs)
    gap_z = 1.0 / ifs.n_maps - lifted.rho
    r = lifted.ifs.bounding_radius
    level = int(np.ceil(np.log(gap_z / (4.0 * r)) / np.log(0.45))) + 1
    verdict = check_separation(lifted.ifs, level=level)
    assert verdict.status == "ssc-verified"


def test_lift_projection_reproduces_base_cloud():
    ifs = bm_carpet_ifs()
    lifted = lift_ifs(ifs)
    base = sample_measure(ifs, 500, 25, rng=31)
    lifted_cloud = sample_measure(lifted.ifs, 500, 25, rng=31)
    assert np.array_equal(base.words, lifted_cloud.words)
    assert np.array_equal(lifted_cloud.points[:, :2], base.points)


def test_lift_rejects_bad_rho():
    with pytest.raises(ValueError):
        lift_ifs(cantor_ifs(), rho=0.4)


# ---------------------------------------------------------------------------
# projections of clouds


def test_project_full_space_isometric():
    cloud = sample_measure(bm_carpet_ifs(), 200, 20, rng=37)
    v = SubspaceFrame.full(2)
    proj = project_cloud(cloud, v)
    assert np.allclose(np.linalg.norm(proj.points, axis=1),
                       np.linalg.norm(cloud.points, axis=1))


def test_project_composition_matches_composed_frame():
    cloud = sample_measure(cantor_dust_ifs(), 300, 20, rng=41)
    v = SubspaceFrame.from_span(np.array([[1.0, 0.0], [1.0, 1.0]]))  # 2-frame in R^2
    w = SubspaceFrame.from_span(np.array([1.0, 1.0]))  # line inside V coords
    two_step = project_cloud(project_cloud(cloud, v), w)
    composed = project_cloud(cloud, SubspaceFrame(v.frame @ w.frame))
    assert np.allclose(two_step.points, composed.points, atol=1e-12)


def test_project_dust_to_axis_is_cantor():
    dust = sample_measure(cantor_dust_ifs(), 20_000, 30, rng=43)
    axis = project_cloud(dust, SubspaceFrame.coordinate(2, [0]))
    line = sample_measure(cantor_ifs(), 20_000, 30, rng=47)
    ks = stats.ks_2samp(axis.points[:, 0], line.points[:, 0]).statistic
    assert ks < 0.03


def test_project_bm_carpet_row_marginal():
    ifs = bm_carpet_ifs()  # rows 0,0,1 -> marginal (2/3, 1/3)
    cloud = sample_measure(ifs, 30_000, 30, rng=53)
    rows = project_cloud(cloud, SubspaceFrame.coordinate(2, [1]))
    frac_low = np.mean(rows.points[:, 0] < 0.5)
    assert frac_low == pytest.approx(2.0 / 3.0, abs=0.01)


def test_project_shares_frozen_words_and_errors():
    cloud = sample_measure(bm_carpet_ifs(), 300, 20, rng=59)
    proj = project_cloud(cloud, SubspaceFrame.coordinate(2, [0]))
    assert np.shares_memory(proj.words, cloud.words)
    assert np.shares_memory(proj.errors, cloud.errors)
    assert not proj.words.flags.writeable


def test_point_cloud_copies_writeable_input():
    words = np.zeros((4, 3), dtype=np.int64)
    errors = np.full(4, 1e-9)
    cloud = PointCloud(np.zeros((4, 2)), words, errors, 3, None)
    assert not np.shares_memory(cloud.words, words)
    assert not np.shares_memory(cloud.errors, errors)
    words[0, 0] = 1
    assert cloud.words[0, 0] == 0
    # a read-only view does not own its data, so it is copied too
    base = np.zeros((4, 3), dtype=np.int64)
    view = base[:]
    view.flags.writeable = False
    assert not np.shares_memory(PointCloud(np.zeros((4, 2)), view, None, 3, None).words, base)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_cloud_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="point 1 has non-finite"):
        PointCloud.from_points([[0.0], [bad], [1.0]])


# ---------------------------------------------------------------------------
# local dimension


def test_local_dimension_segment_is_one():
    cloud = sample_measure(segment_ifs(), 40_000, 45, rng=59)
    report = local_dimension_estimate(cloud, n_centers=48, rng=61)
    assert report.median == pytest.approx(1.0, abs=0.05)


def test_local_dimension_cantor():
    cloud = sample_measure(cantor_ifs(), 60_000, 40, rng=67)
    report = local_dimension_estimate(cloud, n_centers=64, rng=71)
    assert report.median == pytest.approx(CANTOR_DIM, abs=0.03)


def test_local_dimension_dirac_zero():
    ifs = cantor_ifs(weights=[1.0, 0.0])
    cloud = sample_measure(ifs, 500, 40, rng=73)
    report = local_dimension_estimate(cloud, rng=79)
    assert report.median == 0.0


@pytest.mark.parametrize("bad", [-0.01, np.inf, 0.0, np.nan],
                         ids=["negative", "infinite", "zero", "nan"])
def test_local_dimension_rejects_radius_not_finite_and_positive(bad, monkeypatch):
    def no_counting(*args):
        raise AssertionError("balls were counted before the radii were checked")

    monkeypatch.setattr(measure, "_ball_counts", no_counting)
    cloud = PointCloud.from_points(np.random.default_rng(5).uniform(0.0, 1.0, (300, 2)))
    radii = 0.1 * 0.8 ** np.arange(24)
    radii[7] = bad
    with pytest.raises(ValueError, match=re.escape(f"radii[7] is {float(bad)!r}")):
        local_dimension_estimate(cloud, radii=list(radii))


def _polyfit_slopes(counts, radii, m, min_usable):
    """Per-centre ``np.polyfit`` slopes, NaN where too few balls are non-empty."""
    slopes = []
    for row in counts.astype(float):
        usable = row >= 1
        slopes.append(np.polyfit(np.log(radii[usable]), np.log(row[usable] / m), 1)[0]
                      if usable.sum() >= min_usable else np.nan)
    return np.array(slopes)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grouped_slopes_equal_per_row_polyfit(d):
    rng = np.random.default_rng(8800 + d)
    # clusters of varied spread, and sparse points whose balls empty out early
    pts = rng.uniform(0.0, 1.0, (40, d))[rng.integers(0, 40, 2700)]
    pts = pts + rng.normal(0.0, 1e-3, pts.shape) * rng.uniform(0.0, 1.0, (2700, 1))
    pts = np.concatenate([pts, rng.uniform(2.0, 3.0, (300, d))])
    cloud = PointCloud.from_points(pts)
    radii = 0.3 * 0.75 ** np.arange(40)
    report = local_dimension_estimate(cloud, radii=radii, n_centers=200, rng=d)
    counts = _ball_counts(pts, report.center_indices, report.radii)
    usable = (counts >= 1).sum(axis=1)
    assert np.unique(usable[usable >= 20]).size >= 3 and 0 < report.n_skipped < 200
    want = _polyfit_slopes(counts, report.radii, cloud.m, 20)
    assert np.array_equal(report.slopes.view(np.int64), want.view(np.int64))
    # random count tables: each row falls to a random run of empty balls
    m = 1000
    table = -np.sort(-rng.integers(0, m, (200, 24)), axis=1)
    table *= np.arange(24) < rng.integers(1, 25, (200, 1))
    usable = (table >= 1).sum(axis=1)
    keep = usable >= 2
    log_r = np.log(report.radii[:24])
    got = _prefix_slopes(log_r, np.log(np.maximum(table[keep], 1) / m), usable[keep])
    want = _polyfit_slopes(table[keep], report.radii[:24], m, 2)
    assert np.unique(usable[keep]).size > 10
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_grouped_slopes_raise_on_failed_svd():
    log_r = np.log(0.5 ** np.arange(1.0, 6.0))
    log_r[2] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        np.polyfit(log_r, np.arange(5.0), 1)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        _prefix_slopes(log_r, np.ones((2, 5)), np.array([5, 5]))


def test_local_dimension_uniform_box_is_two():
    rng = np.random.default_rng(83)
    cloud = PointCloud.from_points(rng.uniform(0.0, 1.0, size=(200_000, 2)))
    radii = 0.07 * 0.85 ** np.arange(20)
    report = local_dimension_estimate(cloud, radii=radii, n_centers=64, rng=89,
                                      min_usable_radii=18)
    assert report.median == pytest.approx(2.0, abs=0.05)


def _norm_sort_counts(pts, center_idx, radii):
    """Reference ball counts: sort every distance to the centre, count those <= r."""
    rows = []
    for ci in center_idx:
        dist = np.linalg.norm(pts - pts[ci], axis=1)
        dist[ci] = np.inf
        dist.sort()
        rows.append(np.searchsorted(dist, radii, side="right"))
    return np.array(rows)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_ball_counts_match_norm_and_sort(d, seed):
    rng = np.random.default_rng(1000 * d + seed)
    pts = rng.uniform(-1.0, 1.0, size=(400, d))
    pts = np.concatenate([pts, pts[rng.choice(400, 60)]])  # duplicate points
    center_idx = rng.choice(pts.shape[0], 25, replace=False)
    # the grid's radii plus radii equal to actual centre-to-point distances
    ties = np.linalg.norm(pts[rng.choice(pts.shape[0], 6)] - pts[center_idx[:6]], axis=1)
    radii = np.unique(np.concatenate([0.9 * 0.8 ** np.arange(12), ties[ties > 0]]))
    got = _ball_counts(pts, center_idx, radii)
    want = _norm_sort_counts(pts, center_idx, radii)
    dist = np.linalg.norm(pts[None] - pts[center_idx][:, None], axis=2)
    dist[np.arange(center_idx.size), center_idx] = np.inf
    near = (np.abs(dist[:, :, None] - radii) <= 4 * np.spacing(radii)).sum(axis=1)
    assert np.all(np.abs(got - want) <= near)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ball_counts_exact_on_lattice(d):
    # quarter-integer points: every squared distance and r**2 is exact, so
    # both comparisons agree on points lying exactly on a sphere
    axis = np.arange(-4, 5) / 4.0
    pts = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    pts = np.concatenate([pts, pts[::5]])
    center_idx = np.arange(0, pts.shape[0], 7)
    radii = np.arange(1, 12) / 4.0
    assert np.array_equal(_ball_counts(pts, center_idx, radii),
                          _norm_sort_counts(pts, center_idx, radii))


def test_ball_counts_tie_decided_by_squared_distance():
    # |x|^2 = 1 + 2^-52 > r^2 = 1, but the rounded norm is exactly 1.0
    pts = np.array([[0.0, 0.0], [1.0, 2.0**-26]])
    center_idx, radii = np.array([0]), np.array([1.0])
    assert _norm_sort_counts(pts, center_idx, radii).tolist() == [[1]]
    assert _tree_counts(pts, center_idx, radii).tolist() == [[0]]
    assert _ball_counts(pts, center_idx, radii).tolist() == [[0]]


def _tree_counts(pts, center_idx, radii):
    """Ball counts straight from ``cKDTree.query_ball_point``, the centre excluded."""
    counts = cKDTree(pts).query_ball_point(
        np.repeat(pts[center_idx], radii.size, axis=0),
        np.tile(radii, center_idx.size),
        return_length=True,
    )
    return counts.reshape(center_idx.size, radii.size) - 1


def _bound_counts(x, center_idx, radii):
    """Ball counts from sorted bounds ``c - r`` and ``c + r``, which round differently."""
    xs = np.sort(x)
    c = x[center_idx][:, None]
    return np.searchsorted(xs, c + radii, "right") - np.searchsorted(xs, c - radii, "left") - 1


def _line(kind, rng, n=3000):
    if kind == "uniform":
        return rng.uniform(0.05, 1.0, n)
    if kind == "dyadic":  # a lattice with many duplicates
        return rng.integers(0, 512, n) / 512.0
    if kind == "clusters":  # tight clusters spread over a few hundred ulp
        return rng.choice(rng.uniform(0.0, 1.0, 8), n) + rng.normal(0.0, 1e-14, n)
    return np.cumsum(rng.uniform(0.0, 1e-3, n))  # rounded partial sums


@pytest.mark.parametrize("kind", ["uniform", "dyadic", "clusters", "cumsum"])
@pytest.mark.parametrize("seed", range(3))
def test_ball_counts_1d_equal_the_tree(kind, seed):
    rng = np.random.default_rng(7000 + seed)
    x = _line(kind, rng)
    center_idx = np.concatenate([[np.argmin(x), np.argmax(x)], rng.choice(x.size, 30)])
    # exact centre-to-point distances, their neighbours, and a geometric grid
    dist = np.abs(x[rng.choice(x.size, 60)] - x[np.resize(center_idx, 60)])
    dist = dist[dist > 0]
    radii = np.unique(np.concatenate([
        dist, np.nextafter(dist, 0.0), np.nextafter(dist, np.inf),
        np.ptp(x) * 0.8 ** np.arange(40),
    ]))
    want = _tree_counts(x[:, None], center_idx, radii)
    assert np.array_equal(_ball_counts(x[:, None], center_idx, radii), want)
    # the family is adversarial: bounds on c +- r miss the tree's rule somewhere
    assert np.any(_bound_counts(x, center_idx, radii) != want)


def test_ball_counts_1d_tie_decided_by_squared_difference():
    # c + r rounds to x, but (x - c)**2 > r * r, so the tree leaves x out
    c, r = 0.08564916714362436, 0.06554410343949128
    x = np.array([[c], [c + r]])
    assert x[1, 0] == 0.15119327058311566
    center_idx, radii = np.array([0]), np.array([r])
    assert _tree_counts(x, center_idx, radii).tolist() == [[0]]
    assert _ball_counts(x, center_idx, radii).tolist() == [[0]]
    assert _bound_counts(x[:, 0], center_idx, radii).tolist() == [[1]]


def _cloud(kind, rng, d, n=2000):
    if kind == "uniform":
        return rng.uniform(0.05, 1.0, (n, d))
    if kind == "dyadic":  # a lattice with many duplicates
        return rng.integers(0, 512, (n, d)) / 512.0
    if kind == "clusters":  # tight clusters spread over about 50 ulp
        return rng.uniform(0.5, 1.0, (8, d))[rng.integers(0, 8, n)] + rng.normal(0.0, 5e-15, (n, d))
    return np.cumsum(rng.uniform(0.0, 1e-3, (n, d)), axis=0)  # rounded partial sums


@pytest.mark.parametrize("d", [2, 3, 4, 8, 9])  # from d = 8 the tree sums in four accumulators
@pytest.mark.parametrize("kind", ["uniform", "dyadic", "clusters", "cumsum"])
@pytest.mark.parametrize("seed", range(2))
def test_ball_counts_equal_the_tree(d, kind, seed):
    rng = np.random.default_rng(9100 + 10 * d + seed)
    pts = _cloud(kind, rng, d)
    center_idx = rng.choice(pts.shape[0], 24, replace=False)
    # exact centre-to-point distances, their neighbours, and a geometric grid
    dist = np.linalg.norm(pts[rng.choice(pts.shape[0], 48)] - pts[np.resize(center_idx, 48)], axis=1)
    dist = dist[dist > 0]
    radii = np.unique(np.concatenate([
        dist, np.nextafter(dist, 0.0), np.nextafter(dist, np.inf),
        np.ptp(pts, axis=0).max() * 0.8 ** np.arange(40),
    ]))
    for order in (radii[::-1], radii):  # descending as the estimator passes them, and ascending
        want = _tree_counts(pts, center_idx, order)
        assert np.array_equal(_ball_counts(pts, center_idx, order), want)
    # the family is adversarial: comparing the norm with r misses the tree's rule somewhere
    assert np.any(_norm_sort_counts(pts, center_idx, order) != want)


@pytest.mark.parametrize("centre, near, far, r, inside", [
    # |near - centre|^2 exceeds r * r by one ulp
    ([0.38139776864285624, 0.8545937396145074], [0.23086184253313874, 0.4999688949254938],
     [0.9999601821541424, 0.3417197833443354], 0.385252963026136, 0),
    # |near - centre|^2 equals r * r
    ([0.10877214724855544, 0.44094098232307616], [0.14196732339464463, 0.7409585379016167],
     [0.9234830589439706, 0.6168106954883152], 0.3018483946862937, 1),
])
def test_ball_counts_tie_where_count_neighbors_differs(centre, near, far, r, inside):
    pts = np.array([centre, near, far])
    assert int(np.sum((pts[1] - pts[0]) ** 2) <= r * r) == inside
    assert _ball_counts(pts, np.array([0]), np.array([r])).tolist() == [[inside]]
    assert _tree_counts(pts, np.array([0]), np.array([r])).tolist() == [[inside]]
    # the one-pass pair count decides this point by its node's bounds, the other way
    tree = cKDTree(pts)
    assert tree.count_neighbors(cKDTree(pts[:1]), [r])[0] - 1 == 1 - inside


def test_searches_keep_a_point_past_the_rounded_bound():
    # (x - c)**2 <= r * r, yet c + r rounds one ulp below x: a window
    # bounded by c + r would drop the point
    c, r, x = 0.9050025708181295, 2.0877087174604094, 2.992711288278539
    assert (x - c) ** 2 <= r * r and x == np.nextafter(c + r, np.inf)
    pts = np.array([[c, 0.0], [x, 0.0]])
    assert _tree_counts(pts, np.array([0]), np.array([r])).tolist() == [[1]]
    assert _ball_counts(pts, np.array([0]), np.array([r])).tolist() == [[1]]
    i, j, dist = _cross_pairs(pts, [np.array([0]), np.array([1])], r)
    assert (i.tolist(), j.tolist(), dist.tolist()) == ([0], [1], [np.sqrt((x - c) ** 2)])


def _split(rng, n, groups):
    labels = rng.integers(0, groups, n)
    return [np.flatnonzero(labels == g) for g in range(groups)]


def _in_order_squared(pts, i, j):
    """Squared distances summed coordinate by coordinate, the tree's order for d < 8."""
    return sum((pts[i, k] - pts[j, k]) ** 2 for k in range(pts.shape[1]))


def _sorted_pairs(i, j, dist):
    order = np.lexsort((j, i))
    return i[order], j[order], dist[order].view(np.int64)


def _tree_cross_pairs(pts, groups, r):
    """Cross-group pairs straight from ``cKDTree.sparse_distance_matrix``."""
    trees = [cKDTree(pts[g]) for g in groups]
    found = []
    for a, b in itertools.combinations(range(len(groups)), 2):
        near = trees[a].sparse_distance_matrix(trees[b], r, output_type="ndarray")
        i, j = groups[a][near["i"]], groups[b][near["j"]]
        found.append((np.minimum(i, j), np.maximum(i, j), near["v"]))
    return [np.concatenate(col) for col in zip(*found)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["uniform", "dyadic", "clusters", "cumsum"])
@pytest.mark.parametrize("block", [None, 97])
def test_cross_pairs_equal_the_tree(d, kind, block, monkeypatch):
    if block is not None:  # many chunks, and windows longer than a chunk
        monkeypatch.setattr(measure, "_SWEEP_BLOCK", block)
    every = 1 if block is None else 9  # a few radii suffice to cross chunk edges
    rng = np.random.default_rng(9300 + 10 * d)
    pts = _cloud(kind, rng, d, n=600)
    groups = _split(rng, pts.shape[0], 3)
    # exact distances to near cross-group points, their neighbours, and a coarse radius
    a = groups[0][:6]
    sq = _in_order_squared(pts, a[:, None], groups[1][None, :])
    dist = np.sqrt(np.sort(sq, axis=1)[:, :2].ravel())
    dist = np.unique(dist[dist > 0])
    radii = np.concatenate([dist, np.nextafter(dist, 0.0), np.nextafter(dist, np.inf),
                            [0.0, 0.02 * np.ptp(pts, axis=0).max()]])
    for r in radii[::-every]:
        got = _sorted_pairs(*_cross_pairs(pts, groups, r))
        want = _sorted_pairs(*_tree_cross_pairs(pts, groups, r))
        for g, w in zip(got, want):  # the same pairs, and distances with the same bits
            assert np.array_equal(g, w), r


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["uniform", "dyadic", "clusters", "cumsum"])
@pytest.mark.parametrize("block", [None, 1000])
def test_nearest_equals_the_tree(d, kind, block, monkeypatch):
    if block is not None:  # one row of ``a`` per chunk
        monkeypatch.setattr(measure, "_SWEEP_BLOCK", block)
    rng = np.random.default_rng(9400 + 10 * d)
    pts = _cloud(kind, rng, d, n=1200)
    ga, gb = _split(rng, pts.shape[0], 2)
    got, dist = _nearest(pts, ga, gb)
    # brute force: the smallest squared distance, ties to the lowest index
    sq = _in_order_squared(pts, ga[:, None], gb[None, :])
    assert np.array_equal(got, gb[np.argmin(sq, axis=1)])
    tree_dist, k = cKDTree(pts[gb]).query(pts[ga], k=1)
    assert np.array_equal(dist.view(np.int64), tree_dist.view(np.int64))
    # the tree breaks exact ties its own way; indices may differ only there
    differ = got != gb[k]
    assert np.array_equal(_in_order_squared(pts, ga, got)[differ],
                          _in_order_squared(pts, ga, gb[k])[differ])


def test_nearest_1d_ties_across_values():
    # squares of 1e-170 and 2e-170 underflow to 0, so four distinct values tie
    # around 0; the lowest index sits above the first neighbour in sorted order
    pts = np.array([[0.0], [2e-170], [3.0], [-2e-170], [-1e-170], [1e-170], [5.0]])
    ga, gb = np.array([0, 2]), np.array([1, 3, 4, 5, 6])
    sq = (pts[ga] - pts[gb].T) ** 2
    assert (sq[0] == 0.0).sum() == 4
    got, dist = _nearest(pts, ga, gb)
    assert got.tolist() == gb[np.argmin(sq, axis=1)].tolist() == [1, 6]
    assert dist.tolist() == [0.0, 2.0]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bounding_box_equals_axis_reductions(d):
    rng = np.random.default_rng(60 + d)
    pts = rng.standard_normal((5000, d)) * 10.0 ** rng.integers(-3, 4, d)
    pts[rng.integers(0, 5000, 50)] = 0.0
    pts[rng.integers(0, 5000, 50)] = -0.0
    cloud = PointCloud.from_points(pts)
    lo, hi = cloud.bounding_box
    assert lo.tobytes() == pts.min(axis=0).tobytes()
    assert hi.tobytes() == pts.max(axis=0).tobytes()
    old_diameter = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    assert cloud.diameter.hex() == old_diameter.hex()
    # the box-counting grid anchor: the same cells as the axis-0 minimum gives
    eps = cloud.diameter / 37.0
    assert np.array_equal(np.floor((pts - lo) / eps), np.floor((pts - pts.min(axis=0)) / eps))


# ---------------------------------------------------------------------------
# CSV round trip


def test_cloud_csv_roundtrip_bit_exact(tmp_path):
    ifs = bm_carpet_ifs()
    cloud = sample_measure(ifs, 200, 18, rng=103)
    path = tmp_path / "cloud.csv"
    cloud_to_csv(cloud, path)
    back = cloud_from_csv(path, ifs=ifs)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.words, cloud.words)
    assert back.depth == cloud.depth
    assert np.allclose(back.errors, cloud.errors, rtol=1e-15)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,word,depth"


def test_cloud_csv_rejects_non_finite_row(tmp_path):
    cloud = sample_measure(bm_carpet_ifs(), 5, 6, rng=105)
    path = tmp_path / "cloud.csv"
    cloud_to_csv(cloud, path)
    lines = path.read_text().splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="point 2 has non-finite"):
        cloud_from_csv(path)


def test_cloud_csv_requires_words(tmp_path):
    cloud = PointCloud.from_points(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        cloud_to_csv(cloud, tmp_path / "nope.csv")


# ---------------------------------------------------------------------------
# box counting


def _plain_key_overflows(cells):
    try:
        np.ravel_multi_index(cells.T, cells.max(axis=0) + 1)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("d, eps, overflows", [
    (1, 1e-3, False), (2, 0.05, False), (3, 0.01, False), (3, 1e-7, True),
    (8, 0.3, False), (8, 1e-3, True),
])
def test_cell_counts_match_unique(d, eps, overflows):
    rng = np.random.default_rng(int(d / eps))
    pts = rng.uniform(0.0, 1.0, size=(3000, d))
    pts = np.concatenate([pts, pts[rng.choice(3000, 500)]])
    cells = np.floor(pts / eps).astype(np.int64)
    assert _plain_key_overflows(cells) == overflows
    _, want = np.unique(cells, axis=0, return_counts=True)
    assert np.array_equal(_cell_counts(cells), want)


def test_cell_counts_with_huge_columns():
    # a column too wide to fold even into a re-ranked key is ranked itself
    rng = np.random.default_rng(211)
    cells = rng.integers(0, 2**62, size=(400, 3))
    cells = np.concatenate([cells, cells[:100], cells[:40] // 2])
    _, want = np.unique(cells, axis=0, return_counts=True)
    assert np.array_equal(_cell_counts(cells), want)


def test_box_counting_diagonal_in_r8_unchanged():
    # the finest default box size has 468 cells per axis, 468^8 > 2^63
    t = np.random.default_rng(0).random(20_000)
    cloud = PointCloud.from_points(t[:, None] * np.ones(8))
    rep = box_counting_dimension(cloud)
    eps = rep.eps[-1]
    assert _plain_key_overflows(np.floor((cloud.points - cloud.points.min(axis=0)) / eps)
                                .astype(np.int64))
    assert rep.dimension == float.fromhex("0x1.f58a96b30cb63p-1")  # 0.97957...


def test_box_cells_truncated_equal_floor(monkeypatch):
    seen = []

    def record(cells):
        seen.append(cells)
        return _cell_counts(cells)

    monkeypatch.setattr(measure, "_cell_counts", record)
    rng = np.random.default_rng(131)
    pts = rng.uniform(-1.0, 1.0, (4000, 2))
    pts[:, 1] = np.where(pts[:, 1] < 0.0, -0.0, 0.0) + rng.integers(0, 64, 4000) / 64.0
    pts[:50] = pts.min(axis=0)  # points on the min corner
    pts[50:100, 1] = -0.0  # the column's min is 0.0 or -0.0, whichever min meets first
    cloud = PointCloud.from_points(pts)
    assert cloud.bounding_box[0][1] == 0.0
    eps = np.concatenate([[1.0 / 64, 1.0 / 8], 0.3 * 0.8 ** np.arange(12)])  # cell edges on points
    box_counting_dimension(cloud, eps_list=eps, min_occupancy=1.0)
    offsets = pts - cloud.bounding_box[0]
    assert (offsets >= 0.0).all() and np.signbit(offsets).any()  # -0.0 offsets occur
    for e, cells in zip(np.sort(eps)[::-1], seen, strict=True):
        assert np.array_equal(cells, np.floor(offsets / e).astype(np.int64))


@pytest.mark.parametrize("bad", [-0.01, np.inf, 0.0, np.nan],
                         ids=["negative", "infinite", "zero", "nan"])
def test_box_counting_rejects_eps_not_finite_and_positive(bad, monkeypatch):
    def no_binning(*args):
        raise AssertionError("points were binned before the box sizes were checked")

    monkeypatch.setattr(measure, "_cell_counts", no_binning)
    cloud = PointCloud.from_points(np.random.default_rng(7).uniform(0.0, 1.0, (300, 2)))
    eps = 0.2 * 0.8 ** np.arange(10)
    eps[2] = bad
    with pytest.raises(ValueError, match=re.escape(f"eps_list[2] is {float(bad)!r}")):
        box_counting_dimension(cloud, eps_list=list(eps))


def test_box_counting_cantor():
    cloud = sample_measure(cantor_ifs(), 80_000, 35, rng=107)
    rep = box_counting_dimension(cloud)
    assert rep.dimension == pytest.approx(CANTOR_DIM, abs=0.05)


def test_box_counting_uniform_square():
    rng = np.random.default_rng(109)
    cloud = PointCloud.from_points(rng.uniform(0.0, 1.0, size=(100_000, 2)))
    rep = box_counting_dimension(cloud)
    assert rep.dimension == pytest.approx(2.0, abs=0.05)


def test_box_counting_dirac_zero():
    ifs = cantor_ifs(weights=[1.0, 0.0])
    cloud = sample_measure(ifs, 500, 40, rng=113)
    assert box_counting_dimension(cloud).dimension == 0.0


def test_box_counting_occupancy_guard():
    rng = np.random.default_rng(127)
    cloud = PointCloud.from_points(rng.uniform(0.0, 1.0, size=(400, 2)))
    with pytest.raises(ValueError):
        box_counting_dimension(cloud, eps_list=1e-4 * 0.9 ** np.arange(6))
