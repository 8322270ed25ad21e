"""Tests for IFS sampling, separation checks, lifting, and dimension slopes."""

import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import (bm_carpet_ifs, cantor_dust_ifs, cantor_ifs, kp_sponge_ifs, segment_ifs,
                      separation_table, traced_peak)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial import cKDTree

from affinedim import cocycle, measure
from affinedim.cocycle import BernoulliWeights
from affinedim.config import load_config
from affinedim.linalg import SubspaceFrame, singular_values
from affinedim.measure import (
    IfsSystem,
    _ball_counts,
    _cell_counts,
    _first_pair,
    _prefix_slopes,
    _squared_distances,
    PointCloud,
    SeparationVerdict,
    box_counting_dimension,
    check_separation,
    lift_ifs,
    local_dimension_estimate,
    project_cloud,
    sample_measure,
    self_affinity_check,
)

CANTOR_DIM = np.log(2) / np.log(3)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# natural projection


def _coded_point(ifs, word):
    """``f_{w_0} o ... o f_{w_{n-1}}(0)`` by a backward (Horner) pass."""
    x = np.zeros(ifs.d)
    for s in word[::-1]:
        x = ifs.matrices[s] @ x + ifs.translations[s]
    return x


def _drawn_words(ifs, count, depth, seed):
    """The words ``sample_measure(ifs, count, depth, rng=seed)`` draws: one ``choice`` call."""
    return np.random.default_rng(seed).choice(ifs.n_maps, size=(count, depth), p=ifs.weights.p)


def test_natural_projection_fixed_point():
    cloud = sample_measure(cantor_ifs(weights=[1.0, 0.0]), count=1, depth=12, rng=0)
    assert cloud.points[0] == pytest.approx([0.0], abs=1e-15)
    assert cloud.errors[0] == pytest.approx(3.0**-12)


def test_natural_projection_geometric_series():
    for n in (1, 2, 8):
        cloud = sample_measure(cantor_ifs(weights=[0.0, 1.0]), count=1, depth=n, rng=0)
        assert cloud.points[0, 0] == pytest.approx(1.0 - 3.0**-n, rel=1e-14)
        assert cloud.errors[0] == pytest.approx(3.0**-n)


def test_natural_projection_single_symbol():
    ifs = cantor_ifs(weights=[0.0, 1.0])
    cloud = sample_measure(ifs, count=1, depth=1, rng=0)
    assert np.allclose(cloud.points[0], ifs.translations[1])
    assert cloud.errors[0] == pytest.approx(ifs.bounding_radius / 3.0)


def test_natural_projection_refinement_within_bound():
    ifs = bm_carpet_ifs()
    rng = np.random.default_rng(3)
    for _ in range(20):
        word = rng.integers(0, 3, size=25)
        for n in (5, 10, 20):
            coarse, bound = _coded_point(ifs, word[:n]), ifs.truncation_bound(word[:n])
            fine = _coded_point(ifs, word[: n + 5])
            assert np.linalg.norm(fine - coarse) <= bound + 1e-15


def test_natural_projection_rejects_empty_word():
    with pytest.raises(ValueError, match="depth must be positive"):
        sample_measure(cantor_ifs(), count=1, depth=0, rng=0)


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
    # sampled cylinder membership must agree with the drawn words
    words = _drawn_words(ifs, m, 30, 5)
    assert np.array_equal(cloud.points[:, 0] <= 1.0 / 3.0, words[:, 0] == 0)


def test_sample_deterministic_given_seed():
    ifs = bm_carpet_ifs()
    a = sample_measure(ifs, 100, 20, rng=9)
    b = sample_measure(ifs, 100, 20, rng=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.errors, b.errors)


def _record_copies(monkeypatch):
    """The shapes of the arrays that ``PointCloud`` copies from here on."""
    copied = []

    def recording(a):
        out = real(a)
        if out is not a:
            copied.append(a.shape)
        return out

    real = measure._frozen
    monkeypatch.setattr(measure, "_frozen", recording)
    return copied


def test_sample_keeps_the_drawn_arrays(monkeypatch):
    copied = _record_copies(monkeypatch)
    ifs = bm_carpet_ifs()
    cloud = sample_measure(ifs, 300, 20, rng=61)
    assert copied == []
    assert np.array_equal(cloud.errors, ifs.truncation_bound(_drawn_words(ifs, 300, 20, 61)))
    for a in (cloud.points, cloud.errors):
        assert a.flags.owndata and not a.flags.writeable


def _record_word_dtypes(monkeypatch):
    """The dtypes of the word arrays that ``sample_measure`` draws from here on."""
    dtypes = []

    def recording(rng, p, out):
        dtypes.append(out.dtype)
        return real(rng, p, out)

    real = measure._draw_words
    monkeypatch.setattr(measure, "_draw_words", recording)
    return dtypes


def _per_sample_sampling(ifs, count, depth, seed):
    """Reference sampler: one draw of every word, then each sample stepped alone.

    Every step gathers by fancy indexing.  Returns the points, words and
    bounds, and the generator after the draw.
    """
    rng = np.random.default_rng(seed)
    words = rng.choice(ifs.n_maps, size=(count, depth), p=ifs.weights.p)
    pts = np.zeros((count, ifs.d))
    for k in range(depth - 1, -1, -1):
        sel = words[:, k]
        pts = np.einsum("nij,nj->ni", ifs.matrices[sel], pts) + ifs.translations[sel]
    return pts, words, ifs.truncation_bound(words), rng


def _assert_sampling_exact(ifs, count, depth, seed):
    gen = np.random.default_rng(seed)
    cloud = sample_measure(ifs, count, depth, rng=gen)
    pts, _, errors, ref = _per_sample_sampling(ifs, count, depth, seed)
    assert np.array_equal(cloud.points, pts), (count, depth)
    assert np.array_equal(cloud.errors, errors), (count, depth)
    assert gen.bit_generator.state == ref.bit_generator.state
    return cloud


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
    words = ref.choice(4, size=(count, 6), p=ifs.weights.p)
    assert np.array_equal(cloud.errors, ifs.truncation_bound(words))
    # the generator is left where one draw leaves it
    assert gen.bit_generator.state == ref.bit_generator.state
    assert gen.random() == ref.random()


def _random_contractions(rng, n_maps, d):
    mats, ts = _random_maps(rng, n_maps, d)
    p = rng.uniform(0.1, 1.0, n_maps)
    return IfsSystem(mats, ts, BernoulliWeights(p / p.sum()))


@pytest.mark.parametrize("n_maps, d", [(1, 2), (2, 3), (3, 1), (300, 2)])
@pytest.mark.parametrize("rows_for", [lambda c: 1, lambda c: 7, lambda c: c - 1, lambda c: c + 1],
                         ids=["1", "7", "count-1", "count+1"])
def test_sample_blocks_equal_per_sample_recursion(n_maps, d, rows_for, monkeypatch):
    dtypes = _record_word_dtypes(monkeypatch)
    ifs = _random_contractions(np.random.default_rng(1500 + n_maps + d), n_maps, d)
    full = (n_maps**2, 2) if n_maps <= 3 else (n_maps, 1)  # count >= n_maps**depth
    # blocks of 1 and 7 rows split the suffix table's levels too, and count - 1
    # rows split the full table of `full`
    for count, depth in [(37, 1), full, (37, 6), (200, 9)]:
        monkeypatch.setattr(measure, "_SAMPLE_BLOCK_ROWS", max(1, rows_for(count)))
        _assert_sampling_exact(ifs, count, depth, 77 + count + depth)
        assert dtypes.pop() == (np.uint8 if n_maps <= 256 else np.uint16)


@pytest.mark.parametrize("n_maps, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_sample_words_in_the_narrowest_unsigned_type(n_maps, dtype, monkeypatch):
    dtypes = _record_word_dtypes(monkeypatch)
    ifs = _random_contractions(np.random.default_rng(n_maps), n_maps, 1)
    cloud = sample_measure(ifs, 50, 3, rng=5)
    assert dtypes == [dtype]
    assert np.array_equal(cloud.points, _per_sample_sampling(ifs, 50, 3, 5)[0])


def test_sample_memory_stays_bounded(monkeypatch):
    # stp3 at the dim report's sample size and depth: the words are one byte
    # per symbol, and the suffix table and every sample's steps are built in
    # cache-sized blocks (the finished cloud holds 3.2 MB)
    dtypes = _record_word_dtypes(monkeypatch)
    ifs = load_config(CONFIG_DIR / "stp3.json").ifs
    count, depth = 100_000, 39
    cloud, peak = traced_peak(sample_measure, ifs, count, depth, rng=3)
    assert dtypes == [np.uint8]
    assert cloud.points.nbytes + cloud.errors.nbytes == count * 32
    assert peak < 13e6, peak


def _bm_cloud():
    """The bm dim report's cloud: 200,000 samples at its depth of 15."""
    return sample_measure(load_config(CONFIG_DIR / "bm.json").ifs, 200_000, 15, rng=7)


def test_sample_bm_memory_stays_bounded():
    # the finished cloud holds 4.8 MB; no temporary is as large as its points
    cloud, peak = traced_peak(_bm_cloud)
    assert cloud.points.nbytes + cloud.errors.nbytes == 4_800_000
    assert peak < 15e6, peak


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
    assert all(b.status != "fail" for b in report.boxes)


# ---------------------------------------------------------------------------
# separation


def test_separation_cantor_verified_with_gap():
    verdict = check_separation(cantor_ifs(), level=8)
    assert verdict.status == "ssc-verified"
    assert verdict.witness_gap == pytest.approx(1.0 / 3.0, abs=0.01)


def test_separation_cantor_deep_level_pinned():
    # the level-1 hulls [0, 1/3] and [2/3, 1] are apart, so the check closes there
    verdict = check_separation(cantor_ifs(), level=15)
    assert verdict == SeparationVerdict("ssc-verified", ((0,), (1,)), 0.33333333333333337, 1, 1, 0)


def test_separation_identical_maps_overlap():
    mats = np.array([[[1.0 / 3.0]], [[1.0 / 3.0]]])
    ts = np.array([[0.1], [0.1]])
    ifs = IfsSystem(mats, ts, BernoulliWeights.uniform(2))
    verdict = check_separation(ifs, level=6)
    assert verdict.status == "overlap-detected"
    assert verdict.witness_gap == pytest.approx(0.0, abs=1e-12)
    assert verdict.level == 1


def test_separation_abutting_inconclusive():
    verdict = check_separation(segment_ifs(), level=8)
    assert verdict.status == "inconclusive"


def test_separation_single_map_has_no_witness():
    ifs = IfsSystem(np.array([[[0.5]]]), np.array([[0.25]]), BernoulliWeights.uniform(1))
    verdict = check_separation(ifs, level=4)
    assert verdict == SeparationVerdict("ssc-verified", None, None, 1, 0, 0)


def _random_maps(rng, n, d):
    """``n`` random contractions of R^d and their translations."""
    # independent singular values per map give unequal hull radii, so hulls
    # can be near one another and still apart
    mats = np.array([
        u @ np.diag(rng.uniform(0.05, 0.6, d)) @ vt
        for u, _, vt in (np.linalg.svd(rng.standard_normal((d, d))) for _ in range(n))
    ])
    return mats, rng.uniform(-1.0, 1.0, size=(n, d))


def _random_small_ifs(rng, kind):
    if kind == "digits":  # x/m + k/m on the line: cylinders touch, and some coincide deeper down
        m = int(rng.integers(2, 4))
        digits = rng.choice(2 * m, size=int(rng.integers(2, 4)), replace=False)
        return IfsSystem(np.full((digits.size, 1, 1), 1.0 / m), digits[:, None] / m,
                         BernoulliWeights.uniform(digits.size))
    d = int(rng.integers(1, 4))
    n = 1 if kind == "one-map" else int(rng.integers(2, 5))
    mats, ts = _random_maps(rng, n, d)
    if kind == "identical":
        mats[1], ts[1] = mats[0], ts[0]
    elif kind == "zero-translations":
        ts[:] = 0.0
    return IfsSystem(mats, ts, BernoulliWeights.uniform(n))


def test_hull_ball_is_the_least_invariant_ball():
    rng = np.random.default_rng(2023)
    for trial in range(40):
        ifs = _random_small_ifs(rng, ["generic", "identical", "digits"][trial % 3])
        c, r = ifs.hull
        moved = np.linalg.norm(ifs.matrices @ c + ifs.translations - c, axis=1)
        reach = moved + ifs.top_singular_values * r  # f_i(B(c, r)) lies in B(c, reach_i)
        assert np.all(reach <= r * (1.0 + 1e-12)), trial
        assert reach.max() == pytest.approx(r, rel=1e-12), trial
        # oracle: each fixed point solves (I - A_i) x = t_i on its own
        fixed = np.array([np.linalg.solve(np.eye(ifs.d) - a, t)
                          for a, t in zip(ifs.matrices, ifs.translations)])
        assert np.all(np.linalg.norm(fixed - c, axis=1) <= r * (1.0 + 1e-12)), trial


def _first_symbol_distance(ifs, seed):
    """Smallest distance between sampled points of different first symbols, less their error."""
    cloud = sample_measure(ifs, 400, 40, rng=seed)
    first = _drawn_words(ifs, 400, 40, seed)[:, 0]
    cross = first[:, None] != first[None, :]
    dist = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=-1)
    return dist[cross].min() - 2.0 * cloud.errors.max()


def _retired_gaps(tables, near, n_maps):
    """Gap of every pair that is apart at its level while its parent pair was near."""
    found, parents = [], None
    for (_, i, j, gaps, _), k in zip(tables, near):
        # a level-n row r has parent row r // N, one level up
        kept = np.ones(i.size, bool) if parents is None else np.array(
            [(a // n_maps, b // n_maps) in parents for a, b in zip(i.tolist(), j.tolist())])
        found.extend(gaps[kept & ~k].tolist())
        parents = set(zip(i[k].tolist(), j[k].tolist()))
    return found


def test_separation_matches_brute_force_on_random_systems():
    # each verdict is the one the whole-level table gives at the level where it closed
    rng = np.random.default_rng(2024)
    kinds = ["generic", "generic", "one-map", "identical", "zero-translations", "digits"]
    seen = set()
    for trial in range(72):
        ifs = _random_small_ifs(rng, kinds[trial % len(kinds)])
        level = int(rng.integers(1, 5 if ifs.n_maps < 4 else 4))
        verdict = check_separation(ifs, level)
        seen.add((verdict.status, verdict.level < level))
        assert 1 <= verdict.level <= level, trial
        scale = 1.0 + ifs.bounding_radius
        guard, resolution = 1e-12 * scale, 1e-9 * scale
        if ifs.n_maps == 1:
            assert verdict == SeparationVerdict("ssc-verified", None, None, 1, 0, 0), trial
            continue
        tables = [separation_table(ifs, n) for n in range(1, verdict.level + 1)]
        near = [gaps <= guard for _, _, _, gaps, _ in tables]
        # level 1 forms every pair of maps, and each later level N^2 per near pair
        n = ifs.n_maps
        formed = n * (n - 1) // 2 + n**2 * sum(int(k.sum()) for k in near[:-1])
        assert verdict.pairs_formed == formed, trial
        assert all(k.any() for k in near[:-1]), trial  # no earlier level had every pair apart
        assert not any((k & c).any() for k, (*_, c) in zip(near[:-1], tables)), trial
        words, i, j, gaps, coincide = tables[-1]
        pairs = [(tuple(words[a]), tuple(words[b])) for a, b in zip(i.tolist(), j.tolist())]
        assert verdict.near_pairs == int(near[-1].sum()), trial
        if verdict.status == "ssc-verified":
            assert not near[-1].any(), trial
            # the witness is a pair as it was retired, and a lower bound for every pair after it
            w_words, w_i, w_j, w_gaps, _ = tables[len(verdict.witness_words[0]) - 1]
            k = [(tuple(w_words[a]), tuple(w_words[b])) for a, b in zip(w_i, w_j)].index(
                verdict.witness_words)
            assert verdict.witness_gap == w_gaps[k] > guard, trial
            assert verdict.witness_gap == min(_retired_gaps(tables, near, n)), trial
            assert gaps.min() >= verdict.witness_gap - guard, trial
            assert _first_symbol_distance(ifs, trial) >= verdict.witness_gap - guard, trial
        elif verdict.status == "overlap-detected":
            hit = near[-1] & coincide
            k = pairs.index(verdict.witness_words)
            assert hit[k] and verdict.witness_gap <= resolution, trial
        else:
            assert verdict.level == level and not (near[-1] & coincide).any(), trial
            closest = np.flatnonzero(gaps == gaps[near[-1]].min())[0]  # pairs are in word order
            assert verdict.witness_gap == gaps[closest] <= guard, trial
            assert verdict.witness_words == pairs[closest], trial
    statuses = {status for status, _ in seen}
    assert statuses == {"ssc-verified", "overlap-detected", "inconclusive"}
    assert ("ssc-verified", True) in seen and ("overlap-detected", True) in seen


@given(st.integers(0, 2**32 - 1), st.sampled_from(["generic", "identical", "digits"]),
       st.integers(1, 4))
@settings(max_examples=120, deadline=None)
def test_property_refinement_decides_what_the_table_decides(seed, kind, level):
    # nested hulls: refinement can only decide sooner than the whole-level
    # table on the same hulls, never differently
    ifs = _random_small_ifs(np.random.default_rng(seed), kind)
    if ifs.n_maps ** level > 256:
        level = 2
    _, _, _, gaps, coincide = separation_table(ifs, level)
    verdict = check_separation(ifs, level)
    assert verdict.level <= level
    if np.all(gaps > 1e-12 * (1.0 + ifs.bounding_radius)):
        assert verdict.status == "ssc-verified"
    if coincide.any():
        assert verdict.status == "overlap-detected"


def _overlap_ifs(shift=0.0):
    """Two maps ``x/3 + 0.1`` and ``x/3 + 0.1 + shift``."""
    return IfsSystem(np.array([[[1.0 / 3.0]], [[1.0 / 3.0]]]), np.array([[0.1], [0.1 + shift]]),
                     BernoulliWeights.uniform(2))


def _thirds_ifs():
    """``x/3 + {0, 1, 3}``: the words ``02`` and ``10`` are the same map ``x/9 + 1``."""
    return IfsSystem(np.full((3, 1, 1), 1.0 / 3.0), np.array([[0.0], [1.0], [3.0]]),
                     BernoulliWeights.uniform(3))


@pytest.mark.parametrize("ifs, level, status, closes, witness", [
    (bm_carpet_ifs(), 60, "inconclusive", None, None),
    (segment_ifs(), 60, "inconclusive", None, None),
    (load_config(CONFIG_DIR / "overlap.json").ifs, 15, "overlap-detected", 1, ((0,), (1,))),
    (_thirds_ifs(), 15, "overlap-detected", 2, ((0, 2), (1, 0))),
    (_overlap_ifs(1e-13), 15, "overlap-detected", 1, ((0,), (1,))),
], ids=["bm", "segment", "overlap", "thirds", "near-overlap"])
def test_separation_overlap_needs_coinciding_maps(ifs, level, status, closes, witness):
    # touching cells have near pairs at every depth, whose hull centres come
    # within any fixed distance; only maps that agree at their own scale overlap
    verdict = check_separation(ifs, level)
    assert verdict.status == status
    if closes is not None:
        assert (verdict.level, verdict.witness_words) == (closes, witness)


@pytest.mark.parametrize("ifs, status, level", [
    (cantor_dust_ifs(), "ssc-verified", 1),  # four pairs of maps tie at the smallest gap
    (bm_carpet_ifs(((0, 0), (1, 0), (0, 1), (1, 1)), 2, 2), "inconclusive", 3),  # 16 near pairs tie
], ids=["dust", "square"])
def test_separation_ties_go_to_the_first_pair_in_word_order(ifs, status, level):
    verdict = check_separation(ifs, 3)
    assert (verdict.status, verdict.level) == (status, level)
    words, i, j, gaps, _ = separation_table(ifs, level)
    ties = np.flatnonzero(gaps == gaps.min())
    assert ties.size > 1
    k = ties[0]  # the table's pairs are in word order
    assert verdict.witness_words == (tuple(words[i[k]]), tuple(words[j[k]]))
    assert verdict.witness_gap == gaps[k]


def _six_map_grid_ifs():
    """``0.3 x`` at the six points of a 3 x 2 grid spaced 0.35 in the plane."""
    ts = np.array([[0.35 * i, 0.35 * j] for j in range(2) for i in range(3)])
    return IfsSystem(np.tile(0.3 * np.eye(2), (6, 1, 1)), ts, BernoulliWeights.uniform(6))


@pytest.mark.parametrize("ifs", [_six_map_grid_ifs(), kp_sponge_ifs()], ids=["six-map", "sponge"])
def test_separation_of_many_maps_closes_early(ifs):
    verdict = check_separation(ifs, 8)
    assert verdict.status == "ssc-verified" and verdict.level <= 2


def test_separation_budget_counts_pairs_formed():
    ifs = bm_carpet_ifs()
    free = check_separation(ifs, 12)
    assert (free.status, free.level) == ("inconclusive", 12)
    # a level is refined only while the pairs it forms keep the count within the budget
    assert check_separation(ifs, 12, free.pairs_formed) == free
    tight = check_separation(ifs, 12, free.pairs_formed - 1)
    assert tight.level == 11 and tight == check_separation(ifs, 11)
    # the pairs of maps are always formed
    assert check_separation(ifs, 12, 0) == check_separation(ifs, 1)
    assert check_separation(ifs, 1).pairs_formed == 3


def _uneven_segment_ifs():
    """``[0, 1]`` cut at 0.4: the maps ``0.4 x`` and ``0.6 x + 0.4``."""
    return IfsSystem(np.array([[[0.4]], [[0.6]]]), np.array([[0.0], [0.4]]),
                     BernoulliWeights.uniform(2))


@pytest.mark.parametrize("ifs, closes, formed, near", [
    (segment_ifs(), 38, 149, 1),  # hull radii 2^-38 R_c fall below the guard first
    (bm_carpet_ifs(), 37, 618_591, 45_056),  # the budget stops it while radii are 2^-37 R_c
    # near pairs of 0.6^k-scale cylinders keep radii above the guard until the
    # budget stops it, though the smallest fell below it at level 30
    (_uneven_segment_ifs(), 47, 625_369, 156_304),
], ids=["segment", "bm", "uneven-segment"])
def test_separation_stops_once_near_hulls_are_below_the_guard(ifs, closes, formed, near):
    # once every near pair's hulls are smaller than the guard, their centres
    # lie within three guards, where rounding would decide: touching cells close there
    verdict = check_separation(ifs, 60)
    assert verdict.status == "inconclusive"
    assert (verdict.level, verdict.pairs_formed, verdict.near_pairs) == (closes, formed, near)
    assert check_separation(ifs, closes - 1).level == closes - 1


def test_separation_deep_level_stays_within_the_budget():
    # touching cells: the near pairs grow with depth until the budget stops them
    verdict, peak = traced_peak(check_separation, bm_carpet_ifs(), 60)
    assert verdict.status == "inconclusive" and verdict.level < 60
    assert verdict.pairs_formed <= cocycle.PRODUCT_BUDGET
    assert peak < 30e6, peak


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
    # the same seed and law draw the same words for both systems
    base = sample_measure(ifs, 500, 25, rng=31)
    lifted_cloud = sample_measure(lifted.ifs, 500, 25, rng=31)
    assert np.array_equal(lifted_cloud.points[:, :2], base.points)


# ---------------------------------------------------------------------------
# projections of clouds


def test_project_full_space_isometric():
    cloud = sample_measure(bm_carpet_ifs(), 200, 20, rng=37)
    v = SubspaceFrame(np.eye(2))
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
    axis = project_cloud(dust, SubspaceFrame(np.eye(2)[:, [0]]))
    line = sample_measure(cantor_ifs(), 20_000, 30, rng=47)
    ks = stats.ks_2samp(axis.points[:, 0], line.points[:, 0]).statistic
    assert ks < 0.03


def test_project_bm_carpet_row_marginal():
    ifs = bm_carpet_ifs()  # rows 0,0,1 -> marginal (2/3, 1/3)
    cloud = sample_measure(ifs, 30_000, 30, rng=53)
    rows = project_cloud(cloud, SubspaceFrame(np.eye(2)[:, [1]]))
    frac_low = np.mean(rows.points[:, 0] < 0.5)
    assert frac_low == pytest.approx(2.0 / 3.0, abs=0.01)


def test_project_shares_frozen_errors():
    cloud = sample_measure(bm_carpet_ifs(), 300, 20, rng=59)
    proj = project_cloud(cloud, SubspaceFrame(np.eye(2)[:, [0]]))
    assert np.shares_memory(proj.errors, cloud.errors)
    assert not proj.errors.flags.writeable
    assert proj.depth == cloud.depth == 20


def test_project_keeps_the_fresh_projection(monkeypatch):
    cloud = sample_measure(bm_carpet_ifs(), 300, 20, rng=67)
    copied = _record_copies(monkeypatch)
    frame = SubspaceFrame.from_span(np.array([1.0, 2.0]))
    proj = project_cloud(cloud, frame)
    assert copied == []
    assert np.array_equal(proj.points, cloud.points @ frame.frame)
    assert proj.points.flags.owndata and not proj.points.flags.writeable


def test_point_cloud_copies_writeable_input():
    points = np.zeros((4, 2))
    errors = np.full(4, 1e-9)
    cloud = PointCloud(points, errors, 3)
    assert not np.shares_memory(cloud.points, points)
    assert not np.shares_memory(cloud.errors, errors)
    errors[0] = 1.0
    assert cloud.errors[0] == 1e-9
    # a read-only view does not own its data, so it is copied too
    base = np.full(4, 1e-9)
    view = base[:]
    view.flags.writeable = False
    assert not np.shares_memory(PointCloud(points, view, 3).errors, base)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_cloud_rejects_non_finite_points(bad):
    with pytest.raises(ValueError, match="point 1 has non-finite"):
        PointCloud([[0.0], [bad], [1.0]], None, None)


# ---------------------------------------------------------------------------
# local dimension


def test_local_dimension_segment_is_one():
    cloud = sample_measure(segment_ifs(), 40_000, 45, rng=59)
    report = local_dimension_estimate(cloud, measure.default_radii(cloud), n_centers=48, rng=61)
    assert report.median == pytest.approx(1.0, abs=0.05)


def test_local_dimension_cantor():
    cloud = sample_measure(cantor_ifs(), 60_000, 40, rng=67)
    report = local_dimension_estimate(cloud, measure.default_radii(cloud), n_centers=64, rng=71)
    assert report.median == pytest.approx(CANTOR_DIM, abs=0.03)


def test_local_dimension_dirac_zero():
    ifs = cantor_ifs(weights=[1.0, 0.0])
    cloud = sample_measure(ifs, 500, 40, rng=73)
    report = local_dimension_estimate(cloud, measure.default_radii(cloud), rng=79)
    assert report.median == 0.0


@pytest.mark.parametrize("bad", [-0.01, np.inf, 0.0, np.nan],
                         ids=["negative", "infinite", "zero", "nan"])
def test_local_dimension_rejects_radius_not_finite_and_positive(bad, monkeypatch):
    def no_counting(*args):
        raise AssertionError("balls were counted before the radii were checked")

    monkeypatch.setattr(measure, "_ball_counts", no_counting)
    cloud = PointCloud(np.random.default_rng(5).uniform(0.0, 1.0, (300, 2)), None, None)
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
    cloud = PointCloud(pts, None, None)
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
    cloud = PointCloud(rng.uniform(0.0, 1.0, size=(200_000, 2)), None, None)
    radii = 0.07 * 0.85 ** np.arange(20)
    report = local_dimension_estimate(cloud, radii, n_centers=64, rng=89)
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
    # the extremes of the first coordinate put runs at both ends of the sorted cloud
    center_idx = np.concatenate([[np.argmin(pts[:, 0]), np.argmax(pts[:, 0])],
                                 rng.choice(pts.shape[0], 24, replace=False)])
    # exact centre-to-point distances, their neighbours, and a geometric grid
    dist = np.linalg.norm(pts[rng.choice(pts.shape[0], 48)] - pts[np.resize(center_idx, 48)], axis=1)
    dist = dist[dist > 0]
    radii = np.unique(np.concatenate([
        dist, np.nextafter(dist, 0.0), np.nextafter(dist, np.inf),
        np.ptp(pts, axis=0).max() * 0.8 ** np.arange(40),
    ]))
    want = _tree_counts(pts, center_idx, radii)
    # descending as the estimator passes them, ascending, and shuffled
    for order in (np.arange(radii.size)[::-1], np.arange(radii.size), rng.permutation(radii.size)):
        assert np.array_equal(_ball_counts(pts, center_idx, radii[order]), want[:, order])
    # the family is adversarial: comparing the norm with r misses the tree's rule somewhere
    assert np.any(_norm_sort_counts(pts, center_idx, radii) != want)


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


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_property_ball_counts_equal_brute_force(data):
    # a dyadic grid: with few bits every squared distance is exact and points
    # tie on spheres; with many, the sums round
    d = data.draw(st.integers(1, 3))
    bits = data.draw(st.integers(1, 30))
    scale = 2.0 ** data.draw(st.integers(-40, 4))
    coord = st.integers(0, (1 << bits) - 1)
    rows = data.draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=2, max_size=120))
    pts = np.array(rows, dtype=float) * scale
    repeat = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=80))
    pts = np.concatenate([pts, pts[repeat]])
    every = st.integers(0, pts.shape[0] - 1)
    center_idx = np.array(data.draw(st.lists(every, min_size=1, max_size=8)))
    others = np.array(data.draw(st.lists(every, min_size=1, max_size=8)))
    # exact centre-to-point distances and their neighbours, in random order
    dist = np.sqrt(_in_order_squared(pts, center_idx[:, None], others[None, :])).ravel()
    dist = np.concatenate([dist, np.nextafter(dist, 0.0), np.nextafter(dist, np.inf)])
    radii = np.array(data.draw(st.permutations(np.unique(dist[dist > 0]).tolist() or [1.0])))
    sq = _in_order_squared(pts, center_idx[:, None], np.arange(pts.shape[0])[None, :])
    want = (sq[:, :, None] <= radii * radii).sum(axis=1) - 1
    assert np.array_equal(_ball_counts(pts, center_idx, radii), want)


def test_ball_counts_memory_stays_bounded():
    # the sorted coordinates are gathered in blocks, straight into their
    # rows (the cloud's points hold 3.2 MB)
    cloud = _bm_cloud()
    centers = np.random.default_rng(5).choice(cloud.m, 64, replace=False)
    counts, peak = traced_peak(_ball_counts, cloud.points, centers, measure.default_radii(cloud))
    assert counts.shape == (64, 24)
    assert peak < 5.7e6, peak


def test_searches_keep_a_point_past_the_rounded_bound():
    # (x - c)**2 <= r * r, yet c + r rounds one ulp below x: a window
    # bounded by c + r would drop the point
    c, r, x = 0.9050025708181295, 2.0877087174604094, 2.992711288278539
    assert (x - c) ** 2 <= r * r and x == np.nextafter(c + r, np.inf)
    pts = np.array([[c, 0.0], [x, 0.0]])
    assert _tree_counts(pts, np.array([0]), np.array([r])).tolist() == [[1]]
    assert _ball_counts(pts, np.array([0]), np.array([r])).tolist() == [[1]]


def _in_order_squared(pts, i, j):
    """Squared distances summed coordinate by coordinate, the tree's order for d < 8."""
    return sum((pts[i, k] - pts[j, k]) ** 2 for k in range(pts.shape[1]))


def _split(rng, n, groups):
    labels = rng.integers(0, groups, n)
    return [np.flatnonzero(labels == g) for g in range(groups)]


def _sorted_pairs(i, j, dist):
    order = np.lexsort((j, i))
    return i[order], j[order], dist[order].view(np.int64)


def _pair_squared(pts, a, b, block):
    """:func:`_squared_distances` of the pairs ``(a[k], b[k])``, in calls of ``block`` pairs.

    The separation check passes index arrays into one row per coordinate, as
    here; its near set, and so the batch a pair is in, changes level by level.
    """
    cols = pts.T
    step = block or max(a.size, 1)
    return np.concatenate([_squared_distances(cols[:, a[s:s + step]], cols[:, b[s:s + step]])
                           for s in range(0, a.size, step)])


def _every_cross_pair(groups):
    """Every pair of indices in different groups, as ``(i, j)`` with ``i < j``."""
    found = [(ga.repeat(gb.size), np.tile(gb, ga.size)) for ga, gb in itertools.combinations(groups, 2)]
    i, j = (np.concatenate(col) for col in zip(*found))
    return np.minimum(i, j), np.maximum(i, j)


def _tree_cross_pairs(pts, groups, r):
    """Cross-group pairs straight from ``cKDTree.sparse_distance_matrix``."""
    trees = [cKDTree(pts[g]) for g in groups]
    found = []
    for a, b in itertools.combinations(range(len(groups)), 2):
        near = trees[a].sparse_distance_matrix(trees[b], r, output_type="ndarray")
        i, j = groups[a][near["i"]], groups[b][near["j"]]
        found.append((np.minimum(i, j), np.maximum(i, j), near["v"]))
    return [np.concatenate(col) for col in zip(*found)]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 9])  # from d = 8 the tree sums in four accumulators
@pytest.mark.parametrize("kind", ["uniform", "dyadic", "clusters", "cumsum"])
@pytest.mark.parametrize("block", [None, 97])
def test_cross_pairs_equal_the_tree(d, kind, block):
    # the separation check's pair distances, in one call or in many: every
    # cross-group pair within r, and its distance, as the KD-tree finds them
    rng = np.random.default_rng(9300 + 10 * d)
    pts = _cloud(kind, rng, d, n=600)
    groups = _split(rng, pts.shape[0], 3)
    i, j = _every_cross_pair(groups)
    sq = _pair_squared(pts, i, j, block)
    # exact distances to near cross-group points, their neighbours, and a coarse radius
    a = groups[0][:6]
    near = _in_order_squared(pts, a[:, None], groups[1][None, :])
    dist = np.sqrt(np.sort(near, axis=1)[:, :2].ravel())
    dist = np.unique(dist[dist > 0])
    radii = np.concatenate([dist, np.nextafter(dist, 0.0), np.nextafter(dist, np.inf),
                            [0.0, 0.02 * np.ptp(pts, axis=0).max()]])
    for r in radii[::-1]:
        keep = sq <= r * r  # the tree's rule
        got = _sorted_pairs(i[keep], j[keep], np.sqrt(sq[keep]))
        want = _sorted_pairs(*_tree_cross_pairs(pts, groups, r))
        for g, w in zip(got, want):  # the same pairs, and distances with the same bits
            assert np.array_equal(g, w), r


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 9])  # from d = 8 the tree sums in four accumulators
@pytest.mark.parametrize("kind", ["uniform", "dyadic", "clusters", "cumsum"])
@pytest.mark.parametrize("block", [None, 1000])
def test_nearest_equals_the_tree(d, kind, block):
    # each point's nearest in the other group by the check's distances and its
    # witness rule: the smallest value, ties to the first pair in word order
    rng = np.random.default_rng(9400 + 10 * d)
    pts = _cloud(kind, rng, d, n=1200)
    ga, gb = _split(rng, pts.shape[0], 2)
    a, b = ga.repeat(gb.size), np.tile(gb, ga.size)
    dist = np.sqrt(_pair_squared(pts, a, b, block))
    words = np.arange(pts.shape[0])[:, None]  # one-symbol words, in word order
    rows = dist.reshape(ga.size, gb.size)
    found = [_first_pair(row, np.full(gb.size, k), gb, words) for k, row in zip(ga, rows)]
    assert [pair[0] for _, pair in found] == [(k,) for k in ga.tolist()]
    got = np.array([pair[1][0] for _, pair in found])
    value = np.array([v for v, _ in found])
    # brute force: the smallest distance, ties to the lowest index
    assert np.array_equal(got, gb[np.argmin(rows, axis=1)])
    if d < 8:
        sq = _in_order_squared(pts, ga[:, None], gb[None, :])
        assert np.array_equal(rows.view(np.int64), np.sqrt(sq).view(np.int64))
    tree_dist, k = cKDTree(pts[gb]).query(pts[ga], k=1)
    assert np.array_equal(value.view(np.int64), tree_dist.view(np.int64))
    # the tree breaks exact ties its own way; indices may differ only there
    differ = np.flatnonzero(got != gb[k])
    assert np.array_equal(rows[differ, k[differ]], value[differ])
    # over every pair at once: the first row at the smallest value, and its nearest
    first = int(np.argmin(value))
    assert _first_pair(dist, a, b, words) == (value[first], ((int(ga[first]),), (int(got[first]),)))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bounding_box_equals_axis_reductions(d):
    rng = np.random.default_rng(60 + d)
    pts = rng.standard_normal((5000, d)) * 10.0 ** rng.integers(-3, 4, d)
    pts[rng.integers(0, 5000, 50)] = 0.0
    pts[rng.integers(0, 5000, 50)] = -0.0
    cloud = PointCloud(pts, None, None)
    lo, hi = cloud.bounding_box
    assert lo.tobytes() == pts.min(axis=0).tobytes()
    assert hi.tobytes() == pts.max(axis=0).tobytes()
    old_diameter = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    assert cloud.diameter.hex() == old_diameter.hex()
    # the box-counting grid anchor: the same cells as the axis-0 minimum gives
    eps = cloud.diameter / 37.0
    assert np.array_equal(np.floor((pts - lo) / eps), np.floor((pts - pts.min(axis=0)) / eps))


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
    assert np.array_equal(_cell_counts(cells.T.copy()), want)


def test_cell_counts_with_huge_columns():
    # a column too wide to fold even into a re-ranked key is ranked itself
    rng = np.random.default_rng(211)
    cells = rng.integers(0, 2**62, size=(400, 3))
    cells = np.concatenate([cells, cells[:100], cells[:40] // 2])
    _, want = np.unique(cells, axis=0, return_counts=True)
    assert np.array_equal(_cell_counts(cells.T.copy()), want)


def test_box_counting_diagonal_in_r8_unchanged():
    # the finest default box size has 468 cells per axis, 468^8 > 2^63
    t = np.random.default_rng(0).random(20_000)
    cloud = PointCloud(t[:, None] * np.ones(8), None, None)
    rep = box_counting_dimension(cloud)
    eps = rep.eps[-1]
    assert _plain_key_overflows(np.floor((cloud.points - cloud.points.min(axis=0)) / eps)
                                .astype(np.int64))
    assert rep.dimension == float.fromhex("0x1.f58a96b30cb63p-1")  # 0.97957...


def test_box_cells_truncated_equal_floor(monkeypatch):
    seen = []

    def record(columns):
        columns = list(columns)
        seen.append(np.column_stack(columns))  # a copy: the count may overwrite the columns
        return _cell_counts(columns)

    monkeypatch.setattr(measure, "_cell_counts", record)
    rng = np.random.default_rng(131)
    # a 3 x 4 box, so the diameter is 5 and the largest box size 1: the
    # coordinates, all multiples of 1/64, put cell edges on points
    pts = np.column_stack([rng.integers(-192, 1, 4000) / 64.0, rng.integers(0, 257, 4000) / 64.0])
    pts[:, 1] += np.where(rng.uniform(-1.0, 1.0, 4000) < 0.0, -0.0, 0.0)
    pts[:2] = [[-3.0, 4.0], [0.0, 0.0]]  # the box's corners
    pts[2:52] = [-3.0, 0.0]  # points on the min corner
    pts[52:102, 1] = -0.0  # the column's min is 0.0 or -0.0, whichever min meets first
    cloud = PointCloud(pts, None, None)
    assert cloud.bounding_box[0][1] == 0.0 and cloud.diameter == 5.0
    box_counting_dimension(cloud)
    eps = 1.0 * measure.DEFAULT_RADII_RATIO ** np.arange(measure.BOX_SIZES)
    offsets = pts - cloud.bounding_box[0]
    assert (offsets >= 0.0).all() and np.signbit(offsets).any()  # -0.0 offsets occur
    for e, cells in zip(eps, seen, strict=True):
        assert np.array_equal(cells, np.floor(offsets / e).astype(np.int64))


def test_box_counting_memory_stays_bounded():
    # cells are formed one coordinate at a time: no (m, d) float or int64
    # array is made for any box size (the cloud's points hold 3.2 MB)
    cloud = _bm_cloud()
    rep, peak = traced_peak(box_counting_dimension, cloud)
    assert rep.dimension == pytest.approx(1.34, abs=0.05)
    assert peak < 6.5e6, peak


def test_box_counting_cantor():
    cloud = sample_measure(cantor_ifs(), 80_000, 35, rng=107)
    rep = box_counting_dimension(cloud)
    assert rep.dimension == pytest.approx(CANTOR_DIM, abs=0.05)


def test_box_counting_uniform_square():
    rng = np.random.default_rng(109)
    cloud = PointCloud(rng.uniform(0.0, 1.0, size=(100_000, 2)), None, None)
    rep = box_counting_dimension(cloud)
    assert rep.dimension == pytest.approx(2.0, abs=0.05)


def test_box_counting_dirac_zero():
    ifs = cantor_ifs(weights=[1.0, 0.0])
    cloud = sample_measure(ifs, 500, 40, rng=113)
    assert box_counting_dimension(cloud).dimension == 0.0


def test_box_counting_occupancy_guard():
    # 100 points in the largest boxes, diam / 5, already average below 5 a box
    rng = np.random.default_rng(127)
    cloud = PointCloud(rng.uniform(0.0, 1.0, size=(100, 2)), None, None)
    with pytest.raises(ValueError, match="fewer than 4 usable box sizes"):
        box_counting_dimension(cloud)
