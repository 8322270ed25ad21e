"""Tests for word sampling, cocycle products, spectra, and flag sampling."""

import warnings

import numpy as np
import pytest
from scipy import stats

from affinedim import cocycle
from affinedim.cocycle import (
    BernoulliWeights,
    LyapunovSpectrum,
    entropy,
    exterior_partial_sum_estimate,
    furstenberg_sample,
    furstenberg_step,
    lyapunov_spectrum,
    oseledets_fast_flag,
    sample_word,
    word_product,
)
from affinedim.errors import SpectralGapError
from affinedim.linalg import SubspaceFrame, principal_angle_distance


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def line_angle(frame: SubspaceFrame) -> float:
    v = frame.frame[:, 0]
    return float(np.arctan2(v[1], v[0]) % np.pi)


DIAG_PAIR = (np.diag([1.0 / 3.0, 0.5]), np.diag([1.0 / 3.0, 0.5]))


# ---------------------------------------------------------------------------
# words and entropy


def test_sample_word_degenerate_weights():
    w = BernoulliWeights(np.array([1.0, 0.0]))
    word = sample_word(w, 5, rng=0)
    assert np.array_equal(word, np.zeros(5, dtype=word.dtype))


def test_sample_word_uniform_frequency():
    w = BernoulliWeights.uniform(2)
    word = sample_word(w, 100_000, rng=42)
    freq = np.mean(word == 0)
    assert abs(freq - 0.5) < 0.01  # ~3 binomial sigma is 0.0047


def test_sample_word_deterministic():
    w = BernoulliWeights(np.array([0.3, 0.7]))
    assert np.array_equal(sample_word(w, 100, rng=7), sample_word(w, 100, rng=7))


def test_sample_word_rejects_zero_length():
    with pytest.raises(ValueError):
        sample_word(BernoulliWeights.uniform(2), 0, rng=0)


def test_weights_validation():
    with pytest.raises(ValueError):
        BernoulliWeights(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        BernoulliWeights(np.array([-0.1, 1.1]))
    assert BernoulliWeights.uniform(3).strictly_positive
    assert not BernoulliWeights(np.array([1.0, 0.0])).strictly_positive


def test_word_product_single_and_empty():
    maps = [np.diag([0.5, 0.2]), np.array([[0.1, 0.3], [0.0, 0.4]])]
    assert np.allclose(word_product(maps, [1]), maps[1])
    assert np.allclose(word_product(maps, []), np.eye(2))


def test_word_product_diagonal_order():
    maps = [np.diag([0.2, 0.3]), np.diag([0.5, 0.7])]
    assert np.allclose(word_product(maps, [0, 1]), np.diag([0.1, 0.21]))


def test_entropy_values():
    assert entropy(BernoulliWeights.uniform(3)) == pytest.approx(np.log(3))
    assert entropy(BernoulliWeights(np.array([1.0, 0.0]))) == 0.0
    w = BernoulliWeights(np.array([2.0 / 3.0, 1.0 / 3.0]))
    assert entropy(w) == pytest.approx(np.log(3) - (2.0 / 3.0) * np.log(2), rel=1e-12)


# ---------------------------------------------------------------------------
# Lyapunov spectrum


def test_spectrum_diagonal_oracle():
    spec = lyapunov_spectrum(DIAG_PAIR, BernoulliWeights.uniform(2), steps=1000, trials=4, rng=1)
    assert spec.exponents == pytest.approx([np.log(2), np.log(3)], abs=0.01)
    assert spec.multiplicities == (1, 1)
    assert spec.simple


def test_spectrum_swapped_diagonals_equalise():
    # per-coordinate rate: mean of log 2 and log 4 is 1.5 log 2, both axes
    maps = (np.diag([0.5, 0.25]), np.diag([0.25, 0.5]))
    spec = lyapunov_spectrum(maps, BernoulliWeights.uniform(2), steps=20_000, trials=8, rng=2)
    assert spec.exponents == pytest.approx([1.5 * np.log(2)] * 2, abs=0.02)
    assert spec.multiplicities == (2,)


def test_spectrum_conformal_multiplicity():
    maps = (0.5 * rotation(0.7),)
    spec = lyapunov_spectrum(maps, BernoulliWeights.uniform(1), steps=500, trials=2, rng=3)
    assert spec.exponents == pytest.approx([np.log(2)] * 2, abs=1e-9)
    assert spec.multiplicities == (2,)


def test_spectrum_conservation_matches_mean_log_det():
    rng = np.random.default_rng(11)
    maps = [0.6 * q for q in (rng.uniform(-1, 1, (3, 3)) for _ in range(2))]
    maps = [m / (1.5 * np.linalg.norm(m, 2)) for m in maps]
    w = BernoulliWeights(np.array([0.4, 0.6]))
    spec = lyapunov_spectrum(maps, w, steps=3000, trials=10, rng=5)
    expected = -sum(p * np.log(abs(np.linalg.det(m))) for p, m in zip(w.p, maps))
    combined_err = np.sqrt((spec.stderr**2).sum())
    assert abs(spec.exponents.sum() - expected) <= 3 * max(combined_err, 1e-12)


def test_spectrum_exterior_consistency():
    rng = np.random.default_rng(13)
    maps = [rng.uniform(-1, 1, (3, 3)) for _ in range(3)]
    maps = [0.8 * m / np.linalg.norm(m, 2) for m in maps]
    w = BernoulliWeights.uniform(3)
    spec = lyapunov_spectrum(maps, w, steps=4000, trials=10, rng=7)
    for p in (1, 2, 3):
        est, err = exterior_partial_sum_estimate(maps, w, p, steps=4000, trials=10, rng=17)
        partial = spec.exponents[:p].sum()
        spread = 3 * np.sqrt((spec.stderr[:p] ** 2).sum() + (err or 0.0) ** 2)
        assert abs(est - partial) <= max(spread, 0.02)


def test_spectrum_seeded_determinism():
    maps = (np.array([[0.5, 0.1], [0.0, 0.3]]), np.array([[0.2, 0.0], [0.1, 0.4]]))
    w = BernoulliWeights.uniform(2)
    a = lyapunov_spectrum(maps, w, steps=500, trials=3, rng=99)
    b = lyapunov_spectrum(maps, w, steps=500, trials=3, rng=99)
    assert np.array_equal(a.exponents, b.exponents)
    assert np.array_equal(a.trial_exponents, b.trial_exponents)


def test_spectrum_rejects_expanding_map():
    with pytest.raises(ValueError):
        lyapunov_spectrum((np.eye(2),), BernoulliWeights.uniform(1), 200, 1, rng=0)


def test_spectrum_rejects_short_run():
    with pytest.raises(ValueError):
        lyapunov_spectrum(DIAG_PAIR, BernoulliWeights.uniform(2), steps=50, trials=1, rng=0)


def test_exterior_partial_sum_rejects_empty_run():
    maps = (np.array([[0.5, 0.1], [0.0, 0.3]]),)
    w = BernoulliWeights.uniform(1)
    with pytest.raises(ValueError, match="steps"):
        exterior_partial_sum_estimate(maps, w, 1, steps=0, trials=3, rng=0)
    with pytest.raises(ValueError, match="trials"):
        exterior_partial_sum_estimate(maps, w, 1, steps=200, trials=0, rng=0)


def test_spectrum_type_invariants():
    with pytest.raises(ValueError):
        LyapunovSpectrum(np.array([0.5, 0.2]), None, (1, 1), 0.05)
    with pytest.raises(ValueError):
        LyapunovSpectrum(np.array([0.2, 0.5]), None, (1, 2), 0.05)
    with pytest.raises(ValueError):
        LyapunovSpectrum(np.array([-0.1, 0.5]), None, (1, 1), 0.05)


# ---------------------------------------------------------------------------
# frame propagation kernel and word draws


def _per_step_propagate(use, words, renorm_every, q0=None):
    """Reference kernel: gather, multiply and ``np.linalg.qr`` one step at a time."""
    q0 = np.eye(use.shape[1]) if q0 is None else np.asarray(q0, dtype=float)
    batch, steps = words.shape
    q = np.broadcast_to(q0, (batch,) + q0.shape[-2:]).copy()
    sums = np.zeros((batch, q.shape[2]))
    for t in range(steps):
        q = use[words[:, t]] @ q
        if (t + 1) % renorm_every == 0 or t == steps - 1:
            q, r = np.linalg.qr(q)
            sums += np.log(np.abs(np.diagonal(r, axis1=-2, axis2=-1)))
    return q, sums


def _start_frame(rng, kind, batch, d):
    k = max(1, d - 1)
    if kind is None:
        return None
    shape = (d, k) if kind == "dk" else (batch, d, k)
    return np.linalg.qr(rng.standard_normal(shape))[0]


# (steps, renorm_every): one step, a multiple of the interval, not a multiple,
# renorm every step, and an interval longer than the run
_STEP_CASES = [(1, 1), (1, 3), (12, 3), (13, 3), (13, 1), (5, 9)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", [None, "dk", "bdk"])
def test_propagate_bit_identical_to_per_step_qr(seed, kind, monkeypatch):
    rng = np.random.default_rng(5100 + seed)
    d, n_maps = 1 + seed % 4, 1 + (seed // 2 + seed) % 4
    use = rng.standard_normal((n_maps, d, d))
    for batch in (1, 7):
        q0 = _start_frame(rng, kind, batch, d)
        # the default chunk, one-step chunks, and 2-step chunks whose edges
        # fall inside the 3-step renorm blocks
        for chunk_steps in (None, 1, 2):
            if chunk_steps is not None:
                monkeypatch.setattr(cocycle, "_PROPAGATE_CHUNK_FLOATS", chunk_steps * batch * d * d)
            for steps, renorm_every in _STEP_CASES:
                words = rng.integers(0, n_maps, (batch, steps))
                q, sums = cocycle._propagate(use, words, renorm_every, q0)
                q_ref, sums_ref = _per_step_propagate(use, words, renorm_every, q0)
                assert np.array_equal(q, q_ref) and np.array_equal(sums, sums_ref)
            monkeypatch.undo()


def test_propagate_nan_frame_follows_the_reference(monkeypatch):
    rng = np.random.default_rng(5200)
    use = rng.standard_normal((2, 3, 3))
    q0 = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    q0[0, 0] = np.nan
    words = rng.integers(0, 2, (7, 13))
    monkeypatch.setattr(cocycle, "_PROPAGATE_CHUNK_FLOATS", 2 * 7 * 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, sums = cocycle._propagate(use, words, 3, q0)
        q_ref, sums_ref = _per_step_propagate(use, words, 3, q0)
    assert np.isnan(q).all() and np.isnan(sums).all()
    assert np.array_equal(q, q_ref, equal_nan=True)
    assert np.array_equal(sums, sums_ref, equal_nan=True)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 300])
@pytest.mark.parametrize("block", [1, 16, 37, 10**6])
def test_draw_words_matches_one_choice(n, block, monkeypatch):
    # blocks of 16 and 37 symbols split rows of 23 in different places
    monkeypatch.setattr(cocycle, "_WORD_BLOCK_SYMBOLS", block)
    default = cocycle._DRAW_COMPARE_MAX
    base = np.random.default_rng(n).uniform(0.0, 1.0, n)
    # a symbol that is never drawn: the first, the last, or an interior one
    for zero in sorted({0, n // 2, n - 1}) if n > 1 else [None]:
        p = base.copy()
        if zero is not None:
            p[zero] = 0.0
        p /= p.sum()
        # comparison passes up to the default alphabet size; searchsorted above
        # it, and for every alphabet when the crossover is 0
        for compare_max in (default, 0):
            monkeypatch.setattr(cocycle, "_DRAW_COMPARE_MAX", compare_max)
            for dtype in (np.min_scalar_type(n - 1), np.int64):
                gen = np.random.default_rng(77)
                words = cocycle._draw_words(gen, p, np.empty((9, 23), dtype=dtype))
                ref = np.random.default_rng(77)
                assert np.array_equal(words, ref.choice(n, size=(9, 23), p=p))
                assert words.dtype == dtype and (words != zero).all()
                # the generator is left where one draw leaves it
                assert gen.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("compare_max", [cocycle._DRAW_COMPARE_MAX, 0])
def test_draw_words_tie_goes_to_the_next_symbol(compare_max, monkeypatch):
    # a cdf edge equal to the generator's first double: searchsorted "right"
    # puts that draw in the next symbol
    monkeypatch.setattr(cocycle, "_DRAW_COMPARE_MAX", compare_max)
    u0 = np.random.default_rng(0).random()
    p = np.array([u0 / 2, u0 / 2, 1.0 - u0])
    assert p.cumsum()[1] == u0 and p.cumsum()[-1] == 1.0
    words = cocycle._draw_words(np.random.default_rng(0), p, np.empty(5, dtype=np.uint8))
    assert words[0] == 2
    assert np.array_equal(words, np.random.default_rng(0).choice(3, size=5, p=p))


def test_draw_words_widest_comparison_alphabet():
    # at the crossover the comparison count reaches 255, the largest uint8
    n = cocycle._DRAW_COMPARE_MAX
    p = np.ones(n)
    p[-1] = n
    p /= p.sum()
    words = cocycle._draw_words(np.random.default_rng(5), p, np.empty(400, dtype=np.int64))
    assert (words == n - 1).any()
    assert np.array_equal(words, np.random.default_rng(5).choice(n, size=400, p=p))


def test_sample_word_and_furstenberg_step_draw_as_choice():
    w = BernoulliWeights(np.array([0.25, 0.0, 0.5, 0.25]))
    assert np.array_equal(sample_word(w, 500, rng=3),
                          np.random.default_rng(3).choice(4, size=500, p=w.p))
    maps = [np.diag([0.5, 0.25]), np.array([[0.3, 0.1], [0.0, 0.4]]),
            np.diag([0.2, 0.6]), np.array([[0.4, 0.0], [0.2, 0.3]])]
    samples = furstenberg_sample(maps, w, 5, 40, rng=5, dims=(1,))
    stepped = furstenberg_step(maps, w, samples, rng=np.random.default_rng(7))
    want = np.random.default_rng(7).choice(4, size=40, p=w.p)
    assert [int(s.word_prefix[0]) for s in stepped] == want.tolist()


# ---------------------------------------------------------------------------
# fast flags


def test_fast_flag_diagonal_axis():
    word = sample_word(BernoulliWeights.uniform(2), 80, rng=21)
    chain = oseledets_fast_flag(DIAG_PAIR, word, depth=64)
    assert chain.dims == (1,)
    e2 = SubspaceFrame.coordinate(2, [1])
    assert principal_angle_distance(chain.frames[0], e2) <= 1e-8


def test_fast_flag_conformal_inconclusive():
    maps = (0.5 * rotation(0.3), 0.5 * rotation(1.1))
    word = sample_word(BernoulliWeights.uniform(2), 80, rng=22)
    with pytest.raises(SpectralGapError) as err:
        oseledets_fast_flag(maps, word, depth=64)
    assert err.value.observed_gap is not None
    assert err.value.observed_gap > 0.5


def test_fast_flag_equivariance_under_shift():
    # the 1-step shifted estimate matches the inverse image of the original
    maps = (np.array([[0.5, 0.2], [0.1, 0.4]]), np.array([[0.3, 0.05], [0.2, 0.35]]))
    word = sample_word(BernoulliWeights.uniform(2), 100, rng=23)
    depth = 90
    chain = oseledets_fast_flag(maps, word, depth=depth)
    shifted = oseledets_fast_flag(maps, word[1:], depth=depth - 1)
    a_inv = np.linalg.inv(maps[word[0]])
    pulled = SubspaceFrame.from_span(a_inv @ chain.frames[0].frame)
    assert principal_angle_distance(pulled, shifted.frames[0]) <= 1e-6


def test_fast_flag_three_dim_full_chain():
    maps = (np.diag([0.2, 0.35, 0.6]), np.diag([0.25, 0.4, 0.55]))
    word = sample_word(BernoulliWeights.uniform(2), 120, rng=24)
    chain = oseledets_fast_flag(maps, word, depth=100)
    assert chain.dims == (2, 1)
    # slowest contraction wins: 1-dim member is the last axis
    assert principal_angle_distance(chain.subspace(1), SubspaceFrame.coordinate(3, [2])) <= 1e-8
    assert principal_angle_distance(chain.subspace(2), SubspaceFrame.coordinate(3, [1, 2])) <= 1e-8


# ---------------------------------------------------------------------------
# stationary flags


def test_furstenberg_diagonal_dirac():
    samples = furstenberg_sample(
        DIAG_PAIR, BernoulliWeights.uniform(2), iterations=80, count=200, rng=31
    )
    e1 = SubspaceFrame.coordinate(2, [0])
    for s in samples:
        assert s.flag.dims == (1,)
        assert principal_angle_distance(s.flag.frames[0], e1) <= 1e-8


def test_furstenberg_single_map_dirac_at_eigenflag():
    a = 0.2 * np.array([[2.0, 1.0], [1.0, 1.0]])
    samples = furstenberg_sample(
        (a,), BernoulliWeights.uniform(1), iterations=120, count=16, rng=37
    )
    # power-iteration oracle for the attracting line of the inverse action
    v = np.array([1.0, 0.3])
    a_inv = np.linalg.inv(a)
    for _ in range(200):
        v = a_inv @ v
        v /= np.linalg.norm(v)
    target = SubspaceFrame.from_span(v)
    for s in samples:
        assert principal_angle_distance(s.flag.frames[0], target) <= 1e-10


def test_furstenberg_requires_gap():
    maps = (0.5 * rotation(0.4), 0.5 * rotation(1.3))
    with pytest.raises(SpectralGapError):
        furstenberg_sample(maps, BernoulliWeights.uniform(2), iterations=50, count=10, rng=41)


def test_furstenberg_stationarity_ks():
    rng = np.random.default_rng(43)
    maps = [0.5 * m / np.linalg.norm(m, 2) for m in rng.uniform(0.1, 1.0, (2, 2, 2))]
    w = BernoulliWeights.uniform(2)
    samples = furstenberg_sample(maps, w, iterations=100, count=4000, rng=47)
    pushed = furstenberg_step(maps, w, samples, rng=53)
    angles = [line_angle(s.flag.frames[0]) for s in samples]
    pushed_angles = [line_angle(s.flag.frames[0]) for s in pushed]
    ks = stats.ks_2samp(angles, pushed_angles).statistic
    assert ks < 0.05


def test_furstenberg_step_extends_word():
    samples = furstenberg_sample(
        DIAG_PAIR, BernoulliWeights.uniform(2), iterations=30, count=3, rng=59
    )
    pushed = furstenberg_step(DIAG_PAIR, BernoulliWeights.uniform(2), samples, rng=61)
    for old, new in zip(samples, pushed):
        assert new.word_prefix.size == old.word_prefix.size + 1
        assert np.array_equal(new.word_prefix[1:], old.word_prefix)


def test_furstenberg_deterministic():
    w = BernoulliWeights.uniform(2)
    a = furstenberg_sample(DIAG_PAIR, w, iterations=40, count=5, rng=67)
    b = furstenberg_sample(DIAG_PAIR, w, iterations=40, count=5, rng=67)
    for s, t in zip(a, b):
        assert np.array_equal(s.flag.frames[0].frame, t.flag.frames[0].frame)
        assert np.array_equal(s.word_prefix, t.word_prefix)


def test_furstenberg_explicit_dims_three_dim():
    maps = (np.diag([0.2, 0.35, 0.6]), np.diag([0.25, 0.4, 0.55]))
    samples = furstenberg_sample(
        maps, BernoulliWeights.uniform(2), iterations=100, count=8, rng=71, dims=(2, 1)
    )
    for s in samples:
        assert s.flag.dims == (2, 1)
        # fastest inverse growth is the first axis
        assert principal_angle_distance(
            s.flag.subspace(1), SubspaceFrame.coordinate(3, [0])
        ) <= 1e-8
