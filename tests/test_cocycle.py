"""Tests for word drawing, cocycle products, spectra, and flag sampling."""

import itertools
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import horner_block_codes, traced_peak, word_product
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from affinedim import cocycle
from affinedim.cocycle import (
    BernoulliWeights,
    LyapunovSpectrum,
    as_map_stack,
    entropy,
    furstenberg_sample,
    lyapunov_spectrum,
)
from affinedim.config import load_config
from affinedim.linalg import (
    FRAME_ORTHO_TOL,
    SubspaceFrame,
    exterior_power,
    principal_angle_distance,
    qr_positive,
)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def line_angles(frames: np.ndarray) -> np.ndarray:
    """Angle in [0, pi) of the line each sampled frame's first column spans."""
    return np.arctan2(frames[:, 1, 0], frames[:, 0, 0]) % np.pi


def assert_orthonormal_frames(frames: np.ndarray, count: int, d: int) -> None:
    assert frames.shape == (count, d, d)
    gram = frames.transpose(0, 2, 1) @ frames
    assert np.abs(gram - np.eye(d)).max() <= FRAME_ORTHO_TOL


DIAG_PAIR = (np.diag([1.0 / 3.0, 0.5]), np.diag([1.0 / 3.0, 0.5]))
PASCAL_HALF = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [1.0, 3.0, 6.0]]) / 8.0


# ---------------------------------------------------------------------------
# words and entropy


def _draw(weights, n, seed):
    """``n`` symbols drawn as every sampler draws its words."""
    return cocycle._draw_words(np.random.default_rng(seed), weights.p, np.empty(n, np.int64))


def test_sample_word_degenerate_weights():
    w = BernoulliWeights(np.array([1.0, 0.0]))
    assert np.array_equal(_draw(w, 5, 0), np.zeros(5, dtype=np.int64))


def test_sample_word_uniform_frequency():
    freq = np.mean(_draw(BernoulliWeights.uniform(2), 100_000, 42) == 0)
    assert abs(freq - 0.5) < 0.01  # ~3 binomial sigma is 0.0047


def test_sample_word_deterministic():
    w = BernoulliWeights(np.array([0.3, 0.7]))
    assert np.array_equal(_draw(w, 100, 7), _draw(w, 100, 7))


def test_weights_validation():
    with pytest.raises(ValueError):
        BernoulliWeights(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        BernoulliWeights(np.array([-0.1, 1.1]))


@pytest.mark.parametrize("maps", [
    [],
    # N vectors of length N stack into one N x N contraction, not N maps
    [np.array([0.5, 0.1]), np.array([0.2, 0.3])],
    [0.5 * np.eye(2), 0.5 * np.eye(3)],
], ids=["empty", "vectors", "ragged"])
def test_map_stack_refuses_what_is_not_a_stack(maps):
    with pytest.raises(ValueError):
        as_map_stack(maps)


def test_word_product_single_and_empty():
    maps = [np.diag([0.5, 0.2]), np.array([[0.1, 0.3], [0.0, 0.4]])]
    assert np.allclose(word_product(maps, [1]), maps[1])
    assert np.allclose(word_product(maps, []), np.eye(2))


def test_word_product_diagonal_order():
    maps = [np.diag([0.2, 0.3]), np.diag([0.5, 0.7])]
    assert np.allclose(word_product(maps, [0, 1]), np.diag([0.1, 0.21]))


def test_check_word_returns_flat_int64_and_keeps_empty_words():
    empty = cocycle._check_word([], 2)
    assert empty.dtype == np.int64 and empty.size == 0
    w = cocycle._check_word(np.array([[1, 0], [0, 1]], dtype=np.uint8), 2)
    assert w.dtype == np.int64 and w.tolist() == [1, 0, 0, 1]


@pytest.mark.parametrize("word, message", [
    ([0.7, 1.9], r"^words\[0\] is 0.7; words must have an integer dtype, not float64$"),
    ([True, False], r"^words\[0\] is True; words must have an integer dtype, not bool$"),
    ([0, 5], r"^words\[1\] is 5; symbols must be in 0..1$"),
    ([0, -1], r"^words\[1\] is -1; symbols must be in 0..1$"),
    (["1", "0"], r"^words\[0\] is '1'; words must have an integer dtype, not <U1$"),
], ids=["float", "bool", "too-large", "negative", "str"])
def test_check_word_rejects_words_that_are_not_symbols(word, message):
    with pytest.raises(ValueError, match=message):
        cocycle._check_word(word, 2)


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


@pytest.mark.parametrize("system", ["stp3", "random-3-map"])
def test_spectrum_columns_match_the_per_symbol_loop(system):
    # one column per compound order has no singular-value spread to lose:
    # every trial's rates lie within 1e-12 of a loop that renormalises after
    # every symbol (on stp3 a QR'd 3-frame at interval 7 is about 9e-9 off on chi_3)
    if system == "stp3":
        ifs = load_config(CONFIG_DIR / "stp3.json").ifs
        maps, weights = ifs.matrices, ifs.weights
    else:  # three random maps of norm 0.8
        rng = np.random.default_rng(13)
        maps = np.stack([0.8 * m / np.linalg.norm(m, 2) for m in rng.uniform(-1, 1, (3, 3, 3))])
        weights = BernoulliWeights.uniform(3)
    steps, trials, seed = 5_000, 12, np.random.SeedSequence(3).spawn(5)[0]
    spec = lyapunov_spectrum(maps, weights, steps, trials, rng=seed)
    words = cocycle._draw_words(np.random.default_rng(seed), weights.p,
                                np.empty((trials, steps), dtype=np.uint8))
    _, ref = _per_step_propagate(maps, words, 1)
    chi_ref = np.sort(-ref / steps, axis=1)
    assert np.abs(spec.trial_exponents / chi_ref - 1.0).max() <= 1e-12


def _edge_spectrum_case(name):
    """(maps, weights, steps) of a degenerate but legal spectrum input."""
    if name == "d1":  # no compound order below d: the counts alone
        return [np.array([[0.5]]), np.array([[0.25]])], [0.3, 0.7], 100
    if name == "one-map":
        return [np.array([[0.5, 0.3], [0.0, 0.25]])], [1.0], 150
    if name == "zero-weight":
        maps = [np.diag([0.5, 0.4, 0.3]), PASCAL_HALF, np.diag([0.2, 0.6, 0.5])]
        return maps, [0.5, 0.5, 0.0], 130
    if name == "300-maps":  # the block table holds one symbol: b = 1
        rng = np.random.default_rng(300)
        q = np.linalg.qr(rng.standard_normal((300, 2, 2)))[0]
        return list(0.5 * q @ np.diag([1.0, 0.6])), None, 120
    if name == "ragged":  # not a multiple of the 65- or 42-step interval
        return list(load_config(CONFIG_DIR / "stp3.json").ifs.matrices), None, 107
    # "hard": near the smallest singular value the floor allows, log range 26.9
    return [np.array([[0.5, 0.2, 0.0], [0.0, 0.4, 0.1], [0.0, 0.0, 0.3]]),
            np.diag([0.9, 0.9, 2e-12])], None, 1_001


@pytest.mark.parametrize("name", ["d1", "one-map", "zero-weight", "300-maps", "ragged", "hard"])
def test_spectrum_edge_cases_are_finite(name):
    maps, p, steps = _edge_spectrum_case(name)
    if name == "300-maps":
        assert cocycle._schedule(exterior_power(np.stack(maps), 1), steps, 1)[1] == 1
    w = BernoulliWeights.uniform(len(maps)) if p is None else BernoulliWeights(np.array(p))
    spec = lyapunov_spectrum(maps, w, steps, 3, rng=11)
    assert np.isfinite(spec.trial_exponents).all() and np.isfinite(spec.stderr).all()
    # the rates of a trial sum to its mean -log|det|, read from symbol counts
    words = cocycle._draw_words(np.random.default_rng(11), w.p,
                                np.empty((3, steps), dtype=np.min_scalar_type(len(maps) - 1)))
    log_det = np.log(np.abs(np.linalg.det(np.stack(maps))))
    expected = -log_det[words].sum(axis=1) / steps
    assert spec.trial_exponents.sum(axis=1) == pytest.approx(expected, rel=1e-12)


def test_one_column_renormalises_every_symbol_under_hard_contraction():
    # e^-200 per symbol: a lone column is renormalised after every symbol in
    # one-symbol blocks, so it never leaves the normal floats, and the kernel
    # is the per-step loop bit for bit
    use = np.stack([np.diag([np.exp(-200.0), 0.5]), np.array([[0.3, 0.1], [0.2, 0.4]])])
    words = np.random.default_rng(12).integers(0, 2, (4, 50))
    q0 = np.array([[0.6], [0.8]])
    assert cocycle._schedule(use, 50, 1) == (1, 1)
    q, sums = cocycle._propagate(use, words, q0)
    q_ref, sums_ref = _per_step_propagate(use, words, 1, q0)
    assert np.isfinite(sums).all()
    assert np.array_equal(q, q_ref) and np.array_equal(sums, sums_ref)


def _random_system(d, n_maps):
    rng = np.random.default_rng(2400 + d)
    return np.stack([0.8 * m / np.linalg.norm(m, 2) for m in rng.uniform(-1, 1, (n_maps, d, d))])


@pytest.mark.parametrize("d, n_maps, expected", [
    (5, 3, [0.7157677945910964, 0.7935264819945852, 0.917673733000511, 1.2382876515455707,
            1.8324051425191161]),
    (8, 2, [0.7893213168616168, 0.8726508570101797, 1.0278971797032568, 1.1600587256415824,
            1.2768319560495864, 1.4031544082173033, 1.5090541774992998, 1.5901613234728187]),
])
def test_spectrum_from_d5_keeps_the_frame_route(d, n_maps, expected):
    # from d = 5 compounds cost more per step than a QR'd d-frame: the
    # spectrum is the frame's, at the kernel's own interval, bit for bit
    maps = _random_system(d, n_maps)
    w = BernoulliWeights.uniform(n_maps)
    spec = lyapunov_spectrum(maps, w, 500, 3, rng=d)
    assert spec.exponents.tolist() == expected
    words = cocycle._draw_words(np.random.default_rng(d), w.p, np.empty((3, 500), dtype=np.uint8))
    _, sums = cocycle._propagate(maps, words)
    assert np.array_equal(spec.trial_exponents, np.sort(-sums / 500, axis=1))


def test_spectrum_memory_stays_bounded():
    # the certify-stp3 spectrum: 2 MB of uint8 words, one propagation chunk
    # and bounded symbol-count slices (3.4 MB traced); any (trials, steps)
    # float temporary would add 16 MB
    ifs = load_config(CONFIG_DIR / "stp3.json").ifs
    _, peak = traced_peak(lyapunov_spectrum, ifs.matrices, ifs.weights, 100_000, 20, 3)
    assert peak < 5e6, peak


def test_spectrum_type_invariants():
    with pytest.raises(ValueError):
        LyapunovSpectrum(np.array([0.5, 0.2]), None, (1, 1), 0.05)
    with pytest.raises(ValueError):
        LyapunovSpectrum(np.array([0.2, 0.5]), None, (1, 2), 0.05)
    with pytest.raises(ValueError):
        LyapunovSpectrum(np.array([-0.1, 0.5]), None, (1, 1), 0.05)


# ---------------------------------------------------------------------------
# frame propagation kernel and word draws


def _per_step_propagate(use, words, interval, q0=None):
    """Reference kernel: gather, multiply and ``np.linalg.qr`` one step at a time."""
    q0 = np.eye(use.shape[1]) if q0 is None else np.asarray(q0, dtype=float)
    batch, steps = words.shape
    q = np.broadcast_to(q0, (batch,) + q0.shape[-2:]).copy()
    sums = np.zeros((batch, q.shape[2]))
    for t in range(steps):
        q = use[words[:, t]] @ q
        if (t + 1) % interval == 0 or t == steps - 1:
            q, r = np.linalg.qr(q)
            sums += np.log(np.abs(np.diagonal(r, axis1=-2, axis2=-1)))
    return q, sums


def _start_frame(rng, kind, batch, d):
    k = max(1, d - 1)
    if kind is None:
        return None
    shape = (d, k) if kind == "dk" else (batch, d, k)
    return np.linalg.qr(rng.standard_normal(shape))[0]


# (steps, frame interval cap): one step, a multiple of the interval, not a
# multiple, renorm every step, and an interval longer than the run
_STEP_CASES = [(1, 1), (1, 3), (12, 3), (13, 3), (13, 1), (5, 9)]


def _columns(use, q0):
    return use.shape[1] if q0 is None else np.shape(q0)[-1]


def _block_reference(use, words, q0=None):
    """Reference kernel: per-word block products from Python loops, ``np.linalg.qr`` per interval.

    Each interval of ``cocycle._schedule`` is stepped in blocks of its
    length, the last one taking what is left, as ``_propagate`` documents.
    """
    batch, steps = words.shape
    interval, b = cocycle._schedule(use, steps, _columns(use, q0))
    # product[word] = use[word[-1]] @ ... @ use[word[0]], one map at a time
    product = {(s,): use[s] for s in range(use.shape[0])}
    for k in range(2, b + 1):
        for word in itertools.product(range(use.shape[0]), repeat=k):
            product[word] = use[word[-1]] @ product[word[:-1]]
    q0 = np.eye(use.shape[1]) if q0 is None else np.asarray(q0, dtype=float)
    q = np.broadcast_to(q0, (batch,) + q0.shape[-2:]).copy()
    sums = np.zeros((batch, q.shape[2]))
    for t0 in range(0, steps, interval):
        run = words[:, t0:t0 + interval]
        for s in range(0, run.shape[1], b):
            q = np.stack([product[tuple(w.tolist())] for w in run[:, s:s + b]]) @ q
        q, r = np.linalg.qr(q)
        sums += np.log(np.abs(np.diagonal(r, axis1=-2, axis2=-1)))
    return q, sums


def _propagate_cases(use, rng, kind, monkeypatch):
    """Yield (words, q0) over the batch sizes, chunk sizes and ``_STEP_CASES``.

    Each case sets the interval cap through ``_MAX_FRAME_INTERVAL`` and, for
    one column, a log-growth budget of the maps' log range times the cap and
    a half; every frame must then run at exactly that shape.
    """
    n_maps, d = use.shape[:2]
    default_chunk = cocycle._PROPAGATE_CHUNK_FLOATS
    log_range = np.abs(np.log(np.linalg.svd(use, compute_uv=False)[:, [0, -1]])).max()
    for batch in (1, 7):
        q0 = _start_frame(rng, kind, batch, d)
        # the default chunk, one-step chunks, and 2-step chunks whose edges
        # fall inside the 3-step renorm blocks
        for chunk_steps in (None, 1, 2):
            chunk = default_chunk if chunk_steps is None else chunk_steps * batch * d * d
            monkeypatch.setattr(cocycle, "_PROPAGATE_CHUNK_FLOATS", chunk)
            for steps, cap in _STEP_CASES:
                monkeypatch.setattr(cocycle, "_MAX_FRAME_INTERVAL", cap)
                monkeypatch.setattr(cocycle, "_MAX_LOG_GROWTH_PER_RENORM", log_range * (cap + 0.5))
                assert cocycle._schedule(use, steps, _columns(use, q0))[0] == min(cap, steps)
                yield rng.integers(0, n_maps, (batch, steps)), q0


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", [None, "dk", "bdk"])
def test_propagate_bit_identical_to_block_reference(seed, kind, monkeypatch):
    rng = np.random.default_rng(5100 + seed)
    d, n_maps = 1 + seed % 4, 1 + (seed // 2 + seed) % 4
    use = rng.standard_normal((n_maps, d, d))
    for words, q0 in _propagate_cases(use, rng, kind, monkeypatch):
        q, sums = cocycle._propagate(use, words, q0)
        q_ref, sums_ref = _block_reference(use, words, q0)
        assert np.array_equal(q, q_ref) and np.array_equal(sums, sums_ref)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", [None, "dk", "bdk"])
def test_propagate_bit_identical_to_per_step_qr(seed, kind, monkeypatch):
    # whenever blocks are one symbol long (b = 1), the kernel is the per-step loop
    rng = np.random.default_rng(5100 + seed)
    d, n_maps = 1 + seed % 4, 1 + (seed // 2 + seed) % 4
    use = rng.standard_normal((n_maps, d, d))
    # no block may spread a frame of two or more columns: its blocks are one
    # symbol at every interval the cap sets
    monkeypatch.setattr(cocycle, "_MAX_LOG_SPREAD_PER_BLOCK", 0.0)
    single = 0
    for words, q0 in _propagate_cases(use, rng, kind, monkeypatch):
        interval, b = cocycle._schedule(use, words.shape[1], _columns(use, q0))
        if b > 1:
            continue
        single += 1
        q, sums = cocycle._propagate(use, words, q0)
        q_ref, sums_ref = _per_step_propagate(use, words, interval, q0)
        assert np.array_equal(q, q_ref) and np.array_equal(sums, sums_ref)
    # every case for a frame of two or more columns; for one column at least
    # the three cases that renormalise after every step, whose blocks are one
    # symbol long
    one_column = (d if kind is None else max(1, d - 1)) == 1
    assert single >= 2 * 3 * 3 if one_column else single == 2 * 3 * len(_STEP_CASES)


@pytest.mark.parametrize("steps, expected", [(1, 1), (2, 2), (3, 3), (7, 3), (10, 3)])
def test_block_length_spends_half_the_renorm_spread_on_stp3(steps, expected):
    mats = load_config(CONFIG_DIR / "stp3.json").ifs.matrices
    # log condition 4.127: a 3-frame renormalises every 7 steps, blocks of 3 symbols
    assert cocycle._schedule(mats, steps, 3) == (min(steps, 7), expected)


def test_one_column_steps_stp3_compounds_by_log_range():
    # a lone column's log norm moves at most 4.589 (order 1) or 7.115 (order 2)
    # per symbol: renormalise every 65 and 42 symbols, and both tables stop at
    # blocks of 11, the longest whose 4,094 rows of 9 floats fit in 2^16
    mats = load_config(CONFIG_DIR / "stp3.json").ifs.matrices
    for p, interval in ((1, 65), (2, 42)):
        assert cocycle._schedule(exterior_power(mats, p), 100_000, 1) == (interval, 11)
    # a run shorter than the interval is renormalised once, at its end
    assert cocycle._schedule(mats, 40, 1) == (40, 11)


def test_block_length_caps():
    scalar = np.full((4, 3, 3), 0.5 * np.eye(3))
    # log condition 0: the table of words up to length 6 has 5,460 * 9 floats,
    # and length 7 would add 16,384 * 9 more
    assert cocycle._schedule(scalar, 10, 3) == (10, 6)
    assert cocycle._schedule(scalar[:1], 10, 3) == (10, 10)
    # log condition 5: six steps spread e^30 and three symbols e^15
    skewed = np.stack([np.diag([0.5, 0.5 * np.exp(-5.0)])] * 2)
    assert cocycle._schedule(skewed, 10, 2) == (6, 3)
    bad = np.stack([np.diag([0.5, 0.5 * np.exp(-16.0)])])
    assert cocycle._schedule(bad, 10, 2) == (1, 1)
    # one column has no spread to keep: only the run and the table cap it
    assert cocycle._schedule(skewed, 10, 1) == (10, 10)
    assert cocycle._schedule(bad, 10, 1) == (10, 10)
    assert cocycle._schedule(scalar, 10, 1) == (10, 6)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
@pytest.mark.parametrize("n_maps", [1, 2, 3, 5])
def test_block_codes_match_horner(n_maps, dtype):
    rng = np.random.default_rng(n_maps)
    for b in range(1, 13):
        # the _block_table row of the first word of each length 0..b
        first = [0, 0] + [sum(n_maps**j for j in range(1, k)) for k in range(2, b + 1)]
        # whole blocks only, a tail block after them, and a tail block alone
        for length in {b, 3 * b, 3 * b + (b + 1) // 2, b + 1, max(1, b - 1)}:
            w = rng.integers(0, n_maps, size=(5, 2 * length), dtype=dtype)
            codes = cocycle._block_codes(w, length, b, n_maps, first)
            oracle = horner_block_codes(w, length, b, n_maps, first)
            assert codes.dtype == oracle.dtype and np.array_equal(codes, oracle), (b, length)


def test_schedule_of_one_step_needs_no_svd(monkeypatch):
    # bundle_growth_ratios calls the kernel once per symbol
    def refuse(*args, **kwargs):
        raise AssertionError("svd called")

    mats = load_config(CONFIG_DIR / "stp3.json").ifs.matrices
    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert cocycle._schedule(mats, 1, 3) == (1, 1)
    assert cocycle._schedule(mats, 1, 1) == (1, 1)


def test_schedule_of_the_inverse_maps_is_the_maps_schedule():
    # furstenberg_sample and strong_stable_bundle read the interval from the
    # inverse maps, whose condition numbers and log ranges are the maps'
    systems = [load_config(CONFIG_DIR / f"{name}.json").ifs.matrices for name in ("stp3", "bm")]
    for mats in systems + [_random_system(5, 3), _random_system(8, 2)]:
        invs = np.linalg.inv(mats)
        for steps in (2, 7, 40, 500, 100_000):
            for columns in (1, mats.shape[1]):
                assert (cocycle._schedule(invs, steps, columns)
                        == cocycle._schedule(mats, steps, columns))


@pytest.mark.parametrize("steps, trials, seed", [
    (5_000, 12, np.random.SeedSequence(3).spawn(5)[0]),  # the stp3 dim report's spectrum
    (100_000, 20, 3),  # the stp3 lyapunov report at the benchmark's word length
])
def test_propagate_blocks_keep_stp3_spectrum(steps, trials, seed, monkeypatch):
    ifs = load_config(CONFIG_DIR / "stp3.json").ifs
    words = cocycle._draw_words(np.random.default_rng(seed), ifs.weights.p,
                                np.empty((trials, steps), dtype=np.uint8))
    _, sums = cocycle._propagate(ifs.matrices, words)
    if steps <= 5_000:
        _, ref = _per_step_propagate(ifs.matrices, words, 1)
    else:
        # renorm every step is one-symbol blocks: the per-step loop bit for bit
        monkeypatch.setattr(cocycle, "_MAX_FRAME_INTERVAL", 1)
        _, ref = cocycle._propagate(ifs.matrices, words)
        _, head = cocycle._propagate(ifs.matrices, words[:, :500])
        assert np.array_equal(head, _per_step_propagate(ifs.matrices, words[:, :500], 1)[1])
    chi = np.sort(-sums / steps, axis=1).mean(axis=0)
    chi_ref = np.sort(-ref / steps, axis=1).mean(axis=0)
    assert np.abs(chi - chi_ref).max() <= 2e-8


@st.composite
def _small_cocycles(draw):
    """Maps with singular values in [0.05, 0.95] (d <= 4, N <= 4), and words over them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d, n_maps = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    u = np.linalg.qr(rng.standard_normal((n_maps, d, d)))[0]
    v = np.linalg.qr(rng.standard_normal((n_maps, d, d)))[0]
    sv = rng.uniform(0.05, 0.95, (n_maps, d, 1))
    words = rng.integers(0, n_maps, (draw(st.integers(1, 5)), draw(st.integers(1, 120))))
    return u @ (sv * v), words


@given(_small_cocycles())
@settings(max_examples=150, deadline=None)
def test_property_propagate_log_growth_is_log_det(case):
    # the frame's columns lose up to d * eps of their spread e^(log cond *
    # interval) at each renormalisation, and the logs add 1e-12 relative
    use, words = case
    _, sums = cocycle._propagate(use, words)
    log_det = np.log(np.abs(np.linalg.det(use)))[words]
    expected = log_det.sum(axis=1)
    d, steps = use.shape[1], words.shape[1]
    interval, _ = cocycle._schedule(use, steps, d)
    sv = np.linalg.svd(use, compute_uv=False)
    log_cond = np.log(sv[:, 0] / sv[:, -1]).max()
    renorms = -(-steps // interval)
    bound = renorms * d * np.finfo(float).eps * np.exp(log_cond * interval)
    assert np.all(np.abs(sums.sum(axis=1) - expected)
                  <= bound + 1e-12 * np.abs(log_det).sum(axis=1))


def test_propagate_memory_stays_bounded():
    # codes and block products are formed per chunk of intervals (1.11 MB
    # traced); casting the whole 20 x 100,000-symbol run to int64 alone
    # would take 16 MB
    ifs = load_config(CONFIG_DIR / "stp3.json").ifs
    words = cocycle._draw_words(np.random.default_rng(3), ifs.weights.p,
                                np.empty((20, 100_000), dtype=np.uint8))
    _, peak = traced_peak(cocycle._propagate, ifs.matrices, words)
    assert peak < 2e6, peak


def test_propagate_nan_frame_follows_the_reference(monkeypatch):
    rng = np.random.default_rng(5200)
    use = rng.standard_normal((2, 3, 3))
    q0 = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    q0[0, 0] = np.nan
    words = rng.integers(0, 2, (7, 13))
    monkeypatch.setattr(cocycle, "_PROPAGATE_CHUNK_FLOATS", 2 * 7 * 9)
    monkeypatch.setattr(cocycle, "_MAX_FRAME_INTERVAL", 3)
    assert cocycle._schedule(use, 13, 2)[0] == 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, sums = cocycle._propagate(use, words, q0)
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


def test_furstenberg_sample_draws_words_as_choice():
    w = BernoulliWeights(np.array([0.25, 0.0, 0.5, 0.25]))
    maps = [np.diag([0.5, 0.25]), np.array([[0.3, 0.1], [0.0, 0.4]]),
            np.diag([0.2, 0.6]), np.array([[0.4, 0.0], [0.2, 0.3]])]
    frames = furstenberg_sample(maps, w, 5, 40, rng=5)
    # the words are one choice call, and the start frames the next normal draw
    rng = np.random.default_rng(5)
    words = rng.choice(4, size=(40, 5), p=w.p)
    q0, _ = qr_positive(rng.standard_normal((40, 2, 2)))
    want, _ = cocycle._propagate(np.linalg.inv(maps), words[:, ::-1], q0)
    assert np.array_equal(frames, want)


# ---------------------------------------------------------------------------
# stationary flags


def test_furstenberg_diagonal_dirac():
    frames = furstenberg_sample(
        DIAG_PAIR, BernoulliWeights.uniform(2), iterations=80, count=200, rng=31
    )
    assert_orthonormal_frames(frames, 200, 2)
    e1 = SubspaceFrame(np.eye(2)[:, [0]])
    for q in frames:
        assert principal_angle_distance(SubspaceFrame(q[:, :1]), e1) <= 1e-8


def test_furstenberg_single_map_dirac_at_eigenflag():
    a = 0.2 * np.array([[2.0, 1.0], [1.0, 1.0]])
    frames = furstenberg_sample(
        (a,), BernoulliWeights.uniform(1), iterations=120, count=16, rng=37
    )
    assert_orthonormal_frames(frames, 16, 2)
    # power-iteration oracle for the attracting line of the inverse action
    v = np.array([1.0, 0.3])
    a_inv = np.linalg.inv(a)
    for _ in range(200):
        v = a_inv @ v
        v /= np.linalg.norm(v)
    target = SubspaceFrame.from_span(v)
    for q in frames:
        assert principal_angle_distance(SubspaceFrame(q[:, :1]), target) <= 1e-10


def test_furstenberg_stationarity_ks():
    # one more iteration leaves the stationary law unchanged
    rng = np.random.default_rng(43)
    maps = [0.5 * m / np.linalg.norm(m, 2) for m in rng.uniform(0.1, 1.0, (2, 2, 2))]
    w = BernoulliWeights.uniform(2)
    frames = furstenberg_sample(maps, w, iterations=100, count=4000, rng=47)
    pushed = furstenberg_sample(maps, w, iterations=101, count=4000, rng=53)
    assert_orthonormal_frames(frames, 4000, 2)
    ks = stats.ks_2samp(line_angles(frames), line_angles(pushed)).statistic
    assert ks < 0.05


@pytest.mark.parametrize("n", [1, 3])
def test_weights_must_be_one_per_map(n):
    w = BernoulliWeights.uniform(n)
    calls = [
        lambda: lyapunov_spectrum(DIAG_PAIR, w, steps=200, trials=2, rng=0),
        lambda: furstenberg_sample(DIAG_PAIR, w, 10, 2, rng=0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{n} weights for 2 maps$"):
            call()


def test_furstenberg_deterministic():
    w = BernoulliWeights.uniform(2)
    a = furstenberg_sample(DIAG_PAIR, w, iterations=40, count=5, rng=67)
    b = furstenberg_sample(DIAG_PAIR, w, iterations=40, count=5, rng=67)
    assert np.array_equal(a, b)


def test_furstenberg_explicit_dims_three_dim():
    maps = (np.diag([0.2, 0.35, 0.6]), np.diag([0.25, 0.4, 0.55]))
    frames = furstenberg_sample(
        maps, BernoulliWeights.uniform(2), iterations=100, count=8, rng=71
    )
    assert_orthonormal_frames(frames, 8, 3)
    for q in frames:
        # the inverse grows fastest along the first axis, then the second:
        # the line is the first axis, the plane the first two
        for k in (2, 1):
            member = SubspaceFrame(q[:, :k])
            assert principal_angle_distance(member, SubspaceFrame(np.eye(3)[:, :k])) <= 1e-8
