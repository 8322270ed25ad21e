"""Shared generators for random maps and reference systems, test oracles, and a memory probe."""

import itertools
import tracemalloc

import numpy as np

from affinedim.cocycle import BernoulliWeights, _check_word
from affinedim.domination import stp_check
from affinedim.linalg import as_matrix, qr_positive
from affinedim.measure import IfsSystem

PASCAL3 = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0], [1.0, 3.0, 6.0]])


def cantor_ifs(weights=None):
    """Middle-third Cantor system on the line."""
    mats = np.array([[[1.0 / 3.0]], [[1.0 / 3.0]]])
    ts = np.array([[0.0], [2.0 / 3.0]])
    return IfsSystem(mats, ts, BernoulliWeights(np.asarray(weights)) if weights is not None
                     else BernoulliWeights.uniform(2))


def segment_ifs():
    """Two half-scale maps tiling [0, 1]; uniform weights give Lebesgue measure."""
    mats = np.array([[[0.5]], [[0.5]]])
    ts = np.array([[0.0], [0.5]])
    return IfsSystem(mats, ts, BernoulliWeights.uniform(2))


def cantor_dust_ifs():
    """Four corner maps at ratio 1/3: the planar product of two Cantor sets."""
    mats = np.tile(np.diag([1.0 / 3.0, 1.0 / 3.0]), (4, 1, 1))
    ts = np.array([[0.0, 0.0], [2.0 / 3.0, 0.0], [0.0, 2.0 / 3.0], [2.0 / 3.0, 2.0 / 3.0]])
    return IfsSystem(mats, ts, BernoulliWeights.uniform(4))


def bm_carpet_ifs(digits=((0, 0), (1, 0), (2, 1)), m_base=3, n_base=2, probs=None):
    """Grid-aligned carpet system with columns/m and rows/n cells."""
    mats = np.tile(np.diag([1.0 / m_base, 1.0 / n_base]), (len(digits), 1, 1))
    ts = np.array([[c / m_base, r / n_base] for c, r in digits], dtype=float)
    w = BernoulliWeights.uniform(len(digits)) if probs is None else BernoulliWeights(np.asarray(probs))
    return IfsSystem(mats, ts, w)


def kp_sponge_ifs():
    """Kenyon-Peres sponge: ``diag(1/5, 1/4, 1/3)`` at five digits, every two 2 apart somewhere."""
    digits = np.array([(0, 0, 0), (2, 2, 0), (4, 0, 2), (0, 2, 2), (2, 0, 2)])
    scale = np.array([5.0, 4.0, 3.0])
    return IfsSystem(np.tile(np.diag(1.0 / scale), (5, 1, 1)), digits / scale,
                     BernoulliWeights(np.array([0.3, 0.25, 0.2, 0.15, 0.1])))


# Gatzouras-Lalley carpet: rows (height b, y) of cells (width a, x) with a < b
GL_ROWS = ((0.4, 0.0, ((0.25, 0.0), (0.2, 0.35), (0.3, 0.65))),
           (0.35, 0.6, ((0.3, 0.1), (0.25, 0.6))))


def gl_carpet_ifs(probs=None):
    """The maps ``diag(a, b)`` at ``(x, y)`` over ``GL_ROWS`` (uniform weights by default); cells stay apart."""
    cells = [(a, b, x, y) for b, y, row in GL_ROWS for a, x in row]
    w = BernoulliWeights.uniform(len(cells)) if probs is None else BernoulliWeights(np.asarray(probs))
    return IfsSystem(np.array([np.diag([a, b]) for a, b, _, _ in cells]),
                     np.array([[x, y] for _, _, x, y in cells]), w)


def scaled_to_norm(m, norm):
    return norm * m / np.linalg.norm(m, 2)


def random_contractive_tuple(rng, d, n_maps, norm=0.8, det_floor=1e-4):
    """Random invertible contractions with operator norm exactly ``norm``."""
    maps = []
    while len(maps) < n_maps:
        m = scaled_to_norm(rng.uniform(-1.0, 1.0, size=(d, d)), norm)
        if abs(np.linalg.det(m)) > det_floor:
            maps.append(m)
    return maps


def _positive_bidiagonal(rng, d, lower):
    m = np.diag(rng.uniform(0.3, 1.5, d))
    for j in range(d - 1):
        if lower:
            m[j + 1, j] = rng.uniform(0.3, 1.5)
        else:
            m[j, j + 1] = rng.uniform(0.3, 1.5)
    return m


def random_stp_matrix(rng, d, norm=0.8):
    """Strictly totally positive contraction via positive bidiagonal factors."""
    while True:
        factors = [_positive_bidiagonal(rng, d, lower=(j % 2 == 0)) for j in range(2 * (d - 1))]
        a = factors[0]
        for f in factors[1:]:
            a = a @ f
        if stp_check(a).is_stp:
            return scaled_to_norm(a, norm)


def random_stp_tuple(rng, d, n_maps, norm=0.8):
    return [random_stp_matrix(rng, d, norm=rng.uniform(0.6, 1.0) * norm) for _ in range(n_maps)]


def gentle_stp_matrix(rng, d, norm=0.8, max_log_cond=0.85):
    """STP contraction with a small singular-value spread.

    A bundle estimate carries at best ~1e-16 relative error; products over n
    steps amplify it by exp(n * log cond), so growth-bound checks out to
    n = 40 need per-map log-condition below ~0.9 to stay meaningful in
    double precision.
    """
    while True:
        a = np.eye(d)
        for j in range(2 * (d - 1)):
            m = np.diag(rng.uniform(0.95, 1.05, d))
            for k in range(d - 1):
                if j % 2 == 0:
                    m[k + 1, k] = rng.uniform(0.10, 0.18)
                else:
                    m[k, k + 1] = rng.uniform(0.10, 0.18)
            a = a @ m
        sv = np.linalg.svd(a, compute_uv=False)
        if stp_check(a).is_stp and np.log(sv[0] / sv[-1]) <= max_log_cond:
            return norm * a / sv[0]


def gentle_stp_tuple(rng, d, n_maps, norm=0.8):
    return [gentle_stp_matrix(rng, d, norm) for _ in range(n_maps)]


# ---------------------------------------------------------------------------
# oracles: direct products, Haar frames and the formula's double-sum identity


def word_product(maps, word):
    """Left-to-right product of the maps named by ``word`` (empty -> identity)."""
    mats = as_matrix(maps)
    out = np.eye(mats.shape[1])
    for s in _check_word(word, mats.shape[0]):
        out = out @ mats[s]
    return out


def horner_block_codes(w, length, b, n_maps, first):
    """``cocycle._block_codes`` by Horner's rule, one symbol position of a block at a time."""
    if b == 1:
        return w.T
    batch = w.shape[0]
    w = w.reshape(batch, -1, length)
    starts = range(0, length, b)
    codes = np.empty((w.shape[1], len(starts), batch), dtype=np.intp)
    for j, s in enumerate(starts):
        k = min(b, length - s)
        # first[k] + sum_i w[s + i] * n_maps**i
        code = codes[:, j].T
        code[...] = w[:, :, s + k - 1]
        for i in range(s + k - 2, s - 1, -1):
            code *= n_maps
            code += w[:, :, i]
        code += first[k]
    return codes.reshape(-1, batch)


def haar_frame(d: int, rng: np.random.Generator, k: int | None = None) -> np.ndarray:
    """Haar-random orthonormal ``d x k`` frame (``k = d`` by default)."""
    g = rng.standard_normal((d, d))
    q, _ = qr_positive(g)
    return q if k is None else q[:, :k].copy()


def telescoping_identity_check(hseq, exponents, rtol: float = 1e-12) -> bool:
    """Verify the exchange of the double sum behind the dimension formula.

    With a nonincreasing sequence ``H^0 >= ... >= H^d`` and ascending
    positive exponents, both arrangements of the weighted sum must agree:
    the grouped form ``(H^0 - H^d)/chi_d + sum_i ((chi_{i+1}-chi_i)/chi_d)
    * sum_{k<i} (H^k - H^{k+1})/chi_{k+1}`` and the flat form
    ``sum_j (H^j - H^{j+1})/chi_{j+1}``.
    """
    big_h = np.asarray(hseq, dtype=float).ravel()
    chi = np.asarray(exponents, dtype=float).ravel()
    if big_h.size != chi.size + 1:
        raise ValueError("need one more H value than exponents")
    if np.any(np.diff(big_h) > 1e-12):
        raise ValueError("H sequence must be nonincreasing")
    if np.any(chi <= 0) or np.any(np.diff(chi) < -1e-12):
        raise ValueError("exponents must be positive ascending")
    d = chi.size
    drops = big_h[:-1] - big_h[1:]
    lhs = (big_h[0] - big_h[-1]) / chi[-1]
    for i in range(1, d):
        inner = np.sum(drops[:i] / chi[:i])
        lhs += ((chi[i] - chi[i - 1]) / chi[-1]) * inner
    rhs = float(np.sum(drops / chi))
    scale = max(1.0, abs(lhs), abs(rhs))
    return bool(abs(lhs - rhs) <= rtol * scale)


# ---------------------------------------------------------------------------
# separation: the whole-level table on the check's own hulls


def separation_table(ifs, level):
    """Every level-``level`` cylinder and every pair of them with different first symbols.

    The cylinders are formed in lexicographic word order by the products and
    shifts the separation check forms, and get its hulls
    ``B(f_w(c), ||A_w|| R_c)`` about ``ifs.hull``.  Returns the words, the
    pairs ``(i, j)`` with ``i < j``, each pair's hull gap and whether its two
    maps coincide within the check's resolution at the scale of ``A_{w_i}``.
    """
    mats, shifts = ifs.matrices, ifs.translations
    for _ in range(level - 1):
        shifts = (mats @ ifs.translations.T).transpose(0, 2, 1) + shifts[:, None]
        shifts = shifts.reshape(-1, ifs.d)
        mats = (mats[:, None] @ ifs.matrices[None]).reshape(-1, ifs.d, ifs.d)
    words = np.array(list(itertools.product(range(ifs.n_maps), repeat=level)))
    i, j = np.triu_indices(len(words), 1)
    keep = words[i, 0] != words[j, 0]
    i, j = i[keep], j[keep]
    centre, hull_radius = ifs.hull
    norms = np.linalg.norm(mats, 2, axis=(1, 2))
    radii = norms * hull_radius
    centres = mats @ centre + shifts
    dist = np.sqrt(sum((centres[i, k] - centres[j, k]) ** 2 for k in range(ifs.d)))
    gaps = dist - radii[i] - radii[j]
    apart = np.sqrt(sum((shifts[i, k] - shifts[j, k]) ** 2 for k in range(ifs.d)))
    apart = apart + np.linalg.norm(mats[i] - mats[j], 2, axis=(1, 2)) * ifs.bounding_radius
    coincide = apart <= 1e-9 * (1.0 + ifs.bounding_radius) * norms[i]
    return words, i, j, gaps, coincide


# ---------------------------------------------------------------------------
# memory


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the peak bytes that ``tracemalloc`` traced during the call."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak
