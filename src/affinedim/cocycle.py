"""Random matrix cocycles driven by i.i.d. symbols.

Provides word drawing and checking, Lyapunov spectrum estimation from
renormalised compound-cocycle growth, backward-iteration sampling of the
stationary flag distribution, and Bernoulli entropy.

All estimators consume a ``numpy.random.Generator`` (or an integer seed) and
are bitwise deterministic given the seed.  Trials and samples are independent
given the derived draws and are always reduced in trial/sample index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .linalg import _freeze, check_contractive_invertible, exterior_power, qr_positive

__all__ = [
    "BernoulliWeights",
    "LyapunovSpectrum",
    "as_map_stack",
    "entropy",
    "lyapunov_spectrum",
    "furstenberg_sample",
]

WEIGHT_SUM_TOL = 1e-12
# default cap on a search's work: the N^n_max longest words of a gap-ratio
# scan (not the shorter words it also forms), and the cylinder pairs a
# separation check forms
PRODUCT_BUDGET = 10**6
# most steps between renormalisations of a frame of two or more columns
_MAX_FRAME_INTERVAL = 10
# keep the singular-value spread accumulated between renormalisations well
# below 1/eps so the most contracted directions stay resolvable
_MAX_LOG_SPREAD_PER_RENORM = 30.0
# a tabulated block product spends at most half of that spread, so the
# frame it multiplies keeps the other half
_MAX_LOG_SPREAD_PER_BLOCK = 15.0
# a one-column frame has no spread to keep: its log norm may move this far
# between renormalisations, so its entries and their squares stay normal floats
_MAX_LOG_GROWTH_PER_RENORM = 300.0
# the largest d whose spectrum is read from one-column growth of the compound
# cocycles; from d = 5 the C(d, p)^2 floats of a compound step cost more than
# a QR-renormalised d-frame
_MAX_COMPOUND_D = 4
# floats of step matrices gathered at once by the frame propagation kernel
_PROPAGATE_CHUNK_FLOATS = 1 << 16
# symbols drawn by one generator call, bounding its float and int64 temporaries
_WORD_BLOCK_SYMBOLS = 1 << 16
# most symbols drawn by comparison passes (each symbol then fits in uint8);
# searchsorted draws larger alphabets faster
_DRAW_COMPARE_MAX = 256


@dataclass(frozen=True)
class BernoulliWeights:
    """Probability vector driving the i.i.d. symbol sequence."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).ravel()
        if p.size == 0:
            raise ValueError("weights must be nonempty")
        if np.any(p < 0) or not np.all(np.isfinite(p)):
            raise ValueError("weights must be finite and nonnegative")
        if abs(p.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {p.sum()!r}, not 1")
        _freeze(self, p=p)

    @property
    def n(self) -> int:
        return self.p.size

    @classmethod
    def uniform(cls, n: int) -> "BernoulliWeights":
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class LyapunovSpectrum:
    """Estimated exponents 0 < chi_1 <= ... <= chi_d in nats per symbol.

    ``multiplicities`` are the block sizes found by merging exponents whose
    gap is at most ``gap_threshold``; ``trial_exponents`` holds the per-trial
    estimates behind ``stderr``.
    """

    exponents: np.ndarray
    stderr: np.ndarray | None
    multiplicities: tuple[int, ...]
    gap_threshold: float
    trial_exponents: np.ndarray | None = None

    def __post_init__(self):
        chi = np.asarray(self.exponents, dtype=float).ravel()
        if np.any(chi <= 0):
            raise ValueError("exponents must be positive for contractive cocycles")
        if np.any(np.diff(chi) < -1e-12):
            raise ValueError("exponents must be sorted ascending")
        _freeze(self, exponents=chi)
        if sum(self.multiplicities) != chi.size or any(m < 1 for m in self.multiplicities):
            raise ValueError(f"multiplicities {self.multiplicities} do not partition d={chi.size}")

    @property
    def d(self) -> int:
        return self.exponents.size

    @property
    def simple(self) -> bool:
        return all(m == 1 for m in self.multiplicities)


def as_map_stack(maps) -> np.ndarray:
    """``maps`` as a nonempty (N, d, d) stack of contractive invertible matrices."""
    stack = np.asarray(maps, dtype=float)
    if stack.ndim != 3 or not stack.shape[0]:
        raise ValueError(f"need a nonempty (N, d, d) stack of maps, got shape {stack.shape}")
    return check_contractive_invertible(stack)


def _check_weights(weights: BernoulliWeights, mats: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``weights`` has one entry per map of ``mats``."""
    if weights.n != mats.shape[0]:
        raise ValueError(f"{weights.n} weights for {mats.shape[0]} maps")


def _check_word(word, n_maps: int) -> np.ndarray:
    """``word`` as a flat int64 array of symbols in ``0..n_maps - 1``; may be empty.

    A symbol is an entry of an integer (not bool) dtype; the ``ValueError``
    for a word that is not one names its first offending entry.
    """
    w = np.asarray(word).ravel()
    if w.size == 0:
        return np.empty(0, dtype=np.int64)
    if w.dtype.kind not in "iu":
        raise ValueError(f"words[0] is {w[0].item()!r}; words must have an integer dtype, "
                         f"not {w.dtype}")
    bad = np.flatnonzero((w < 0) | (w >= n_maps))
    if bad.size:
        raise ValueError(f"words[{bad[0]}] is {int(w[bad[0]])}; symbols must be in 0..{n_maps - 1}")
    return w.astype(np.int64, copy=False)


def entropy(weights: BernoulliWeights) -> float:
    """Shannon entropy of the weights in nats; +0.0, not -0.0, for a point mass."""
    p = weights.p[weights.p > 0]
    return float(0.0 - (p * np.log(p)).sum())


def _draw_words(rng: np.random.Generator, p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous integer array ``out`` with i.i.d. symbols of law ``p``.

    ``rng.choice`` with ``p`` draws one uniform double ``u`` per symbol, in C
    order, and returns ``cdf.searchsorted(u, "right")``, where ``cdf`` is
    ``p.cumsum()`` divided by its last entry.  That entry is then exactly 1
    and ``u < 1``, so the symbol is the number of inner entries ``cdf[:-1]``
    at or below ``u``.  Up to ``_DRAW_COMPARE_MAX`` symbols, ``p.size - 1``
    comparison passes count it; larger alphabets use the search itself,
    which is then the cheaper of the two.  Symbols are drawn in
    flat blocks of ``_WORD_BLOCK_SYMBOLS``, so the result and the generator's
    final state equal those of one ``rng.choice(p.size, size=out.shape,
    p=p)``, without its full-size float and int64 temporaries.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    flat = out.reshape(-1)
    count = np.empty(min(flat.size, _WORD_BLOCK_SYMBOLS), dtype=np.uint8)
    hit = np.empty(count.size, dtype=bool)
    for s in range(0, flat.size, _WORD_BLOCK_SYMBOLS):
        block = flat[s:s + _WORD_BLOCK_SYMBOLS]
        u = rng.random(block.size)
        if p.size > _DRAW_COMPARE_MAX:
            block[:] = cdf.searchsorted(u, "right")
            continue
        c, h = count[:block.size], hit[:block.size]
        c[:] = 0
        for edge in cdf[:-1]:
            np.greater_equal(u, edge, out=h)
            c += h.view(np.uint8)
        block[:] = c
    return out


def _schedule(use: np.ndarray, steps: int, columns: int) -> tuple[int, int]:
    """(steps between renormalisations, symbols per block) of a ``steps``-step run.

    A frame of two or more ``columns`` renormalises every
    ``min(_MAX_FRAME_INTERVAL, steps)`` steps, shortened so that the maps'
    worst log condition number ``log(sigma_1 / sigma_d)`` spreads the frame
    by at most ``_MAX_LOG_SPREAD_PER_RENORM`` per interval and by at most
    ``_MAX_LOG_SPREAD_PER_BLOCK`` per block.  A one-column frame has no
    spread to keep: one step moves its log norm by at most the maps' largest
    ``|log sigma|``, and it renormalises as seldom as keeps that movement
    within ``_MAX_LOG_GROWTH_PER_RENORM`` (at most every ``steps``).  The
    block is the longest, up to the interval, whose table of every word of
    length at most ``b`` holds at most ``_PROPAGATE_CHUNK_FLOATS`` floats.
    Both are at least 1, and a one-step run is ``(1, 1)`` with no SVD.
    """
    if steps <= 1:
        return 1, 1
    sv = np.linalg.svd(use, compute_uv=False)
    if columns > 1:
        log_cond = float(np.max(np.log(sv[:, 0] / sv[:, -1])))
        interval = min(_MAX_FRAME_INTERVAL, steps)
        if log_cond > 0:
            interval = max(1, min(interval, int(_MAX_LOG_SPREAD_PER_RENORM / log_cond)))
        cap = interval
        if log_cond * interval > _MAX_LOG_SPREAD_PER_BLOCK:
            cap = int(_MAX_LOG_SPREAD_PER_BLOCK / log_cond)
    else:
        log_range = float(np.max(np.abs(np.log(sv[:, [0, -1]]))))
        interval = cap = steps
        if log_range * steps > _MAX_LOG_GROWTH_PER_RENORM:
            interval = cap = max(1, int(_MAX_LOG_GROWTH_PER_RENORM / log_range))
    n_maps, b, rows = use.shape[0], 1, use.shape[0]
    while b < cap and (rows + n_maps ** (b + 1)) * use[0].size <= _PROPAGATE_CHUNK_FLOATS:
        b += 1
        rows += n_maps**b
    return interval, b


def _block_table(use: np.ndarray, b: int) -> tuple[np.ndarray, list[int]]:
    """The product of every word of length 1 to ``b``, and the first row of each length.

    Row ``first[k] + sum_j s_j N**j`` holds ``use[s_{k-1}] @ ... @ use[s_0]``;
    each length is built from the one before by left-multiplying one map.
    """
    levels, first = [use], [0, 0]
    for _ in range(1, b):
        levels.append((use[:, None] @ levels[-1][None]).reshape((-1,) + use.shape[1:]))
        first.append(first[-1] + levels[-2].shape[0])
    return np.concatenate(levels), first


def _block_codes(w: np.ndarray, length: int, b: int, n_maps: int, first: list[int]) -> np.ndarray:
    """The :func:`_block_table` rows that step ``w``, time-major: (blocks, batch).

    ``w`` is a (batch, n * length) symbol slice that starts an interval;
    each ``length``-step interval splits into blocks of ``b`` symbols, the
    last block taking what is left.
    """
    if b == 1:
        return w.T
    batch = w.shape[0]
    w = w.reshape(batch, -1, length)
    starts = range(0, length, b)
    codes = np.empty((w.shape[1], len(starts), batch), dtype=np.intp)
    powers = n_maps ** np.arange(b)
    for j, s in enumerate(starts):
        k = min(b, length - s)
        # the row of a block of k symbols s_0 .. s_{k-1} is first[k] + sum_i s_i N**i
        codes[:, j] = (w[:, :, s:s + k] @ powers[:k] + first[k]).T
    return codes.reshape(-1, batch)


def _propagate(
    use: np.ndarray, words: np.ndarray, q0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Push one frame per word through ``use[s]`` for each symbol, in order.

    ``words`` is a (batch, steps) symbol array and ``q0`` a (d, k) or
    (batch, d, k) starting frame (the identity by default).  Frames are
    re-orthonormalised by QR at the interval :func:`_schedule` chooses and
    after the last step, summing ``log|diag R|``.  Returns the final
    orthonormal frames and the per-column log growth, which estimates the
    log singular values of each word's product (in column order, not
    sorted).

    Each renormalisation interval is stepped in blocks of ``b`` symbols
    (also from :func:`_schedule`), the last block of an interval taking what
    is left, and each block multiplies the frame by its product, read from a
    table built once per call (:func:`_block_table`).  With ``b = 1`` the
    floating-point operations are exactly those of ``q = use[words[:, t]]
    @ q`` per step and ``np.linalg.qr`` per renorm.  Block codes and step
    matrices are formed time-major for a chunk of whole intervals at a time,
    gathering at most ``_PROPAGATE_CHUNK_FLOATS`` floats of block products
    at once, or one block if a block alone exceeds that.  Each renorm calls
    the two LAPACK gufuncs that ``np.linalg.qr`` wraps (``geqrf``, then
    ``orgqr``) without the wrapper's copy, ``triu`` and error-state set-up:
    ``qr_r_raw`` factors the fresh matmul output in place, its diagonal is
    R's, and ``qr_reduced`` forms Q from it.  A NaN frame stays NaN, as
    under ``np.linalg.qr``.
    """
    q0 = np.eye(use.shape[1]) if q0 is None else np.asarray(q0, dtype=float)
    batch, steps = words.shape
    q = np.broadcast_to(q0, (batch,) + q0.shape[-2:]).copy()
    sums = np.zeros((batch, q.shape[2]))
    interval, b = _schedule(use, steps, q.shape[2])
    table, first = _block_table(use, b)
    chunk = max(1, _PROPAGATE_CHUNK_FLOATS // max(1, batch * use[0].size))
    full, rest = divmod(steps, interval)
    # (first step, length, count) of the runs of equal-length intervals
    for t0, length, count in ((0, interval, full), (full * interval, rest, int(rest > 0))):
        if not count:
            continue
        nb = -(-length // b)
        per_chunk = max(1, chunk // nb)
        for i0 in range(0, count, per_chunk):
            a = t0 + i0 * length
            w = words[:, a:a + min(per_chunk, count - i0) * length]
            codes = _block_codes(w, length, b, use.shape[0], first)
            for g0 in range(0, codes.shape[0], chunk):
                for g, step in enumerate(table[codes[g0:g0 + chunk]], g0 + 1):
                    q = step @ q
                    if g % nb == 0:
                        # factors q in place: R on and above its diagonal
                        tau = _umath_linalg.qr_r_raw(q, signature="d->d")
                        sums += np.log(np.abs(q.diagonal(0, -2, -1)))
                        q = _umath_linalg.qr_reduced(q, tau, signature="dd->d")
    return q, sums


def _multiplicities_from_gaps(chi: np.ndarray, threshold: float) -> tuple[int, ...]:
    blocks = [1]
    for j in range(1, chi.size):
        if chi[j] - chi[j - 1] <= threshold:
            blocks[-1] += 1
        else:
            blocks.append(1)
    return tuple(blocks)


def _symbol_counts(words: np.ndarray, n_maps: int) -> np.ndarray:
    """(batch, n_maps) int64 counts of each symbol in each row of ``words``.

    Counted over column slices of at most ``_WORD_BLOCK_SYMBOLS`` symbols, so
    no temporary as large as ``words`` is formed.
    """
    batch, steps = words.shape
    offsets = np.arange(0, batch * n_maps, n_maps)[:, None]
    counts = np.zeros(batch * n_maps, dtype=np.int64)
    width = max(1, _WORD_BLOCK_SYMBOLS // batch)
    for s in range(0, steps, width):
        counts += np.bincount((words[:, s:s + width] + offsets).ravel(), minlength=counts.size)
    return counts.reshape(batch, n_maps)


def lyapunov_spectrum(
    maps,
    weights: BernoulliWeights,
    steps: int,
    trials: int,
    rng=None,
) -> LyapunovSpectrum:
    """Estimate the Lyapunov spectrum of the i.i.d. matrix cocycle.

    Draws one word of ``steps`` random maps per trial.  For ``d <= 4`` the
    partial sum ``S_p``, the log growth of ``e_1 ^ ... ^ e_p`` under the
    p-th compound matrices (Furstenberg & Kesten 1960), is read from one
    renormalised column per trial for each ``p < d``, and ``S_d`` is the
    symbol counts times ``log|det A_i|``; the column rates are ``S_j -
    S_{j-1}``.  For ``d >= 5`` one orthonormal d-frame per trial is
    QR-renormalised (:func:`_schedule`) and its ``log|diag R|`` sums are the
    column rates, the same quantities.
    Exponents are the column rates divided by ``-steps``, sorted ascending
    per trial and averaged; ``stderr`` comes from the independent trials.
    Adjacent exponents whose gap is at most ``0.05 * mean(chi)`` merge into
    one block of the multiplicities.

    Parameters
    ----------
    maps : sequence of (d, d) arrays
        Contractive invertible matrices.
    weights : BernoulliWeights
        Symbol law; one word of length ``steps`` is drawn per trial.
    steps, trials : int
        Word length (>= 100) and number of independent trials.
    rng : numpy Generator or int seed, optional
    """
    mats = as_map_stack(maps)
    _check_weights(weights, mats)
    if steps < 100:
        raise ValueError("steps must be at least 100")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(rng)
    narrow = np.min_scalar_type(weights.n - 1)
    words = _draw_words(rng, weights.p, np.empty((trials, steps), narrow))
    d = mats.shape[1]
    if d > _MAX_COMPOUND_D:
        _, sums = _propagate(mats, words)
    else:
        partial = np.zeros((trials, d + 1))
        for p in range(1, d):
            compounds = exterior_power(mats, p)
            _, grow = _propagate(compounds, words, np.eye(compounds.shape[1])[:, :1])
            partial[:, p] = grow[:, 0]
        partial[:, d] = _symbol_counts(words, mats.shape[0]) @ np.linalg.slogdet(mats)[1]
        sums = np.diff(partial, axis=1)

    per_trial = np.sort(-sums / steps, axis=1)
    chi = per_trial.mean(axis=0)
    stderr = per_trial.std(axis=0, ddof=1) / np.sqrt(trials) if trials > 1 else None
    threshold = 0.05 * float(chi.mean())
    mult = _multiplicities_from_gaps(chi, threshold)
    return LyapunovSpectrum(chi, stderr, mult, threshold, per_trial)


def furstenberg_sample(
    maps, weights: BernoulliWeights, iterations: int, count: int, rng=None
) -> np.ndarray:
    """Sample the stationary flag distribution of the inverse matrix action.

    Each sample applies the inverses of ``iterations`` i.i.d. maps to an
    independent random orthonormal frame, first symbol outermost, so it is
    the frame carried to time zero along the word; for large ``iterations``
    the law of the flag it spans approximates the stationary distribution,
    which one more iteration leaves unchanged.

    Returns the (count, d, d) array ``q`` of orthonormal frames: for each
    ``k`` in ``1..d-1``, ``q[s, :, :k]`` spans sample ``s``'s k-dimensional
    flag member, so the members nest by construction.  Samples are drawn
    and reduced in index order, so output is deterministic given the seed.
    """
    mats = as_map_stack(maps)
    _check_weights(weights, mats)
    d = mats.shape[1]
    rng = np.random.default_rng(rng)
    if iterations < 1 or count < 1:
        raise ValueError("iterations and count must be positive")

    invs = np.linalg.inv(mats)
    words = _draw_words(rng, weights.p, np.empty((count, iterations), dtype=np.int64))
    q, _ = qr_positive(rng.standard_normal((count, d, d)))
    # the first symbol is applied last, so it ends up outermost
    q, _ = _propagate(invs, words[:, ::-1], q)
    return q
