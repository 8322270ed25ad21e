"""Random matrix cocycles driven by i.i.d. symbols.

Provides word sampling, matrix products along words, Lyapunov spectrum
estimation with re-orthonormalised frame propagation, fast-subspace flag
estimation, backward-iteration sampling of the stationary flag distribution,
and Bernoulli entropy.

All estimators consume a ``numpy.random.Generator`` (or an integer seed) and
are bitwise deterministic given the seed.  Trials and samples are independent
given the derived draws and are always reduced in trial/sample index order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import SpectralGapError
from .linalg import (
    FlagChain,
    SubspaceFrame,
    check_contractive_invertible,
    exterior_power,
    qr_positive,
)

__all__ = [
    "BernoulliWeights",
    "LyapunovSpectrum",
    "FlagSample",
    "as_map_stack",
    "safe_renorm_interval",
    "sample_word",
    "word_product",
    "entropy",
    "lyapunov_spectrum",
    "exterior_partial_sum_estimate",
    "oseledets_fast_flag",
    "furstenberg_sample",
    "furstenberg_step",
]

WEIGHT_SUM_TOL = 1e-12
DEFAULT_RENORM_EVERY = 10
# keep the singular-value spread accumulated between renormalisations well
# below 1/eps so the most contracted directions stay resolvable
_MAX_LOG_SPREAD_PER_RENORM = 30.0
# floats of step matrices gathered at once by the frame propagation kernel
_PROPAGATE_CHUNK_FLOATS = 1 << 16
# symbols drawn by one generator call, bounding its float and int64 temporaries
_WORD_BLOCK_SYMBOLS = 1 << 16
# most symbols drawn by comparison passes (each symbol then fits in uint8);
# searchsorted draws larger alphabets faster
_DRAW_COMPARE_MAX = 256


def safe_renorm_interval(mats: np.ndarray, requested: int) -> int:
    """Shorten the renormalisation interval for badly conditioned maps."""
    sv = np.linalg.svd(mats, compute_uv=False)
    log_cond = float(np.max(np.log(sv[:, 0] / sv[:, -1])))
    if log_cond <= 0:
        return max(1, requested)
    return max(1, min(requested, int(_MAX_LOG_SPREAD_PER_RENORM / log_cond)))


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
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.p.size

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.p > 0))

    @classmethod
    def uniform(cls, n: int) -> "BernoulliWeights":
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class LyapunovSpectrum:
    """Estimated exponents 0 < chi_1 <= ... <= chi_d in nats per symbol.

    ``multiplicities`` are the block sizes found by merging exponents whose
    gap is below ``gap_threshold``; ``trial_exponents`` holds the per-trial
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
        chi = chi.copy()
        chi.flags.writeable = False
        object.__setattr__(self, "exponents", chi)
        if sum(self.multiplicities) != chi.size or any(m < 1 for m in self.multiplicities):
            raise ValueError(f"multiplicities {self.multiplicities} do not partition d={chi.size}")

    @property
    def d(self) -> int:
        return self.exponents.size

    @property
    def simple(self) -> bool:
        return all(m == 1 for m in self.multiplicities)

    def block_boundaries(self) -> tuple[int, ...]:
        """Cumulative block sizes d_1, d_1+d_2, ..., excluding the final d."""
        return tuple(np.cumsum(self.multiplicities)[:-1].tolist())


@dataclass(frozen=True)
class FlagSample:
    """One sampled flag together with the word that generated it."""

    flag: FlagChain
    word_prefix: np.ndarray


def as_map_stack(maps, d: int | None = None, require_contractive: bool = True) -> np.ndarray:
    """Stack a tuple of matrices into an (N, d, d) array, validating each."""
    mats = [
        check_contractive_invertible(m) if require_contractive else np.asarray(m, dtype=float)
        for m in maps
    ]
    if not mats:
        raise ValueError("need at least one map")
    stack = np.stack(mats)
    if stack.shape[1] != stack.shape[2]:
        raise ValueError("maps must be square matrices")
    if d is not None and stack.shape[1] != d:
        raise ValueError(f"expected {d}x{d} maps, got {stack.shape[1]}x{stack.shape[2]}")
    return stack


def sample_word(weights: BernoulliWeights, n: int, rng=None) -> np.ndarray:
    """Draw ``n`` i.i.d. symbols (0-based) with the given law."""
    if n < 1:
        raise ValueError("word length must be at least 1")
    rng = np.random.default_rng(rng)
    return _draw_words(rng, weights.p, np.empty(n, dtype=np.int64))


def _check_word(word, n_maps: int) -> np.ndarray:
    w = np.asarray(word, dtype=np.int64).ravel()
    if w.size and (w.min() < 0 or w.max() >= n_maps):
        raise ValueError(f"word symbols must lie in 0..{n_maps - 1}")
    return w


def word_product(maps, word) -> np.ndarray:
    """Left-to-right product of the maps named by ``word`` (empty -> identity)."""
    mats = as_map_stack(maps, require_contractive=False)
    w = _check_word(word, mats.shape[0])
    out = np.eye(mats.shape[1])
    for s in w:
        out = out @ mats[s]
    return out


def entropy(weights: BernoulliWeights) -> float:
    """Shannon entropy of the weights in nats."""
    p = weights.p[weights.p > 0]
    return float(-(p * np.log(p)).sum())


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


def _propagate(
    use: np.ndarray, words: np.ndarray, renorm_every: int, q0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Push one frame per word through ``use[s]`` for each symbol, in order.

    ``words`` is a (batch, steps) symbol array and ``q0`` a (d, k) or
    (batch, d, k) starting frame (the identity by default).  Frames are
    re-orthonormalised by QR every ``renorm_every`` steps and after the last
    one, summing ``log|diag R|``.  Returns the final orthonormal frames and
    the per-column log growth, which estimates the log singular values of
    each word's product (in column order, not sorted).

    The floating-point operations are exactly those of ``q = use[words[:, t]]
    @ q`` per step and ``np.linalg.qr`` per renorm, so the results are
    bit-identical to that loop; only the work around them is cut.  Step
    matrices are gathered time-major in chunks of at most
    ``_PROPAGATE_CHUNK_FLOATS`` floats, and each step multiplies by one
    contiguous slice of the chunk.  Each renorm calls the two LAPACK gufuncs
    that ``np.linalg.qr`` wraps (``geqrf``, then ``orgqr``) without the
    wrapper's copy, ``triu`` and error-state set-up: ``qr_r_raw`` factors the
    fresh matmul output in place, its diagonal is R's, and ``qr_reduced``
    forms Q from it.  A NaN frame stays NaN, as under ``np.linalg.qr``.
    """
    q0 = np.eye(use.shape[1]) if q0 is None else np.asarray(q0, dtype=float)
    batch, steps = words.shape
    q = np.broadcast_to(q0, (batch,) + q0.shape[-2:]).copy()
    sums = np.zeros((batch, q.shape[2]))
    chunk = max(1, _PROPAGATE_CHUNK_FLOATS // max(1, batch * use[0].size))
    for c0 in range(0, steps, chunk):
        for t, step in enumerate(use[words[:, c0:c0 + chunk].T], c0):
            q = step @ q
            if (t + 1) % renorm_every == 0 or t == steps - 1:
                # factors q in place: R on and above its diagonal
                tau = _umath_linalg.qr_r_raw(q, signature="d->d")
                sums += np.log(np.abs(q.diagonal(0, -2, -1)))
                q = _umath_linalg.qr_reduced(q, tau, signature="dd->d")
    return q, sums


def _sorted_growth_frame(use: np.ndarray, symbols: np.ndarray, renorm_every: int):
    """Propagate the identity frame along one word; columns sorted by growth, largest first.

    Identity starts on axis-aligned systems keep columns in axis order, so
    the sort is what puts the dominant directions first.
    """
    q, sums = _propagate(use, symbols[None], renorm_every)
    order = np.argsort(-sums[0], kind="stable")
    return q[0][:, order], sums[0][order]


def _multiplicities_from_gaps(chi: np.ndarray, threshold: float) -> tuple[int, ...]:
    blocks = [1]
    for j in range(1, chi.size):
        if chi[j] - chi[j - 1] <= threshold:
            blocks[-1] += 1
        else:
            blocks.append(1)
    return tuple(blocks)


def lyapunov_spectrum(
    maps,
    weights: BernoulliWeights,
    steps: int,
    trials: int,
    rng=None,
    renorm_every: int = DEFAULT_RENORM_EVERY,
    gap_threshold: float | None = None,
) -> LyapunovSpectrum:
    """Estimate the Lyapunov spectrum of the i.i.d. matrix cocycle.

    Propagates one orthonormal d-frame per trial through ``steps`` random
    maps, re-orthonormalising every ``renorm_every`` steps and accumulating
    the log diagonal of R.  The column sums estimate the log singular values
    of the (never formed) product, so partial sums over the leading ``p``
    columns estimate ``chi_1 + ... + chi_p`` via the p-fold exterior norm.
    Exponents are the differenced column rates, sorted ascending per trial
    and averaged; ``stderr`` comes from the independent trials.

    Parameters
    ----------
    maps : sequence of (d, d) arrays
        Contractive invertible matrices.
    weights : BernoulliWeights
        Symbol law; one word of length ``steps`` is drawn per trial.
    steps, trials : int
        Word length (>= 100) and number of independent trials.
    rng : numpy Generator or int seed, optional
    renorm_every : int
        Requested steps between re-orthonormalisations; shortened
        automatically for badly conditioned maps (see
        :func:`safe_renorm_interval`).
    gap_threshold : float, optional
        Merge exponents closer than this into one block; defaults to
        ``0.05 * mean(chi)``.
    """
    mats = as_map_stack(maps)
    if steps < 100:
        raise ValueError("steps must be at least 100")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(rng)
    renorm_every = safe_renorm_interval(mats, renorm_every)
    narrow = np.min_scalar_type(weights.n - 1)
    words = _draw_words(rng, weights.p, np.empty((trials, steps), narrow))
    _, sums = _propagate(mats, words, renorm_every)

    per_trial = np.sort(-sums / steps, axis=1)
    chi = per_trial.mean(axis=0)
    stderr = per_trial.std(axis=0, ddof=1) / np.sqrt(trials) if trials > 1 else None
    threshold = 0.05 * float(chi.mean()) if gap_threshold is None else float(gap_threshold)
    mult = _multiplicities_from_gaps(chi, threshold)
    return LyapunovSpectrum(chi, stderr, mult, threshold, per_trial)


def exterior_partial_sum_estimate(
    maps,
    weights: BernoulliWeights,
    p: int,
    steps: int,
    trials: int,
    rng=None,
    renorm_every: int = DEFAULT_RENORM_EVERY,
) -> tuple[float, float | None]:
    """Estimate ``chi_1 + ... + chi_p`` through the p-fold compound cocycle.

    Independent of :func:`lyapunov_spectrum`: pushes one vector per trial
    through the compound matrices and reads the top growth rate, which equals
    minus the partial sum for contractive cocycles.  Returns (mean, stderr).
    """
    mats = as_map_stack(maps)
    d = mats.shape[1]
    if not 1 <= p <= d:
        raise ValueError(f"need 1 <= p <= {d}")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    compounds = np.stack([exterior_power(m, p) for m in mats])
    rng = np.random.default_rng(rng)
    renorm_every = safe_renorm_interval(compounds, renorm_every)
    narrow = np.min_scalar_type(weights.n - 1)
    words = _draw_words(rng, weights.p, np.empty((trials, steps), narrow))
    v = rng.standard_normal((trials, compounds.shape[1], 1))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    _, sums = _propagate(compounds, words, renorm_every, v)
    estimates = -sums[:, 0] / steps
    err = float(estimates.std(ddof=1) / np.sqrt(trials)) if trials > 1 else None
    return float(estimates.mean()), err


def oseledets_fast_flag(
    maps,
    word,
    depth: int,
    angle_tol: float = 1e-6,
    renorm_every: int = DEFAULT_RENORM_EVERY,
) -> FlagChain:
    """Estimate the nested slow subspaces of the inverse cocycle along ``word``.

    The k-dimensional member is the span of the k leading image directions of
    the forward product over the first ``depth`` symbols, equivalently the
    right-singular directions of the inverse-order product with the smallest
    singular values.  A split at k is accepted only where the observed
    singular-value ratio across it is below ``angle_tol / 10``; if no split
    qualifies a :class:`SpectralGapError` reports the best observed ratio.
    """
    mats = as_map_stack(maps)
    w = _check_word(word, mats.shape[0])
    if depth < 1 or depth > w.size:
        raise ValueError(f"depth must be in 1..{w.size}")
    d = mats.shape[1]
    if d == 1:
        raise SpectralGapError("no flags exist in ambient dimension 1", observed_gap=1.0)
    renorm_every = safe_renorm_interval(mats, renorm_every)
    # product A_{w0} A_{w1} ... applied to a frame: iterate the word backwards
    q, sums = _sorted_growth_frame(mats, w[:depth][::-1], renorm_every)
    ratios = np.exp(sums[1:] - sums[:-1])  # sigma_{k+1}/sigma_k at this depth
    splits = [k for k in range(1, d) if ratios[k - 1] <= angle_tol / 10.0]
    if not splits:
        raise SpectralGapError(
            f"no singular-value split below {angle_tol / 10.0:g} at depth {depth}"
            f" (best ratio {ratios.min():.3g})",
            observed_gap=float(ratios.min()),
        )
    frames = [SubspaceFrame(q[:, :k]) for k in sorted(splits, reverse=True)]
    return FlagChain(tuple(frames))


def furstenberg_sample(
    maps,
    weights: BernoulliWeights,
    iterations: int,
    count: int,
    rng=None,
    dims: tuple[int, ...] | None = None,
    spectrum: LyapunovSpectrum | None = None,
    renorm_every: int = DEFAULT_RENORM_EVERY,
    probe_steps: int = 2000,
    probe_trials: int = 6,
) -> list[FlagSample]:
    """Sample the stationary flag distribution of the inverse matrix action.

    Each sample applies the inverses of ``iterations`` i.i.d. maps to an
    independent random orthonormal frame, first symbol outermost, so the
    returned flag is the one carried to time zero along the word; for large
    ``iterations`` its law approximates the stationary distribution.  Flag
    dimensions default to the blocks of ``spectrum`` (estimated with a short
    probe run when not supplied); with a single block there is no invariant
    flag and a :class:`SpectralGapError` is raised.

    Samples are drawn and reduced in index order, so output is deterministic
    given the seed.
    """
    mats = as_map_stack(maps)
    d = mats.shape[1]
    rng = np.random.default_rng(rng)
    if iterations < 1 or count < 1:
        raise ValueError("iterations and count must be positive")
    if dims is None:
        if spectrum is None:
            spectrum = lyapunov_spectrum(maps, weights, probe_steps, probe_trials, rng)
        if len(spectrum.multiplicities) == 1:
            raise SpectralGapError(
                "no spectral gap detected: all exponents fall in one block",
                observed_gap=0.0,
            )
        dims = tuple(d - b for b in spectrum.block_boundaries())
    dims = tuple(int(k) for k in dims)
    if not dims or any(not 0 < k < d for k in dims) or any(
        b >= a for a, b in zip(dims, dims[1:])
    ):
        raise ValueError(f"flag dims must be strictly decreasing within 1..{d - 1}, got {dims}")

    invs = np.linalg.inv(mats)
    renorm_every = safe_renorm_interval(mats, renorm_every)
    words = _draw_words(rng, weights.p, np.empty((count, iterations), dtype=np.int64))
    q, _ = qr_positive(rng.standard_normal((count, d, d)))
    # the first symbol is applied last, so it ends up outermost
    q, _ = _propagate(invs, words[:, ::-1], renorm_every, q)

    samples = []
    for i in range(count):
        frames = tuple(SubspaceFrame(q[i][:, :k]) for k in dims)
        samples.append(FlagSample(FlagChain(frames), words[i].copy()))
    return samples


def furstenberg_step(
    maps, weights: BernoulliWeights, samples: list[FlagSample], rng=None
) -> list[FlagSample]:
    """Push each sampled flag through one more inverse-map step.

    Draws one symbol per sample and maps its flag through the corresponding
    inverse matrix; the symbol is prepended to the stored word.  For a
    converged sample set the empirical flag distribution is unchanged in law,
    which is the stationarity self-test.
    """
    mats = as_map_stack(maps)
    invs = np.linalg.inv(mats)
    rng = np.random.default_rng(rng)
    symbols = _draw_words(rng, weights.p, np.empty(len(samples), dtype=np.int64))
    out = []
    for s, sample in zip(symbols, samples):
        frames = tuple(SubspaceFrame.from_span(invs[s] @ f.frame) for f in sample.flag.frames)
        word = np.concatenate(([s], sample.word_prefix))
        out.append(FlagSample(FlagChain(frames), word))
    return out
