"""Dominated-splitting detection and invariant bundle estimation.

Scans singular-value gap ratios over all words up to a budgeted length,
fits decay rates to decide domination per index, tabulates the smallest
minors that the STP and exterior-cone conditions read, and estimates the
strongly/weakly contracted bundles at a dominated index.

Index convention: index ``i`` (1-based, in ``1..d-1``) names the gap between
the i-th and (i+1)-th largest singular values; it equals the dimension of the
weakly contracted bundle at that index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycle import (
    PRODUCT_BUDGET,
    _check_word,
    _propagate,
    as_map_stack,
)
from .errors import BudgetExceededError, SpectralGapError, SubspaceInconsistencyError
from .linalg import (
    SubspaceFrame,
    _freeze,
    as_matrix,
    exterior_power,
    principal_angle_distance,
    smallest_principal_angle,
)

__all__ = [
    "EPS_SLOPE",
    "EPS_MINOR",
    "bundle_growth_ratios",
    "GapRatioTable",
    "IndexDomination",
    "DominationReport",
    "BundleEstimate",
    "gap_ratio_scan",
    "detect_domination",
    "smallest_minors",
    "strong_stable_bundle",
]

EPS_SLOPE = 0.01
EPS_MINOR = 1e-12
MIN_FIT_LENGTH = 6
SCAN_N_MAX = 8  # the default longest word of a gap-ratio scan
RESIDUAL_TOL = 0.5
# a bundle estimate needs a gap ratio below BUNDLE_GAP_TOL at its depth and a
# one-step equivariance residual below BUNDLE_EQUIV_TOL
BUNDLE_GAP_TOL = 1e-5
BUNDLE_EQUIV_TOL = 1e-4
# floats of normalised compound products held by one batch of the exhaustive
# scan; keeps memory bounded for d = 8, where one word holds ~13k floats
_SCAN_BATCH_FLOATS = 1 << 18


@dataclass(frozen=True)
class GapRatioTable:
    """Per-length maxima of the singular-value gap ratios, in log space.

    ``log_ratios[n, j]`` is the max over all words of length ``n`` of
    ``log(alpha_{i+1}/alpha_i)`` for math index ``i = j + 1``, where
    ``alpha`` are singular values in descending order.  Row 0 is the identity.
    """

    d: int
    n_max: int
    log_ratios: np.ndarray
    products_examined: int

    def __post_init__(self):
        lr = np.asarray(self.log_ratios, dtype=float)
        if lr.shape != (self.n_max + 1, max(self.d - 1, 0)):
            raise ValueError(f"table shape {lr.shape} does not match n_max={self.n_max}, d={self.d}")
        _freeze(self, log_ratios=lr)

    def log_ratio_for_index(self, i: int) -> np.ndarray:
        """Column of per-length max log ratios for math index ``i``."""
        if not 1 <= i <= self.d - 1:
            raise ValueError(f"index must be in 1..{self.d - 1}")
        return self.log_ratios[:, i - 1]


def _log_ratios_from_compound_norms(log_norms: np.ndarray) -> np.ndarray:
    """Second difference of ``log ||wedge^p||`` gives per-index log gap ratios.

    Works along the last axis, so a (words, d) array gives one row per word.
    """
    padded = np.concatenate([np.zeros(log_norms.shape[:-1] + (1,)), log_norms], axis=-1)
    return padded[..., 2:] - 2.0 * padded[..., 1:-1] + padded[..., :-2]


def _two_norms(a: np.ndarray) -> np.ndarray:
    """2-norms of a stack of square matrices, from the top eigenvalue of each Gram.

    ``||a||_2`` is the root of the largest eigenvalue of ``a^T a``.  By Weyl's
    bound the computed eigenvalue is within about ``n eps ||a||^2`` of it, so
    the norm keeps full relative accuracy however small the other singular
    values are, as long as ``||a||^2`` is a normal float.  No SVD is formed.
    """
    return np.sqrt(np.linalg.eigvalsh(np.swapaxes(a, -2, -1) @ a)[..., -1])


def gap_ratio_scan(maps, n_max: int, budget: int = PRODUCT_BUDGET) -> GapRatioTable:
    """Exact per-length maxima of gap ratios over every word up to ``n_max``.

    Words are enumerated depth-first in batches; each batch keeps the
    normalised compound products of its words (one per exterior order) and
    their log norms, so the N children of every word are formed at once.
    A batch holds at most ``_SCAN_BATCH_FLOATS`` floats of products, or the
    children of a single word when those alone are more.

    Each child's 2-norm comes from its Gram (:func:`_two_norms`), and the
    child is divided by it in place.  A child of order ``p < d`` has norm at
    least the p-th power of the smallest singular value of a map, so above
    ``DET_EPS ** 7``, whose square is a normal float: the Gram costs the norm
    no accuracy.  Order d is read from determinants, as the spectrum reads
    ``S_d``: a child's log norm is its parent's plus ``log|det A_s|``, so at
    ``d = 1`` no product is formed, yet every word counts as examined.

    Raises :class:`BudgetExceededError` when ``N ** n_max`` exceeds ``budget``.
    """
    mats = as_map_stack(maps)
    n_maps, d = mats.shape[0], mats.shape[1]
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_maps**n_max > budget:
        raise BudgetExceededError(
            f"{n_maps}^{n_max} words exceed the {budget} product budget"
        )
    compounds = [exterior_power(mats, p) for p in range(1, d)]
    log_dets = np.log(np.abs(np.linalg.det(mats)))
    floats_per_word = sum(c[0].size for c in compounds)
    # at d = 1 a word holds no products, only its log|det|
    parents_per_batch = max(1, _SCAN_BATCH_FLOATS // max(1, floats_per_word * n_maps))
    best = np.full((n_max + 1, d - 1), -np.inf)
    best[0, :] = 0.0
    products_examined = 0

    # stack entries: (depth, normalised compound products of orders 1..d-1,
    # log norms of orders 1..d)
    stack = [(0, [np.eye(c.shape[1])[None] for c in compounds], np.zeros((1, d)))]
    while stack:
        depth, prods, offs = stack.pop()
        if depth > 0:
            ratios = _log_ratios_from_compound_norms(offs).max(axis=0)
            best[depth, :] = np.maximum(best[depth, :], ratios)
        if depth == n_max:
            continue
        for lo in range(0, len(offs), parents_per_batch):
            part = slice(lo, lo + parents_per_batch)
            children, logs = [], []
            for prod, comp, off in zip(prods, compounds, offs[part, :-1].T):
                nxt = prod[part, None] @ comp[None]
                norm = _two_norms(nxt)
                nxt /= norm[..., None, None]
                children.append(nxt.reshape((-1,) + comp.shape[1:]))
                logs.append((off[:, None] + np.log(norm)).ravel())
            logs.append((offs[part, -1, None] + log_dets).ravel())
            products_examined += len(logs[0])
            stack.append((depth + 1, children, np.stack(logs, axis=1)))
    return GapRatioTable(d, n_max, best, products_examined)


@dataclass(frozen=True)
class IndexDomination:
    """Fitted decay diagnosis for one gap index."""

    index: int
    status: str  # dominated | non-dominated | inconclusive
    decay_rate: float
    constant_estimate: float
    n_max: int


@dataclass(frozen=True)
class DominationReport:
    """Per-index domination statuses."""

    indices: tuple[IndexDomination, ...]

    def __post_init__(self):
        for item in self.indices:
            if item.status == "dominated" and not item.decay_rate < -EPS_SLOPE:
                raise ValueError(
                    f"index {item.index} marked dominated but decay rate "
                    f"{item.decay_rate:.4g} is not below -{EPS_SLOPE}"
                )

    @property
    def dominated_indices(self) -> tuple[int, ...]:
        return tuple(it.index for it in self.indices if it.status == "dominated")


def detect_domination(table: GapRatioTable) -> DominationReport:
    """Decide domination per index from a gap-ratio table.

    Fits ``log max-ratio ~ intercept + rate * n`` over lengths ``1..n_max``.
    An index is dominated when the rate is below ``-EPS_SLOPE`` with a tight
    fit (no residual above ``RESIDUAL_TOL``), non-dominated when the rate is
    above with a tight fit (ratios stay bounded below), and inconclusive
    otherwise -- never guessed.  The reported constant is the smallest C with
    ``max-ratio <= C * exp(rate * n)`` over every observed length.
    """
    if table.n_max < MIN_FIT_LENGTH:
        raise ValueError(f"table must cover lengths up to at least {MIN_FIT_LENGTH}")
    lengths = np.arange(1, table.n_max + 1, dtype=float)
    items = []
    for i in range(1, table.d):
        y = table.log_ratio_for_index(i)[1:]
        rate, intercept = np.polyfit(lengths, y, 1)
        resid = np.max(np.abs(y - (rate * lengths + intercept)))
        if rate < -EPS_SLOPE and resid <= RESIDUAL_TOL:
            status = "dominated"
        elif rate >= -EPS_SLOPE and resid <= RESIDUAL_TOL:
            status = "non-dominated"
        else:
            status = "inconclusive"
        all_lengths = np.arange(0, table.n_max + 1, dtype=float)
        constant = float(np.exp(np.max(table.log_ratio_for_index(i) - rate * all_lengths)))
        items.append(IndexDomination(i, status, float(rate), constant, table.n_max))
    return DominationReport(tuple(items))


def smallest_minors(maps) -> np.ndarray:
    """``(N, d)`` table whose entry ``(j, p - 1)`` is map j's smallest p x p minor.

    Column ``d - 1`` is the determinant.  A map is strictly totally positive
    when its minors of order 1..d-1 exceed ``EPS_MINOR`` (vacuously at
    ``d = 1``); every map takes the closed positive p-fold exterior orthant
    into its interior when all of column ``p - 1`` does.  Maps need not contract.
    """
    mats = as_matrix(maps)
    return np.stack([exterior_power(mats, p).min(axis=(-2, -1))
                     for p in range(1, mats.shape[-1] + 1)], axis=-1)


@dataclass(frozen=True)
class BundleEstimate:
    """Estimated invariant splitting at one dominated index.

    ``fast`` is the (d-i)-dimensional strongly contracted bundle (read off
    the forward word), ``slow`` the i-dimensional weakly contracted bundle
    (read off the backward word).  ``angle_lower_bound`` is the smallest
    principal angle between them, ``growth_ratio_sup`` the observed supremum
    of ``||A^(n) restricted to fast|| / alpha_{i+1}(A^(n))``.
    """

    index: int
    fast: SubspaceFrame
    slow: SubspaceFrame
    angle_lower_bound: float
    equivariance_angle: float
    growth_ratio_sup: float

    def __post_init__(self):
        if self.fast.d != self.slow.d or self.fast.k + self.slow.k != self.fast.d:
            raise SubspaceInconsistencyError(
                f"bundle dims {self.fast.k}+{self.slow.k} do not split R^{self.fast.d}"
            )
        if not self.angle_lower_bound > 0:
            raise SubspaceInconsistencyError("bundles are not numerically transversal")



def bundle_growth_ratios(
    maps, word, frame: SubspaceFrame, index: int, depth: int
) -> np.ndarray:
    """Per-step ratios ``||A^(n)|frame|| / alpha_{index+1}(A^(n))``, log-stable.

    Both the restricted norm and the singular value are accumulated through
    QR-renormalised frame propagation (one step at a time), so deep products
    whose singular values underflow raw double precision stay resolvable.
    """
    mats = as_map_stack(maps)
    d = mats.shape[1]
    if not 1 <= index <= d - 1:
        raise ValueError(f"index must be in 1..{d - 1}")
    w = _check_word(word, mats.shape[0])
    if depth < 1 or depth > w.size:
        raise ValueError(f"depth must be in 1..{w.size}")
    if frame.d != d:
        raise ValueError("frame ambient dimension does not match the maps")
    k = frame.k
    # one batch of two d-frames: the frame completed by its complement, and
    # the identity; the first k columns of a Householder QR depend only on
    # the first k columns it factors, so they carry the frame's own growth
    start = frame.frame if k == d else np.hstack([frame.frame, frame.complement().frame])
    q, sums = np.stack([start, np.eye(d)]), np.zeros((2, d))
    words = np.stack([w[:depth], w[:depth]])
    out = np.empty(depth)
    for n in range(depth):
        q, grow = _propagate(mats, words[:, n : n + 1], q)
        sums += grow
        alpha = np.sort(sums[1])[::-1][index]
        out[n] = np.exp(sums[0, :k].max() - alpha)
    return out


def _sorted_growth_frame(use: np.ndarray, symbols: np.ndarray):
    """Propagate the identity frame along one word; columns sorted by growth, largest first.

    Identity starts on axis-aligned systems keep columns in axis order, so
    the sort is what puts the dominant directions first.
    """
    q, sums = _propagate(use, symbols[None])
    order = np.argsort(-sums[0], kind="stable")
    return q[0][:, order], sums[0][order]


def strong_stable_bundle(
    maps, word, i: int, depth: int, domination: DominationReport
) -> BundleEstimate:
    """Estimate the invariant bundles at dominated index ``i`` along a word.

    The fast bundle is the span of the d-i most contracted right-singular
    directions of the forward product over ``word[:depth]``; the slow bundle
    comes symmetrically from the ``i`` dominant image directions of the
    product over the same word, read as the past.  Verifies the one-step
    equivariance of the fast bundle to ``BUNDLE_EQUIV_TOL`` and records the
    supremum of the restricted-norm growth ratio.

    Raises ``ValueError`` if ``i`` is not dominated in ``domination`` and
    :class:`SpectralGapError` when the depth leaves the split ambiguous.
    """
    mats = as_map_stack(maps)
    d = mats.shape[1]
    if i not in domination.dominated_indices:
        raise ValueError(f"index {i} is not dominated; refusing to estimate bundles")
    w = _check_word(word, mats.shape[0])
    if depth < 2 or depth + 1 > w.size:
        raise ValueError("need 2 <= depth <= len(word) - 1")
    invs = np.linalg.inv(mats)
    # fast bundle: dominant image directions of the inverse-order product
    q_f, sums_f = _sorted_growth_frame(invs, w[:depth][::-1])
    gap_f = float(np.exp(sums_f[d - i] - sums_f[d - i - 1]))
    # slow bundle: dominant image directions of the past product
    q_s, sums_s = _sorted_growth_frame(mats, w[:depth][::-1])
    gap_s = float(np.exp(sums_s[i] - sums_s[i - 1]))
    worst = max(gap_f, gap_s)
    if worst > BUNDLE_GAP_TOL:
        raise SpectralGapError(
            f"depth {depth} leaves gap ratio {worst:.3g} above {BUNDLE_GAP_TOL:g} at index {i}"
        )
    fast = SubspaceFrame(q_f[:, : d - i])
    slow = SubspaceFrame(q_s[:, :i])

    # one-step equivariance: the map by A_{w0} carries the bundle forward
    q_shift, _ = _sorted_growth_frame(invs, w[1 : depth + 1][::-1])
    shifted = SubspaceFrame(q_shift[:, : d - i])
    pushed = SubspaceFrame.from_span(mats[w[0]] @ fast.frame)
    equiv = principal_angle_distance(pushed, shifted)
    if equiv > BUNDLE_EQUIV_TOL:
        raise SpectralGapError(
            f"fast bundle equivariance residual {equiv:.3g} exceeds {BUNDLE_EQUIV_TOL:g}; "
            "increase depth"
        )

    sup_ratio = float(bundle_growth_ratios(maps, w, fast, i, depth).max())

    angle = smallest_principal_angle(fast, slow)
    return BundleEstimate(i, fast, slow, angle, float(equiv), float(sup_ratio))
