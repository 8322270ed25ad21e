"""Affine iterated function systems and their stationary measures.

Natural projection of symbol words to points, seeded sampling of the
stationary measure, certified separation checks on cylinder hulls, the
one-dimension-up lift that always separates, projections of sampled clouds,
and pointwise (ball-mass slope) dimension estimation.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .cocycle import BernoulliWeights, as_map_stack, _check_word, _draw_words, _WORD_BLOCK_SYMBOLS
from .linalg import SubspaceFrame, singular_values

__all__ = [
    "IfsSystem",
    "PointCloud",
    "SeparationVerdict",
    "BoxCheck",
    "SelfAffinityReport",
    "LiftedIfs",
    "LocalDimensionReport",
    "BoxCountReport",
    "natural_projection",
    "sample_measure",
    "self_affinity_check",
    "check_separation",
    "lift_ifs",
    "project_cloud",
    "local_dimension_estimate",
    "box_counting_dimension",
    "cloud_to_csv",
    "cloud_from_csv",
]

DEFAULT_SEPARATION_BUDGET = 10**6
DEFAULT_RADII_COUNT = 24
DEFAULT_RADII_RATIO = 0.8
MIN_USABLE_RADII = 20
_SWEEP_BLOCK = 1 << 18  # candidate pairs per chunk of a distance search: near cache size


@dataclass(frozen=True)
class IfsSystem:
    """Affine maps ``x -> A_i x + t_i`` with Bernoulli weights."""

    matrices: np.ndarray
    translations: np.ndarray
    weights: BernoulliWeights

    def __post_init__(self):
        mats = as_map_stack(list(np.asarray(self.matrices, dtype=float)))
        ts = np.asarray(self.translations, dtype=float)
        if ts.shape != (mats.shape[0], mats.shape[1]):
            raise ValueError(
                f"translations shape {ts.shape} does not match {mats.shape[0]} maps in R^{mats.shape[1]}"
            )
        if not np.all(np.isfinite(ts)):
            raise ValueError("translations have non-finite entries")
        if self.weights.n != mats.shape[0]:
            raise ValueError(f"{self.weights.n} weights for {mats.shape[0]} maps")
        mats = mats.copy()
        ts = ts.copy()
        mats.flags.writeable = False
        ts.flags.writeable = False
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "translations", ts)

    @property
    def n_maps(self) -> int:
        return self.matrices.shape[0]

    @property
    def d(self) -> int:
        return self.matrices.shape[1]

    @cached_property
    def top_singular_values(self) -> np.ndarray:
        return np.array([singular_values(m)[-1] for m in self.matrices])

    @cached_property
    def bottom_singular_values(self) -> np.ndarray:
        return np.array([singular_values(m)[0] for m in self.matrices])

    @cached_property
    def bounding_radius(self) -> float:
        """Radius R with the attractor inside the ball B(0, R)."""
        tmax = float(np.linalg.norm(self.translations, axis=1).max())
        return tmax / (1.0 - float(self.top_singular_values.max()))

    def truncation_bound(self, words) -> np.ndarray:
        """Truncation error ``R * prod(alpha_1(A_{w_k}))`` of each word (over the last axis)."""
        return self.bounding_radius * np.prod(self.top_singular_values[words], axis=-1)

    def apply(self, i: int, x) -> np.ndarray:
        """Apply map ``i`` to a point or an (..., d) array of points."""
        pts = np.asarray(x, dtype=float)
        return pts @ self.matrices[i].T + self.translations[i]

    def map_fixed_point(self, i: int) -> np.ndarray:
        return np.linalg.solve(np.eye(self.d) - self.matrices[i], self.translations[i])


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself when it is read-only and owns its data, else a read-only copy."""
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PointCloud:
    """Sampled points with their generating words and truncation bounds.

    ``words`` and ``errors`` are ``None`` for synthetic clouds that came
    from somewhere other than an IFS.
    """

    points: np.ndarray
    words: np.ndarray | None
    errors: np.ndarray | None
    depth: int | None
    seed: int | None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be an (m, k) array")
        if not np.isfinite(pts).all():
            bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
            raise ValueError(f"point {bad} has non-finite coordinates {pts[bad].tolist()}")
        object.__setattr__(self, "points", _frozen(pts))
        if self.words is not None:
            w = np.asarray(self.words, dtype=np.int64)
            if w.shape[0] != pts.shape[0]:
                raise ValueError("one word per point required")
            object.__setattr__(self, "words", _frozen(w))
        if self.errors is not None:
            e = np.asarray(self.errors, dtype=float)
            if e.shape != (pts.shape[0],):
                raise ValueError("one truncation bound per point required")
            object.__setattr__(self, "errors", _frozen(e))

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Lowest and highest corners of the points' bounding box.

        Read column by column: a reduction over axis 0 of a narrow array is
        many times slower, and min and max are exact either way.
        """
        cols = self.points.T
        return np.array([c.min() for c in cols]), np.array([c.max() for c in cols])

    @cached_property
    def diameter(self) -> float:
        """Length of the diagonal of the points' bounding box."""
        lo, hi = self.bounding_box
        return float(np.linalg.norm(hi - lo))

    @cached_property
    def truncation_floor(self) -> float | None:
        """Smallest scale the estimators resolve: ten times the largest truncation bound."""
        return None if self.errors is None else 10.0 * float(self.errors.max())

    @classmethod
    def from_points(cls, points) -> "PointCloud":
        """Wrap raw points (no words) for diagnostics on synthetic data."""
        return cls(np.asarray(points, dtype=float), None, None, None, None)


def natural_projection(ifs: IfsSystem, word) -> tuple[np.ndarray, float]:
    """Point coded by a finite word, plus its truncation error bound.

    Evaluates ``f_{w0} o ... o f_{w_{n-1}}`` at the origin by a backward
    (Horner) pass; the true limit point of any extension of the word is
    within ``R * prod(alpha_1(A_{w_k}))`` of the result.
    """
    w = _check_word(word, ifs.n_maps)
    if w.size == 0:
        raise ValueError("word must be nonempty")
    x = np.zeros(ifs.d)
    for s in w[::-1]:
        x = ifs.matrices[s] @ x + ifs.translations[s]
    return x, float(ifs.truncation_bound(w))


def sample_measure(ifs: IfsSystem, count: int, depth: int, rng=None) -> PointCloud:
    """Draw ``count`` approximate samples of the stationary measure.

    Words of length ``depth`` are drawn i.i.d. from the weights, in bounded
    flat blocks (the same words and generator state as one draw), and pushed through
    :func:`natural_projection` (vectorised); per-point truncation bounds are
    recorded.  Points are built from the last symbol inwards, so after ``j``
    steps there are at most ``N**j`` distinct partial points: while that table
    is no longer than the sample, every suffix is stepped once and each sample
    keeps its table row; then each sample goes on alone.  Every row takes the
    same einsum step either way, so the points do not depend on the split.
    Deterministic given the seed.
    """
    if count < 1 or depth < 1:
        raise ValueError("count and depth must be positive")
    seed = int(rng) if isinstance(rng, (int, np.integer)) else None
    rng = np.random.default_rng(rng)
    n = ifs.n_maps
    words = _draw_words(rng, ifs.weights.p, np.empty((count, depth), dtype=np.int64))
    errors = np.empty(count)
    rows = max(1, _WORD_BLOCK_SYMBOLS // depth)  # bounds the product's float temporaries
    for s in range(0, count, rows):
        errors[s:s + rows] = ifs.truncation_bound(words[s:s + rows])

    def step(sel, x):
        return np.einsum("nij,nj->ni", ifs.matrices[sel], x) + ifs.translations[sel]

    pts = np.zeros((1, ifs.d))  # one row per distinct suffix so far
    row = np.zeros(count, dtype=np.int64)
    k = depth - 1
    while k >= 0 and pts.shape[0] * n <= count:
        parent, sel = divmod(np.arange(pts.shape[0] * n), n)
        pts = step(sel, pts[parent])
        row = row * n + words[:, k]
        k -= 1
    pts = pts[row]
    for k in range(k, -1, -1):
        pts = step(words[:, k], pts)
    for a in (pts, words, errors):  # fresh arrays: the cloud keeps them without a copy
        a.flags.writeable = False
    return PointCloud(pts, words, errors, depth, seed)


@dataclass(frozen=True)
class BoxCheck:
    lo: np.ndarray
    hi: np.ndarray
    mass: float
    pushed_mass: float
    tolerance: float
    status: str  # pass | fail | skipped


@dataclass(frozen=True)
class SelfAffinityReport:
    boxes: tuple[BoxCheck, ...]
    max_discrepancy: float

    @property
    def all_pass(self) -> bool:
        return all(b.status == "pass" for b in self.boxes if b.status != "skipped")


def self_affinity_check(
    cloud: PointCloud, ifs: IfsSystem, boxes, min_count: int = 20
) -> SelfAffinityReport:
    """Empirical check of the stationarity identity on axis boxes.

    For each box B compares the sample mass of B with the weight-average of
    the masses of the map preimages (measured by pushing every sample through
    each map), at tolerance ``3 sqrt(mass / m)``.  Boxes holding fewer than
    ``min_count`` samples are skipped, except exact 0 == 0 which passes.
    """
    pts = cloud.points
    m = cloud.m
    pushed_pts = [ifs.apply(i, pts) for i in range(ifs.n_maps)]
    checks = []
    max_disc = 0.0
    radius = ifs.bounding_radius
    for lo, hi in boxes:
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != (ifs.d,) or hi.shape != (ifs.d,) or np.any(lo > hi):
            raise ValueError(f"bad box ({lo}, {hi})")
        nearest = np.clip(np.zeros(ifs.d), lo, hi)
        if np.linalg.norm(nearest) > radius + 1e-9:
            raise ValueError("box lies outside the attractor's bounding ball")
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)
        count = int(inside.sum())
        mass = count / m
        pushed = sum(
            p * np.mean(np.all((fp >= lo) & (fp <= hi), axis=1))
            for p, fp in zip(ifs.weights.p, pushed_pts)
        )
        tol = 3.0 * np.sqrt(max(mass, 1.0 / m) / m)
        disc = abs(mass - pushed)
        if count == 0 and pushed == 0.0:
            status = "pass"
        elif count < min_count:
            status = "skipped"
        else:
            status = "pass" if disc <= tol else "fail"
        if status != "skipped":
            max_disc = max(max_disc, disc)
        checks.append(BoxCheck(lo, hi, mass, float(pushed), float(tol), status))
    return SelfAffinityReport(tuple(checks), max_disc)


@dataclass(frozen=True)
class SeparationVerdict:
    status: str  # ssc-verified | overlap-detected | inconclusive
    witness_words: tuple[tuple[int, ...], tuple[int, ...]] | None
    witness_gap: float | None  # None when no two cylinders have different first symbols
    level: int


def _enumerate_cylinders(ifs: IfsSystem, level: int):
    """Centers, hull radii, first symbols, point samples and words of all level-n cylinders.

    Each level's products and shifts are formed as one array; cylinders come
    out in reverse lexicographic order of their words.
    """
    mats = np.eye(ifs.d)[None]
    shifts = np.zeros((1, ifs.d))
    words = np.zeros((1, 0), dtype=np.int64)
    for _ in range(level):
        shifts = np.stack([mats @ t for t in ifs.translations], axis=1) + shifts[:, None]
        shifts = shifts.reshape(-1, ifs.d)
        mats = (mats[:, None] @ ifs.matrices[None]).reshape(-1, ifs.d, ifs.d)
        symbols = np.tile(np.arange(ifs.n_maps), len(words))
        words = np.column_stack([np.repeat(words, ifs.n_maps, axis=0), symbols])
    mats, shifts, words = mats[::-1], shifts[::-1], words[::-1]
    radii = np.linalg.norm(mats, 2, axis=(1, 2)) * ifs.bounding_radius
    samples = mats @ ifs.map_fixed_point(0) + shifts
    return shifts, radii, words[:, 0], samples, words


def _squared_distances(x, c):
    """``sum_k (x[k] - c[k])**2``, summed over coordinates in the KD-tree's order.

    ``x`` and ``c`` hold one entry (an array or a scalar) per coordinate, and
    broadcast against each other.  Every full block of four coordinates is
    added into four running sums, one per position in the block; the four
    sums are added left to right, and the leftover coordinates are then added
    in order.  This is the order of SciPy's ``cKDTree``, so every squared
    distance and its ``sqrt`` carries the tree's bits; for fewer than eight
    coordinates it is the plain in-order sum.  Adding a term never lowers the
    rounded sum, so the result is at least each ``(x[k] - c[k])**2``.
    """
    terms = [(xk - ck) ** 2 for xk, ck in zip(x, c, strict=True)]
    full = len(terms) - len(terms) % 4
    if full:
        acc = terms[:4]
        for k in range(4, full):
            acc[k % 4] = acc[k % 4] + terms[k]
        terms = [acc[0] + acc[1] + acc[2] + acc[3], *terms[full:]]
    s = terms[0]
    for t in terms[1:]:
        s = s + t
    return s


def _windows(lo: np.ndarray, hi: np.ndarray):
    """Every ``(k, p)`` with ``lo[k] <= p < hi[k]``, as flat index arrays in chunks.

    Whole rows ``k`` go into a chunk while it holds at most ``_SWEEP_BLOCK``
    pairs (a longer row goes alone).
    """
    sizes = hi - lo
    ends = np.cumsum(sizes)
    k = 0
    while k < sizes.size:
        stop = max(k + 1, int(np.searchsorted(ends, ends[k] - sizes[k] + _SWEEP_BLOCK, "right")))
        size = sizes[k:stop]
        rows = np.repeat(np.arange(k, stop), size)
        shift = np.repeat(lo[k:stop] - (np.cumsum(size) - size), size)  # window start - flat start
        yield rows, np.arange(rows.size) + shift
        k = stop


def _cross_pairs(points: np.ndarray, groups, r: float):
    """Every pair of ``points`` in different groups within distance ``r``.

    ``groups[g]`` holds the global indices of group ``g``.  Returns the
    global indices ``i < j`` of each pair and the distance between them.
    Each group is sorted once by its first coordinate, and each point is
    compared with the run of every later group within ``r (1 + 1e-9)`` in
    that coordinate.  A pair is kept when its squared distance (see
    :func:`_squared_distances`) is at most ``r * r``, as the KD-tree keeps it;
    then the first coordinate's rounded square is at most ``r * r`` too, so
    its difference is within a few ulp of ``r``, and the padded run bounds,
    rounded like the coordinates themselves, cannot leave the pair out.
    """
    r2 = r * r
    reach = r * (1.0 + 1e-9)
    groups = [g[np.argsort(points[g, 0], kind="stable")] for g in groups]
    cols = [points[g].T.copy() for g in groups]  # one contiguous row per coordinate
    found = []
    for a, b in itertools.combinations(range(len(groups)), 2):
        ga, gb, ca, cb = groups[a], groups[b], cols[a], cols[b]
        lo = np.searchsorted(cb[0], ca[0] - reach, "left")
        hi = np.searchsorted(cb[0], ca[0] + reach, "right")
        for ka, kb in _windows(lo, hi):
            sq = _squared_distances(ca[:, ka], cb[:, kb])
            keep = sq <= r2
            i, j = ga[ka[keep]], gb[kb[keep]]
            found.append((np.minimum(i, j), np.maximum(i, j), np.sqrt(sq[keep])))
    return [np.concatenate(col) for col in zip(*found)]


def _closest(pa: np.ndarray, pb: np.ndarray, k: np.ndarray, kb: np.ndarray):
    """Per row ``k`` (ascending, every row present), the candidate ``kb`` nearest ``pa[k]``.

    Candidates are decided by :func:`_squared_distances`, with ties going to
    the lowest ``kb``; returns the chosen ``kb`` and squared distance per row.
    """
    dist2 = _squared_distances(pa[k].T, pb[kb].T)
    pick = np.lexsort((kb, dist2, k))  # by row, then squared distance, then index
    pick = pick[np.r_[True, k[pick][1:] != k[pick][:-1]]]  # first of each row
    return kb[pick], dist2[pick]


def _nearest(points: np.ndarray, ga: np.ndarray, gb: np.ndarray):
    """Nearest point of ``points[gb]`` to each of ``points[ga]``: global index and distance.

    Nearness is the squared distance of :func:`_squared_distances`, with ties
    going to the lowest index in ``gb``.  In 1-D, ``(x - a)**2`` does not
    rise as ``x`` nears ``a`` from either side, so over ``gb`` sorted by value
    the points at the smallest squared distance form one run through the
    neighbours below and above ``a``; its ends are bisected as in
    :func:`_ball_counts`, and the run's points are the candidates.  Otherwise
    candidates come from the Gram form ``|b|^2 - 2 a.b``, one matrix product
    per chunk of rows of ``a``.  With ``u`` the unit roundoff and ``B`` the
    largest ``|b|``, the Gram form is within ``(2d + 2) u (|a| + B)^2`` of
    its exact value and a squared distance within ``(d + 4) u`` relative of
    its own, so the nearest point's Gram value is within
    ``(7d + 16) u (|a| + B)^2`` of the row's smallest.  Every point within
    twice that is a candidate.  Candidates are decided by their squared
    distances.
    """
    pa, pb = points[ga], points[gb]
    near, sq = np.empty(ga.size, dtype=np.int64), np.empty(ga.size)
    if points.shape[1] == 1:
        order = np.argsort(pb[:, 0], kind="stable")
        xs, a = pb[order, 0], pa[:, 0]
        pos = np.searchsorted(xs, a)  # xs[pos - 1] < a <= xs[pos]
        below = np.where(pos > 0, (xs[pos - 1] - a) ** 2, np.inf)
        above = np.where(pos < xs.size, (xs[np.minimum(pos, xs.size - 1)] - a) ** 2, np.inf)
        best = np.minimum(below, above)
        start = np.where(above == best, pos, pos - 1)  # a point at the smallest distance
        hi = _run_end(xs, a, best, start)
        lo = xs.size - _run_end(xs[::-1], a, best, xs.size - 1 - start)
        for k, p in _windows(lo, hi):
            rows = slice(k[0], k[-1] + 1)
            near[rows], sq[rows] = _closest(pa, pb, k, order[p])
        return gb[near], np.sqrt(sq)
    bb = np.einsum("ij,ij->i", pb, pb)
    left = np.column_stack([-2.0 * pa, np.ones(ga.size)])  # (-2a, 1) . (b, |b|^2)
    right = np.vstack([pb.T, bb])
    norm_a = np.sqrt(np.einsum("ij,ij->i", pa, pa))
    tol = (7 * points.shape[1] + 16) * np.finfo(float).eps * (norm_a + np.sqrt(bb.max())) ** 2
    rows = max(1, _SWEEP_BLOCK // gb.size)
    for s in range(0, ga.size, rows):
        gram = left[s:s + rows] @ right
        cut = gram.min(axis=1, keepdims=True)
        cut += tol[s:s + rows, None]
        k, kb = np.divmod(np.flatnonzero(gram <= cut), gb.size)
        near[s:s + rows], sq[s:s + rows] = _closest(pa[s:s + rows], pb, k, kb)
    return gb[near], np.sqrt(sq)


def check_separation(
    ifs: IfsSystem,
    level: int,
    budget: int = DEFAULT_SEPARATION_BUDGET,
    guard: float | None = None,
    resolution: float | None = None,
) -> SeparationVerdict:
    """Certify strong separation, detect overlap, or report inconclusive.

    Every first-level cylinder is covered by the bounding balls of its
    level-``level`` refinements, so pairwise-positive gaps between balls of
    different first symbols certify disjoint first-level images; only such
    cross-symbol pairs are ever searched.  Overlap is declared when point
    samples from different first-level cylinders coincide within
    ``resolution``.  Anything else is honestly inconclusive.
    """
    if level < 1:
        raise ValueError("level must be positive")
    if level * ifs.n_maps**level > budget:
        raise ValueError(
            f"level {level} needs {level * ifs.n_maps ** level} products, over budget {budget}"
        )
    scale = 1.0 + ifs.bounding_radius
    guard = 1e-12 * scale if guard is None else guard
    resolution = 1e-9 * scale if resolution is None else resolution
    if ifs.n_maps == 1:  # no two cylinders have different first symbols
        return SeparationVerdict("ssc-verified", None, None, level)

    centers, radii, firsts, samples, words = _enumerate_cylinders(ifs, level)
    groups = [np.flatnonzero(firsts == g) for g in range(ifs.n_maps)]

    def witness(i, j):
        return (tuple(words[i].tolist()), tuple(words[j].tolist()))

    i, j, dist = _cross_pairs(centers, groups, 2.0 * float(radii.max()) + guard)
    near = i.size > 0
    if not near:
        # every hull gap exceeds the guard; the witness pairs each cylinder
        # with its nearest centre of a later first symbol
        found = []
        for a, b in itertools.combinations(range(len(groups)), 2):
            found.append((groups[a], *_nearest(centers, groups[a], groups[b])))
        i, j, dist = (np.concatenate(col) for col in zip(*found))
    gaps = dist - radii[i] - radii[j]
    worst = int(np.argmin(gaps))
    worst_pair = witness(i[worst], j[worst])
    if not near or gaps[worst] > guard:
        return SeparationVerdict("ssc-verified", worst_pair, float(gaps[worst]), level)
    # hulls touch or overlap: look for coinciding attractor points
    pi, pj, pd = _cross_pairs(samples, groups, resolution)
    if pd.size:
        hit = int(np.argmin(pd))
        return SeparationVerdict(
            "overlap-detected", witness(pi[hit], pj[hit]), float(pd[hit]), level
        )
    return SeparationVerdict("inconclusive", worst_pair, float(gaps[worst]), level)


@dataclass(frozen=True)
class LiftedIfs:
    """A system lifted one dimension up so that it strongly separates."""

    ifs: IfsSystem
    rho: float
    taus: np.ndarray


def lift_ifs(ifs: IfsSystem, rho: float | None = None) -> LiftedIfs:
    """Lift to d+1 dimensions with a spare contracting coordinate.

    The extra coordinate contracts by ``rho`` (below both 1/N and every
    map's smallest singular value) and translates by ``tau_i = i/N``, which
    makes the last-coordinate images ``[tau_i, tau_i + rho]`` pairwise
    disjoint, hence the lifted system strongly separates.
    """
    n = ifs.n_maps
    cap = min(1.0 / n, float(ifs.bottom_singular_values.min()))
    if rho is None:
        rho = 0.9 * cap
    if not 0.0 < rho < cap:
        raise ValueError(f"rho must lie in (0, {cap:g}), got {rho}")
    d = ifs.d
    mats = np.zeros((n, d + 1, d + 1))
    mats[:, :d, :d] = ifs.matrices
    mats[:, d, d] = rho
    taus = np.arange(n) / n
    ts = np.concatenate([ifs.translations, taus[:, None]], axis=1)
    lifted = IfsSystem(mats, ts, ifs.weights)
    return LiftedIfs(lifted, float(rho), taus)


def project_cloud(cloud: PointCloud, v: SubspaceFrame) -> PointCloud:
    """Orthogonal projection of every point onto ``v`` (in frame coordinates).

    Words and truncation bounds carry over; projections are 1-Lipschitz so
    the bounds stay valid.
    """
    if cloud.dim != v.d:
        raise ValueError(f"cloud dimension {cloud.dim} does not match ambient {v.d}")
    return PointCloud(cloud.points @ v.frame, cloud.words, cloud.errors, cloud.depth, cloud.seed)


@dataclass(frozen=True)
class LocalDimensionReport:
    slopes: np.ndarray
    center_indices: np.ndarray
    radii: np.ndarray
    median: float
    iqr: float
    n_skipped: int


def default_radii(cloud: PointCloud, count: int = DEFAULT_RADII_COUNT,
                  ratio: float = DEFAULT_RADII_RATIO) -> np.ndarray:
    """Geometric radii grid from diam/10 downward, floored above truncation.

    A cloud of zero extent (a point mass) gets an empty grid.
    """
    if cloud.diameter <= 0:
        return np.empty(0)
    radii = (cloud.diameter / 10.0) * ratio ** np.arange(count)
    if cloud.truncation_floor is not None:
        radii = radii[radii >= cloud.truncation_floor]
    return radii


def _run_end(xs: np.ndarray, c: np.ndarray, r2: np.ndarray, start: np.ndarray) -> np.ndarray:
    """First index at or after ``start`` where ``(xs - c)**2 > r2``, or ``xs.size``.

    ``xs`` is sorted (either way) and ``xs[start]`` lies in its ball, so the
    points in the ball from ``start`` on form one run; all ends are bisected
    at once.
    """
    lo, hi = start, np.full_like(start, xs.size)  # xs[lo] inside; hi past the end or outside
    for _ in range(xs.size.bit_length()):
        mid = (lo + hi) // 2
        inside = (xs[mid] - c) ** 2 <= r2
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return hi


def _ball_counts(pts: np.ndarray, center_idx: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Points in each closed ball ``|x - pts[c]|**2 <= r**2``, the centre itself excluded.

    Row ``k`` holds the counts of centre ``center_idx[k]`` over ``radii``.
    Squared distances are compared with ``r * r``, as the KD-tree does, so a
    point within a few ulp of the sphere may fall on the other side than a
    comparison of the norm with ``r``.  The cloud is sorted once by its
    first coordinate: since ``x - c`` rounds monotonically in ``x``, the
    points with ``(x - c)**2 <= r*r`` in that coordinate form one run around
    the centre, whose two ends are found for all centres at once by
    bisection under that same rule.  A 1-D cloud is then counted from those
    ends alone, for every radius.  Otherwise each centre's run for the
    largest radius is its window: the squared distances over it (see
    :func:`_squared_distances`, the tree's summation order) are sorted, and
    each radius is counted by one search for ``r * r``.  The full sum is at
    least the first coordinate's square, so the window holds every point in
    the ball.  SciPy's one-pass ``count_neighbors`` was never a substitute:
    it decides points within an ulp of the sphere by node bounds and can
    disagree with the rule above.
    """
    if pts.shape[1] == 1:
        xs = np.sort(pts[:, 0])
        c = np.repeat(pts[center_idx, 0], radii.size)
        r2 = np.tile(radii * radii, center_idx.size)
        start = np.searchsorted(xs, c)  # a position holding the centre's value
        rstart = xs.size - 1 - start  # the same position in the reversed order
        up = _run_end(xs, c, r2, start)
        down = _run_end(xs[::-1], c, r2, rstart)
        # the run is [start, up) upward and [rstart, down) downward; the
        # start is in both, and the centre is not counted
        return (up - start + down - rstart - 2).reshape(center_idx.size, radii.size)
    cols = pts[np.argsort(pts[:, 0])].T.copy()  # one contiguous row per coordinate
    xs, c = cols[0], pts[center_idx]
    r2 = radii * radii
    widest = r2.max()
    start = np.searchsorted(xs, c[:, 0])
    hi = _run_end(xs, c[:, 0], widest, start)
    lo = xs.size - _run_end(xs[::-1], c[:, 0], widest, xs.size - 1 - start)
    counts = np.empty((center_idx.size, radii.size), dtype=np.int64)
    for k in range(center_idx.size):
        sq = np.sort(_squared_distances(cols[:, lo[k]:hi[k]], c[k]))
        counts[k] = np.searchsorted(sq, r2, "right") - 1
    return counts


def _finite_positive(values, name: str) -> np.ndarray:
    """``values`` as a float array, checked to be finite and positive entry by entry."""
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(values) & (values > 0.0)))
    if bad.size:
        raise ValueError(
            f"{name}[{bad[0]}] is {float(values[bad[0]])!r}; {name} must be finite and positive"
        )
    return values


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _prefix_slopes(x: np.ndarray, y: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Row ``k``'s ``np.polyfit(x[:n], y[k, :n], 1)[0]`` with ``n = lengths[k]``, bit for bit.

    Rows of one length share polyfit's column-scaled Vandermonde matrix and
    its ``rcond``, and are solved by one call of the LAPACK ``gelsd`` gufunc
    that ``np.linalg.lstsq`` wraps, under the same error state, so a failed
    SVD still raises ``LinAlgError``.  Each row is its own right-hand side,
    so it meets exactly the floating-point operations of its own polyfit
    call.  A fit of rank below 2 warns as polyfit does.
    """
    slopes = np.empty(lengths.size)
    for n in np.unique(lengths):
        rows = np.flatnonzero(lengths == n)
        lhs = np.vander(x[:n], 2)
        scale = np.sqrt((lhs * lhs).sum(axis=0))
        lhs /= scale
        with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                         divide="ignore", under="ignore"):
            coef, _, rank, _ = _umath_linalg.lstsq(
                lhs, y[rows, :n, None], n * np.finfo(float).eps, signature="ddd->ddid"
            )
        if np.any(rank != 2):
            warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning,
                          stacklevel=3)
        slopes[rows] = coef[:, 0, 0] / scale[0]
    return slopes


def local_dimension_estimate(
    cloud: PointCloud,
    radii=None,
    n_centers: int = 64,
    rng=None,
    min_usable_radii: int = MIN_USABLE_RADII,
) -> LocalDimensionReport:
    """Pointwise dimension estimates from ball-mass slopes.

    For each of ``n_centers`` centers drawn from the cloud, fits the
    least-squares slope of ``log(empirical mass of B(x, r))`` against
    ``log r`` over the radii grid (center excluded from its own counts).
    Radii with empty balls are dropped; centers with fewer than
    ``min_usable_radii`` usable radii (or none) are skipped.  Counts fall
    with the radius, so a center's usable radii are a prefix of the
    descending grid, and the centers are fitted in groups of one prefix
    length (see :func:`_prefix_slopes`).  Every given radius must be finite
    and positive.  Reports per-center slopes with the median and
    interquartile range.
    """
    pts = cloud.points
    m = cloud.m
    if m < 2:
        raise ValueError("need at least two points")
    if radii is not None:
        radii = _finite_positive(radii, "radii")
    rng = np.random.default_rng(rng)

    if cloud.diameter == 0.0:
        # a point mass: every ball has full mass, the slope is exactly 0
        idx = np.arange(min(n_centers, m))
        return LocalDimensionReport(np.zeros(idx.size), idx, np.array([]), 0.0, 0.0, 0)

    if radii is None:
        radii = default_radii(cloud)
    radii = np.sort(radii)[::-1]
    if radii.size < min_usable_radii:
        raise ValueError(
            f"radii grid has {radii.size} entries, need at least {min_usable_radii}"
        )
    if np.any(np.diff(np.log(radii)) == 0.0):
        raise ValueError("radii must be distinct")

    n_centers = min(n_centers, m)
    center_idx = rng.choice(m, size=n_centers, replace=False)
    counts = _ball_counts(pts, center_idx, radii)
    usable = (counts >= 1).sum(axis=1)
    fit = usable >= max(min_usable_radii, 1)
    slopes = np.full(n_centers, np.nan)
    # log(1 / m) stands in for the empty balls past each prefix; no fit reads it
    y = np.log(np.maximum(counts[fit], 1) / m)
    slopes[fit] = _prefix_slopes(np.log(radii), y, usable[fit])

    good = slopes[~np.isnan(slopes)]
    if good.size == 0:
        raise ValueError("every center was skipped; radii grid unusable for this cloud")
    q25, q50, q75 = np.percentile(good, [25, 50, 75])
    return LocalDimensionReport(
        slopes, center_idx, radii, float(q50), float(q75 - q25), int(np.isnan(slopes).sum())
    )


@dataclass(frozen=True)
class BoxCountReport:
    dimension: float
    eps: np.ndarray
    information: np.ndarray


_KEY_LIMIT = int(np.iinfo(np.int64).max)


def _cell_counts(cells: np.ndarray) -> np.ndarray:
    """Occupancy of each distinct row of non-negative ``cells``, in lexicographic row order.

    The counts equal ``np.unique(cells, axis=0, return_counts=True)[1]``.
    Columns are folded into one int64 key per row, mixed-radix over the column
    extents.  When the next fold could overflow, the partial key and the column
    are first replaced by their dense ranks, which keep their order.
    """
    key = cells[:, 0]
    size = int(key.max()) + 1  # every key lies in [0, size)
    for col in cells.T[1:]:
        n = int(col.max()) + 1
        if size * n > _KEY_LIMIT:
            key = np.unique(key, return_inverse=True)[1]
            col = np.unique(col, return_inverse=True)[1]
            size, n = int(key.max()) + 1, int(col.max()) + 1
        key = key * n + col
        size *= n
    key = np.sort(key)
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return np.diff(np.append(starts, key.size))


def box_counting_dimension(
    cloud: PointCloud, eps_list=None, count: int = 26, ratio: float = DEFAULT_RADII_RATIO,
    min_occupancy: float = 5.0,
) -> BoxCountReport:
    """Information (box-counting) dimension of the sampled measure.

    Bins the points into grid boxes of side ``eps`` (anchored at the cloud's
    min corner) over a geometric grid of sizes and fits the slope of the
    occupancy sum ``sum p log p`` against ``log eps``.  The Miller-Madow
    correction ``(K - 1) / 2m`` compensates the small-count entropy bias, and
    box sizes with mean occupancy below ``min_occupancy`` are dropped.

    Unlike the pointwise ball estimator this averages over the whole support,
    which suppresses the log-periodic oscillations of grid-aligned systems.
    Every given box size must be finite and positive.  Offsets from the min
    corner are then at least 0, so truncating ``offset / eps`` to an integer
    gives the same cell as its floor.
    """
    pts = cloud.points
    m = cloud.m
    if eps_list is not None:
        eps_list = _finite_positive(eps_list, "eps_list")
    if cloud.diameter <= 0.0:
        return BoxCountReport(0.0, np.array([]), np.array([]))
    if eps_list is None:
        eps_list = (cloud.diameter / 5.0) * ratio ** np.arange(count)
        if cloud.truncation_floor is not None:
            eps_list = eps_list[eps_list >= cloud.truncation_floor]
    eps_list = np.sort(np.asarray(eps_list, dtype=float))[::-1]
    offsets = pts - cloud.bounding_box[0]
    eps_used, info = [], []
    for eps in eps_list:
        counts = _cell_counts((offsets / eps).astype(np.int64))
        if m / counts.size < min_occupancy:
            continue
        p = counts / m
        info.append(float(np.sum(p * np.log(p))) - (counts.size - 1) / (2.0 * m))
        eps_used.append(eps)
    if len(eps_used) < 4:
        raise ValueError("fewer than 4 usable box sizes; enlarge the sample or the grid")
    eps_used = np.asarray(eps_used)
    info = np.asarray(info)
    slope = float(np.polyfit(np.log(eps_used), info, 1)[0])
    return BoxCountReport(slope, eps_used, info)


def cloud_to_csv(cloud: PointCloud, path) -> None:
    """Write ``x1..xk,word,depth`` rows; floats round-trip bit-exactly."""
    if cloud.words is None:
        raise ValueError("cloud has no generating words; only IFS clouds are exportable")
    k = cloud.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(k)] + ["word", "depth"])
        depth = cloud.depth if cloud.depth is not None else cloud.words.shape[1]
        for row, word in zip(cloud.points, cloud.words):
            writer.writerow(
                [repr(float(x)) for x in row]
                + [".".join(str(int(s)) for s in word), str(depth)]
            )


def cloud_from_csv(path, ifs: IfsSystem | None = None) -> PointCloud:
    """Read a cloud written by :func:`cloud_to_csv`.

    Truncation bounds are recomputed when the generating system is supplied;
    the seed is not stored in the file and comes back as ``None``.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-2:] != ["word", "depth"] or not header[0].startswith("x"):
            raise ValueError(f"unexpected header {header}")
        k = len(header) - 2
        pts, words, depths = [], [], []
        for row in reader:
            pts.append([float(x) for x in row[:k]])
            words.append([int(s) for s in row[k].split(".")])
            depths.append(int(row[k + 1]))
    if len(set(depths)) > 1:
        raise ValueError("mixed depths in cloud file")
    words = np.asarray(words, dtype=np.int64)
    errors = None if ifs is None else ifs.truncation_bound(words)
    return PointCloud(np.asarray(pts), words, errors, depths[0] if depths else None, None)
