"""Affine iterated function systems and their stationary measures.

Natural projection of symbol words to points, seeded sampling of the
stationary measure, certified separation checks on cylinder hulls, the
one-dimension-up lift that always separates, projections of sampled clouds,
and pointwise (ball-mass slope) dimension estimation.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

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


def _cross_pairs(trees, groups, r: float):
    """Every pair of points in different groups within distance ``r``.

    ``trees[g]`` holds the points ``groups[g]`` (global indices).  Returns
    the global indices ``i < j`` of each pair and the distance between them.
    """
    found = []
    for a, b in itertools.combinations(range(len(trees)), 2):
        near = trees[a].sparse_distance_matrix(trees[b], r, output_type="ndarray")
        i, j = groups[a][near["i"]], groups[b][near["j"]]
        found.append((np.minimum(i, j), np.maximum(i, j), near["v"]))
    return [np.concatenate(col) for col in zip(*found)]


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
    trees = [cKDTree(centers[idx]) for idx in groups]

    def witness(i, j):
        return (tuple(words[i].tolist()), tuple(words[j].tolist()))

    i, j, dist = _cross_pairs(trees, groups, 2.0 * float(radii.max()) + guard)
    near = i.size > 0
    if not near:
        # every hull gap exceeds the guard; the witness pairs each cylinder
        # with its nearest centre of a later first symbol
        found = []
        for a, b in itertools.combinations(range(len(trees)), 2):
            dd, jj = trees[b].query(centers[groups[a]], k=1)
            found.append((groups[a], groups[b][jj], dd))
        i, j, dist = (np.concatenate(col) for col in zip(*found))
    gaps = dist - radii[i] - radii[j]
    worst = int(np.argmin(gaps))
    worst_pair = witness(i[worst], j[worst])
    if not near or gaps[worst] > guard:
        return SeparationVerdict("ssc-verified", worst_pair, float(gaps[worst]), level)
    # hulls touch or overlap: look for coinciding attractor points
    pi, pj, pd = _cross_pairs([cKDTree(samples[idx]) for idx in groups], groups, resolution)
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
    """Points in each closed ball ``(x - pts[c])**2 <= r**2``, the centre itself excluded.

    Row ``k`` holds the counts of centre ``center_idx[k]`` over ``radii``.
    Squared distances are compared with ``r * r``, as the KD-tree does, so a
    point within a few ulp of the sphere may fall on the other side than a
    comparison of the norm with ``r``.  A 1-D cloud is sorted once: since
    ``x - c`` rounds monotonically in ``x``, each ball is a run of the sorted
    coordinates around the centre, whose two ends are found by bisection
    under that same rule.  Other clouds get one KD-tree range count over
    every (centre, radius) pair.  The tree's nodes keep their split bounds
    instead of shrinking to the data: that builds faster and halves the
    query, and the counts are the same.  ``count_neighbors``, which counts
    all radii of a centre in one dual-tree pass, is not used: it decides
    points within an ulp of the sphere by node bounds and can disagree
    with the rule above.
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
    counts = cKDTree(pts, compact_nodes=False).query_ball_point(
        np.repeat(pts[center_idx], radii.size, axis=0),
        np.tile(radii, center_idx.size),
        return_length=True,
    )
    return counts.reshape(center_idx.size, radii.size) - 1


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
    ``min_usable_radii`` usable radii are skipped.  Reports per-center slopes
    with the median and interquartile range.
    """
    pts = cloud.points
    m = cloud.m
    if m < 2:
        raise ValueError("need at least two points")
    rng = np.random.default_rng(rng)

    if cloud.diameter == 0.0:
        # a point mass: every ball has full mass, the slope is exactly 0
        idx = np.arange(min(n_centers, m))
        return LocalDimensionReport(np.zeros(idx.size), idx, np.array([]), 0.0, 0.0, 0)

    if radii is None:
        radii = default_radii(cloud)
    radii = np.sort(np.asarray(radii, dtype=float))[::-1]
    if radii.size < min_usable_radii:
        raise ValueError(
            f"radii grid has {radii.size} entries, need at least {min_usable_radii}"
        )
    if np.any(np.diff(np.log(radii)) == 0.0):
        raise ValueError("radii must be distinct")

    n_centers = min(n_centers, m)
    center_idx = rng.choice(m, size=n_centers, replace=False)
    log_r = np.log(radii)

    def slope(counts: np.ndarray) -> float:
        usable = counts >= 1
        if usable.sum() < min_usable_radii:
            return np.nan
        fit = np.polyfit(log_r[usable], np.log(counts[usable] / m), 1)
        return float(fit[0])

    slopes = np.array([slope(row) for row in _ball_counts(pts, center_idx, radii).astype(float)])

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
    """
    pts = cloud.points
    m = cloud.m
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
        counts = _cell_counts(np.floor(offsets / eps).astype(np.int64))
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
