"""Affine iterated function systems and their stationary measures.

Seeded sampling of the stationary measure through the natural projection
of symbol words, certified separation checks on cylinder hulls, the
one-dimension-up lift that always separates, projections of sampled clouds,
and pointwise (ball-mass slope) dimension estimation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .cocycle import (PRODUCT_BUDGET, BernoulliWeights, _WORD_BLOCK_SYMBOLS, _check_weights,
                      _draw_words, as_map_stack)
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
    "sample_measure",
    "self_affinity_check",
    "check_separation",
    "lift_ifs",
    "project_cloud",
    "local_dimension_estimate",
    "box_counting_dimension",
]

DEFAULT_RADII_COUNT = 24
DEFAULT_RADII_RATIO = 0.8
DEFAULT_CENTERS = 64
MIN_USABLE_RADII = 20  # a centre with fewer non-empty balls is skipped
BOX_SIZES = 26  # box grid: sizes from diam/5 down in steps of DEFAULT_RADII_RATIO
MIN_BOX_OCCUPANCY = 5.0  # a box size whose mean occupancy is lower is dropped
SELF_AFFINITY_MIN_COUNT = 20
_SAMPLE_BLOCK_ROWS = 4096  # rows of points stepped or gathered together: near cache size


@dataclass(frozen=True)
class IfsSystem:
    """Affine maps ``x -> A_i x + t_i`` with Bernoulli weights."""

    matrices: np.ndarray
    translations: np.ndarray
    weights: BernoulliWeights

    def __post_init__(self):
        mats = as_map_stack(self.matrices)
        ts = np.asarray(self.translations, dtype=float)
        if ts.shape != (mats.shape[0], mats.shape[1]):
            raise ValueError(
                f"translations shape {ts.shape} does not match {mats.shape[0]} maps in R^{mats.shape[1]}"
            )
        if not np.all(np.isfinite(ts)):
            raise ValueError("translations have non-finite entries")
        _check_weights(self.weights, mats)
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
        return singular_values(self.matrices)[:, -1]

    @cached_property
    def bounding_radius(self) -> float:
        """Radius R with the attractor inside the ball B(0, R)."""
        tmax = float(np.linalg.norm(self.translations, axis=1).max())
        return tmax / (1.0 - float(self.top_singular_values.max()))

    @cached_property
    def hull(self) -> tuple[np.ndarray, float]:
        """Centre ``c`` and radius ``R_c`` of a ball that every map sends into itself.

        ``c`` is the centre of the maps' fixed points' bounding box, and
        ``R_c = max_i |f_i(c) - c| / (1 - alpha_1(A_i))`` is the least such
        radius, so ``f_w`` maps the ball into ``B(f_w(c), ||A_w|| R_c)``, which
        lies in the ball of every prefix of ``w`` (Hutchinson 1981).
        """
        # (I - A_i) x_i = t_i for every map; numpy reads a 2-d right side as one matrix
        fixed = np.linalg.solve(np.eye(self.d) - self.matrices, self.translations[..., None])
        fixed = fixed[..., 0]
        c = (fixed.min(axis=0) + fixed.max(axis=0)) / 2.0
        moved = np.linalg.norm(self.matrices @ c + self.translations - c, axis=1)
        return c, float((moved / (1.0 - self.top_singular_values)).max())

    def truncation_bound(self, words) -> np.ndarray:
        """Truncation error ``R * prod(alpha_1(A_{w_k}))`` of each word (over the last axis)."""
        return self.bounding_radius * np.prod(self.top_singular_values[words], axis=-1)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself when it is read-only and owns its data, else a read-only copy."""
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PointCloud:
    """Sampled points with their truncation bounds and sampling depth.

    ``errors`` and ``depth`` are ``None`` for synthetic clouds that came
    from somewhere other than an IFS.
    """

    points: np.ndarray
    errors: np.ndarray | None
    depth: int | None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be an (m, k) array")
        if not np.isfinite(pts).all():
            bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
            raise ValueError(f"point {bad} has non-finite coordinates {pts[bad].tolist()}")
        object.__setattr__(self, "points", _frozen(pts))
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


def sample_measure(ifs: IfsSystem, count: int, depth: int, rng=None) -> PointCloud:
    """Draw ``count`` approximate samples of the stationary measure.

    Words of length ``depth`` are drawn i.i.d. from the weights, in bounded
    flat blocks (the same words and generator state as one draw), into the
    narrowest unsigned type that holds a symbol, and each word is sent to
    the point ``f_{w_0} o ... o f_{w_{depth-1}}(0)``, whose truncation bound
    (:meth:`IfsSystem.truncation_bound`) is recorded: the limit point of any
    extension of the word lies within it.  Points are built from the last
    symbol inwards, so after ``j`` steps there are at most ``N**j`` distinct
    partial points: while that table is no longer than the sample, every
    suffix is stepped once, the next level written in blocks of
    ``_SAMPLE_BLOCK_ROWS`` rows, and each sample keeps its table row; then
    each sample goes on alone, in blocks of that many rows that take all
    their remaining steps while they are in cache.  Every row takes the same
    einsum step either way, and no row's step reads another row, so the
    points do not depend on the split.  Deterministic given the seed.
    """
    if count < 1 or depth < 1:
        raise ValueError("count and depth must be positive")
    rng = np.random.default_rng(rng)
    n = ifs.n_maps
    words = _draw_words(rng, ifs.weights.p, np.empty((count, depth), np.min_scalar_type(n - 1)))
    errors = np.empty(count)
    rows = max(1, _WORD_BLOCK_SYMBOLS // depth)  # bounds the product's float temporaries
    for s in range(0, count, rows):
        errors[s:s + rows] = ifs.truncation_bound(words[s:s + rows])

    def step(sel, x):
        mats = np.take(ifs.matrices, sel, axis=0)
        return np.einsum("nij,nj->ni", mats, x) + np.take(ifs.translations, sel, axis=0)

    table = np.zeros((1, ifs.d))  # one row per distinct suffix so far
    row = np.zeros(count, dtype=np.int64)
    k = depth - 1
    while k >= 0 and table.shape[0] * n <= count:
        grown = np.empty((table.shape[0] * n, ifs.d))
        for s in range(0, grown.shape[0], _SAMPLE_BLOCK_ROWS):
            parent, sel = divmod(np.arange(s, min(s + _SAMPLE_BLOCK_ROWS, grown.shape[0])), n)
            grown[s:s + _SAMPLE_BLOCK_ROWS] = step(sel, table[parent])
        table = grown
        row *= n
        row += words[:, k]
        k -= 1
    pts = np.empty((count, ifs.d))
    for s in range(0, count, _SAMPLE_BLOCK_ROWS):
        block = slice(s, s + _SAMPLE_BLOCK_ROWS)
        x = table[row[block]]
        for j in range(k, -1, -1):
            x = step(words[block, j], x)
        pts[block] = x
    for a in (pts, errors):  # fresh arrays: the cloud keeps them without a copy
        a.flags.writeable = False
    return PointCloud(pts, errors, depth)


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


def self_affinity_check(cloud: PointCloud, ifs: IfsSystem, boxes) -> SelfAffinityReport:
    """Empirical check of the stationarity identity on axis boxes.

    For each box B compares the sample mass of B with the weight-average of
    the masses of the map preimages (measured by pushing every sample through
    each map), at tolerance ``3 sqrt(mass / m)``.  Boxes holding fewer than
    ``SELF_AFFINITY_MIN_COUNT`` samples are skipped, except exact 0 == 0
    which passes.
    """
    pts = cloud.points
    m = cloud.m
    pushed_pts = [pts @ a.T + t for a, t in zip(ifs.matrices, ifs.translations)]
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
        elif count < SELF_AFFINITY_MIN_COUNT:
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
    level: int  # the level at which the verdict closed
    pairs_formed: int
    near_pairs: int  # pairs still near at ``level``


def _squared_distances(x, c):
    """``sum_k (x[k] - c[k])**2``, summed over coordinates in the KD-tree's order.

    ``x`` and ``c`` hold one entry (an array or a scalar) per coordinate, and
    each pair broadcasts to an array.  From eight coordinates on, every full
    block of four coordinates is added into four running sums, one per
    position in the block; the four sums are added left to right, and the
    leftover coordinates are then added in order.  Below eight coordinates
    the sum runs in order.  This is the order of SciPy's ``cKDTree``, so
    every squared distance and its ``sqrt`` carries the tree's bits.  Terms
    are squared and added in place, into the running sums and one scratch
    array.  Adding a term never lowers the rounded sum, so the result is at
    least each ``(x[k] - c[k])**2``.
    """
    def term(k, out=None):
        t = np.subtract(x[k], c[k], out=out)
        return np.multiply(t, t, out=t)

    d = len(x)
    ways = 4 if d >= 8 else 1
    full = d - d % ways
    sums = [term(k) for k in range(ways)]
    scratch = None
    for k in range(ways, full):
        scratch = term(k, scratch)
        sums[k % ways] += scratch
    total = sums[0]
    for s in sums[1:]:
        total += s
    for k in range(full, d):
        scratch = term(k, scratch)
        total += scratch
    return total


def _first_pair(value: np.ndarray, a: np.ndarray, b: np.ndarray, words: np.ndarray):
    """``(value, word pair)`` of the pair with the smallest ``value``.

    ``a`` and ``b`` index the rows of ``words``, which are in lexicographic
    order, so ties go to the pair whose two words come first in that order.
    """
    ties = np.flatnonzero(value == value.min())
    k = ties[np.lexsort((b[ties], a[ties]))[0]]
    return float(value[k]), (tuple(words[a[k]].tolist()), tuple(words[b[k]].tolist()))


def check_separation(ifs: IfsSystem, level: int, budget: int = PRODUCT_BUDGET) -> SeparationVerdict:
    """Certify strong separation, detect an exact overlap, or report inconclusive.

    Refines near pairs of cylinder hulls ``B(f_w(c), ||A_w|| R_c)``, with
    ``(c, R_c)`` from :attr:`IfsSystem.hull`, level by level (Bandt & Graf
    1992).  A child's hull lies in its parent's, so only pairs whose hull gap
    is at most the guard ``1e-12 (1 + R)`` are refined, ``R`` being the
    bounding radius.  Level 1 forms the ``N(N-1)/2`` pairs of maps, and each
    later level the ``N**2`` child pairs of each near pair, from the children
    of each kept cylinder formed once.  The maps of ``u`` and ``v`` coincide
    when ``||A_u - A_v|| R + |t_u - t_v| <= 1e-9 (1 + R) ||A_u||``.

    The verdict closes at the first level with no near pair (``ssc-verified``)
    or with a near pair whose maps coincide (``overlap-detected``); otherwise
    it is ``inconclusive`` at ``level``, at the first level where every near
    pair's hull radii are below the guard (their centres are then within
    three guards, where rounding and not geometry would decide), or at the
    last level before more than ``budget`` pairs would have been formed
    (level 1 always is).  The witness
    is the pair with the smallest number, ties to the first in word order: the
    smallest gap of any pair where it was retired for ``ssc-verified`` (a lower
    bound on the distance between different first-level pieces), the
    coinciding maps' distance for ``overlap-detected``, and the closest near
    pair's gap for ``inconclusive``.
    """
    if level < 1:
        raise ValueError("level must be positive")
    n = ifs.n_maps
    radius = ifs.bounding_radius
    guard, resolution = 1e-12 * (1.0 + radius), 1e-9 * (1.0 + radius)
    centre, hull_radius = ifs.hull
    symbols = np.arange(n, dtype=np.min_scalar_type(n - 1))
    mats, shifts, words = ifs.matrices, ifs.translations, symbols[:, None]
    a, b = np.triu_indices(n, 1)  # cylinder rows are in word order, and so are the pairs
    formed, retired = a.size, None
    for depth in range(1, level + 1):
        norms = np.linalg.norm(mats, 2, axis=(1, 2))
        radii = norms * hull_radius
        centres = (mats @ centre + shifts).T  # one row per coordinate
        gap = np.sqrt(_squared_distances(centres[:, a], centres[:, b])) - radii[a] - radii[b]
        near = gap <= guard
        if not near.all():
            far = _first_pair(gap[~near], a[~near], b[~near], words)
            retired = far if retired is None else min(retired, far)
        a, b, gap = a[near], b[near], gap[near]
        if a.size == 0:
            value, pair = (None, None) if retired is None else retired
            return SeparationVerdict("ssc-verified", pair, value, depth, formed, 0)
        # the maps' distance on B(0, R); the translations' part alone rules most pairs out
        apart = np.sqrt(_squared_distances(shifts.T[:, a], shifts.T[:, b]))
        close = np.flatnonzero(apart <= resolution * norms[a])
        apart = np.linalg.norm(mats[a[close]] - mats[b[close]], 2, axis=(1, 2)) * radius + apart[close]
        same = apart <= resolution * norms[a[close]]
        if same.any():
            value, pair = _first_pair(apart[same], a[close[same]], b[close[same]], words)
            return SeparationVerdict("overlap-detected", pair, value, depth, formed, a.size)
        if (depth == level or formed + a.size * n * n > budget
                or max(radii[a].max(), radii[b].max()) < guard):
            value, pair = _first_pair(gap, a, b, words)
            return SeparationVerdict("inconclusive", pair, value, depth, formed, a.size)
        # each kept cylinder's N children, in word order, and each pair's N^2 child pairs
        used, rows = np.unique(np.concatenate([a, b]), return_inverse=True)
        mats, shifts = mats[used], shifts[used]
        shifts = ((mats @ ifs.translations.T).transpose(0, 2, 1) + shifts[:, None]).reshape(-1, ifs.d)
        mats = (mats[:, None] @ ifs.matrices[None]).reshape(-1, ifs.d, ifs.d)
        words = np.column_stack([np.repeat(words[used], n, axis=0), np.tile(symbols, used.size)])
        rows_a, rows_b = rows[:a.size, None, None] * n, rows[a.size:, None, None] * n
        a = (rows_a + np.arange(n)[:, None]).repeat(n, axis=2).ravel()
        b = (rows_b + np.arange(n)).repeat(n, axis=1).ravel()
        formed += a.size


@dataclass(frozen=True)
class LiftedIfs:
    """A system lifted one dimension up so that it strongly separates."""

    ifs: IfsSystem
    rho: float
    taus: np.ndarray


def lift_ifs(ifs: IfsSystem) -> LiftedIfs:
    """Lift to d+1 dimensions with a spare contracting coordinate.

    The extra coordinate contracts by ``rho``, 0.9 times the smaller of 1/N
    and every map's smallest singular value, and translates by
    ``tau_i = i/N``, which makes the last-coordinate images
    ``[tau_i, tau_i + rho]`` pairwise disjoint, hence the lifted system
    strongly separates.
    """
    n = ifs.n_maps
    rho = 0.9 * min(1.0 / n, float(singular_values(ifs.matrices)[:, 0].min()))
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

    Truncation bounds carry over; projections are 1-Lipschitz so the bounds
    stay valid.
    """
    if cloud.dim != v.d:
        raise ValueError(f"cloud dimension {cloud.dim} does not match ambient {v.d}")
    points = cloud.points @ v.frame
    points.flags.writeable = False  # a fresh array: the cloud keeps it without a copy
    return PointCloud(points, cloud.errors, cloud.depth)


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
    the centre, and the two ends of the run of every (centre, radius) pair
    are found at once by bisection under that same rule.  A 1-D cloud is
    counted from those ends alone.  Otherwise each centre's squared
    distances (see :func:`_squared_distances`, the tree's summation order)
    are computed once over its widest run, and each radius is counted over
    its own run, which lies inside the widest: the full sum is at least the
    first coordinate's square, so a radius's run holds every point in its
    ball.  SciPy's one-pass ``count_neighbors`` was never a substitute: it
    decides points within an ulp of the sphere by node bounds and can
    disagree with the rule above.
    """
    if pts.shape[1] == 1:
        cols = np.sort(pts[:, 0])[None]
    else:
        order = np.argsort(pts[:, 0])
        cols = np.empty((pts.shape[1], order.size))  # one contiguous row per coordinate
        for s in range(0, order.size, _SAMPLE_BLOCK_ROWS):  # no (m, d) temporary
            cols[:, s:s + _SAMPLE_BLOCK_ROWS] = pts[order[s:s + _SAMPLE_BLOCK_ROWS]].T
        del order  # not held through the runs
    xs, c = cols[0], pts[center_idx]
    r2 = radii * radii
    c0 = np.repeat(c[:, 0], radii.size)
    r2s = np.tile(r2, center_idx.size)
    start = np.searchsorted(xs, c0)  # a position holding the centre's value
    # the run is [lo, hi): upward from start, and downward from start in the reversed order
    hi = _run_end(xs, c0, r2s, start).reshape(center_idx.size, radii.size)
    lo = xs.size - _run_end(xs[::-1], c0, r2s, xs.size - 1 - start).reshape(hi.shape)
    if pts.shape[1] == 1:
        return hi - lo - 1  # the centre is not counted
    counts = np.empty(hi.shape, dtype=np.int64)
    for k in range(center_idx.size):
        first = lo[k].min()
        sq = _squared_distances(cols[:, first:hi[k].max()], c[k])
        runs = zip((lo[k] - first).tolist(), (hi[k] - first).tolist(), r2.tolist())
        counts[k] = [np.count_nonzero(sq[a:b] <= r) for a, b, r in runs]
    return counts - 1  # the centre is not counted


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
    cloud: PointCloud, radii, n_centers: int = DEFAULT_CENTERS, rng=None
) -> LocalDimensionReport:
    """Pointwise dimension estimates from ball-mass slopes.

    For each of ``n_centers`` centers drawn from the cloud, fits the
    least-squares slope of ``log(empirical mass of B(x, r))`` against
    ``log r`` over the radii grid (center excluded from its own counts).
    Radii with empty balls are dropped; centers with fewer than
    ``MIN_USABLE_RADII`` usable radii are skipped.  Counts fall with the
    radius, so a center's usable radii are a prefix of the descending grid,
    and the centers are fitted in groups of one prefix length (see
    :func:`_prefix_slopes`).  Every radius must be finite and positive
    (:func:`default_radii` gives the pipeline's grid).  Reports per-center
    slopes with the median and interquartile range.
    """
    pts = cloud.points
    m = cloud.m
    if m < 2:
        raise ValueError("need at least two points")
    radii = _finite_positive(radii, "radii")
    rng = np.random.default_rng(rng)

    if cloud.diameter == 0.0:
        # a point mass: every ball has full mass, the slope is exactly 0
        idx = np.arange(min(n_centers, m))
        return LocalDimensionReport(np.zeros(idx.size), idx, np.array([]), 0.0, 0.0, 0)

    radii = np.sort(radii)[::-1]
    if radii.size < MIN_USABLE_RADII:
        raise ValueError(
            f"radii grid has {radii.size} entries, need at least {MIN_USABLE_RADII}"
        )
    if np.any(np.diff(np.log(radii)) == 0.0):
        raise ValueError("radii must be distinct")

    n_centers = min(n_centers, m)
    center_idx = rng.choice(m, size=n_centers, replace=False)
    counts = _ball_counts(pts, center_idx, radii)
    usable = (counts >= 1).sum(axis=1)
    fit = usable >= MIN_USABLE_RADII
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


def _cell_counts(columns) -> np.ndarray:
    """Occupancy of each distinct cell, in lexicographic cell order.

    ``columns`` yields one non-negative int64 array per coordinate, the
    cells' indices along it; the function may overwrite them.  The counts
    equal ``np.unique(cells, axis=0, return_counts=True)[1]`` for the
    ``(m, d)`` array ``cells`` whose columns they are.  Columns are folded in
    place into one int64 key per cell, mixed-radix over the column extents.
    When the next fold could overflow, the partial key and the column are
    first replaced by their dense ranks, which keep their order.
    """
    columns = iter(columns)
    key = next(columns)
    size = int(key.max()) + 1  # every key lies in [0, size)
    for col in columns:
        n = int(col.max()) + 1
        if size * n > _KEY_LIMIT:
            key = np.unique(key, return_inverse=True)[1]
            col = np.unique(col, return_inverse=True)[1]
            size, n = int(key.max()) + 1, int(col.max()) + 1
        key *= n
        key += col
        size *= n
    key.sort()
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return np.diff(np.append(starts, key.size))


def box_counting_dimension(cloud: PointCloud) -> BoxCountReport:
    """Information (box-counting) dimension of the sampled measure.

    Bins the points into grid boxes of side ``eps`` (anchored at the cloud's
    min corner) over the ``BOX_SIZES`` sizes ``(diam / 5) *
    DEFAULT_RADII_RATIO**k`` at or above the cloud's truncation floor, and
    fits the slope of the occupancy sum ``sum p log p`` against ``log eps``.
    The Miller-Madow correction ``(K - 1) / 2m`` compensates the small-count
    entropy bias, and box sizes with mean occupancy below
    ``MIN_BOX_OCCUPANCY`` are dropped.

    Unlike the pointwise ball estimator this averages over the whole support,
    which suppresses the log-periodic oscillations of grid-aligned systems.
    Offsets from the min corner are at least 0, so truncating ``offset / eps``
    to an integer gives the same cell as its floor.  Cells are formed one
    coordinate at a time, so no ``(m, d)`` temporary is made for any box size.
    """
    pts = cloud.points
    m = cloud.m
    if cloud.diameter <= 0.0:
        return BoxCountReport(0.0, np.array([]), np.array([]))
    sizes = (cloud.diameter / 5.0) * DEFAULT_RADII_RATIO ** np.arange(BOX_SIZES)
    if cloud.truncation_floor is not None:
        sizes = sizes[sizes >= cloud.truncation_floor]
    corner = cloud.bounding_box[0]
    eps_used, info = [], []
    for eps in sizes:
        counts = _cell_counts(((x - lo) / eps).astype(np.int64) for x, lo in zip(pts.T, corner))
        if m / counts.size < MIN_BOX_OCCUPANCY:
            continue
        p = counts / m
        info.append(float(np.sum(p * np.log(p))) - (counts.size - 1) / (2.0 * m))
        eps_used.append(eps)
    if len(eps_used) < 4:
        raise ValueError("fewer than 4 usable box sizes; enlarge the sample")
    eps_used = np.asarray(eps_used)
    info = np.asarray(info)
    slope = float(np.polyfit(np.log(eps_used), info, 1)[0])
    return BoxCountReport(slope, eps_used, info)
