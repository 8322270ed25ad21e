"""Dimension formulas for stationary affine measures, and the full pipeline.

Evaluates the entropy/exponent dimension formula (simple-spectrum and
dominated-splitting variants), the Kaplan-Yorke candidate value, the closed
form of diagonal systems used as an oracle, and an end-to-end pipeline that
estimates every input empirically and assembles a provenance-tagged report.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .cocycle import (
    PRODUCT_BUDGET,
    BernoulliWeights,
    LyapunovSpectrum,
    entropy,
    furstenberg_sample,
    lyapunov_spectrum,
)
from .domination import SCAN_N_MAX, DominationReport, detect_domination, gap_ratio_scan
from .errors import BudgetExceededError
from .linalg import SubspaceFrame
from .measure import (
    DEFAULT_CENTERS,
    DEFAULT_RADII_COUNT,
    MIN_USABLE_RADII,
    BoxCountReport,
    IfsSystem,
    LocalDimensionReport,
    PointCloud,
    SeparationVerdict,
    box_counting_dimension,
    check_separation,
    local_dimension_estimate,
    project_cloud,
    sample_measure,
)
# private names keep these helpers out of the stage functions the module exposes
from .measure import default_depth as _default_depth
from .measure import default_radii as _default_radii

__all__ = [
    "DimensionInputs",
    "LyapunovDimensionResult",
    "KYEquivalence",
    "PipelineConfig",
    "DimensionReport",
    "ly_dimension",
    "lyapunov_dimension",
    "diagonal_closed_form",
    "kaplan_yorke_equivalence_check",
    "full_pipeline",
]

SCHEMA_VERSION = 1
INPUT_SLACK = 1e-9
# the pipeline's tolerance for the Kaplan-Yorke equivalence check
KY_TOL = 0.02


def _check_fiber_entropy(value: float, h: float) -> None:
    """Refuse a fiber entropy outside ``[0, h]`` (``INPUT_SLACK`` above ``h`` is allowed)."""
    if not 0.0 <= value <= h + INPUT_SLACK:
        raise ValueError(f"supplied fiber entropy {float(value)} outside [0, {h}]")


@dataclass(frozen=True)
class DimensionInputs:
    """Inputs to the dimension formula.

    ``projection_dims`` maps each index ``i`` in the index set to the
    dimension of the measure projected onto the i-dimensional complement of
    the corresponding invariant subspace; ``fiber_entropy`` is the entropy
    lost to exact overlaps (zero under verified strong separation).
    """

    entropy: float
    fiber_entropy: float
    spectrum: LyapunovSpectrum
    projection_dims: dict[int, float]
    indices: tuple[int, ...]

    def __post_init__(self):
        _check_fiber_entropy(self.fiber_entropy, self.entropy)
        d = self.spectrum.d
        idx = tuple(sorted(int(i) for i in self.indices))
        if any(not 1 <= i <= d - 1 for i in idx):
            raise ValueError(f"indices must lie in 1..{d - 1}, got {idx}")
        object.__setattr__(self, "indices", idx)
        missing = [i for i in idx if i not in self.projection_dims]
        if missing:
            raise ValueError(f"projection dimensions missing for indices {missing}")
        prev = 0.0
        for i in idx:
            v = self.projection_dims[i]
            if not -INPUT_SLACK <= v <= min(i, d) + INPUT_SLACK:
                raise ValueError(f"projection dim {v} at index {i} outside [0, {min(i, d)}]")
            if v < prev - INPUT_SLACK:
                raise ValueError("projection dims must be nondecreasing in the index")
            prev = v


def ly_dimension(inputs: DimensionInputs) -> float:
    """Dimension from entropy, exponents, and projected dimensions.

    ``(h - H)/chi_d + sum_i ((chi_{i+1} - chi_i)/chi_d) * proj_dim(i)`` over
    the supplied index set.  Pure arithmetic; no estimation happens here.
    """
    chi = inputs.spectrum.exponents
    top = chi[-1]
    value = (inputs.entropy - inputs.fiber_entropy) / top
    for i in inputs.indices:
        value += ((chi[i] - chi[i - 1]) / top) * inputs.projection_dims[i]
    return float(value)


@dataclass(frozen=True)
class LyapunovDimensionResult:
    value: float
    raw: float
    k_argmin: int
    clamped: bool


def lyapunov_dimension(h: float, exponents) -> LyapunovDimensionResult:
    """Kaplan-Yorke candidate: ``min_k k-1 + (h - sum_{i<k} chi_i)/chi_k``.

    The raw minimiser is reported alongside the value clamped to ``[0, d]``.
    """
    chi = np.asarray(exponents, dtype=float).ravel()
    if chi.size == 0 or np.any(chi <= 0) or np.any(np.diff(chi) < -1e-12):
        raise ValueError("exponents must be positive and ascending")
    if h < 0:
        raise ValueError("entropy must be nonnegative")
    d = chi.size
    partial = np.concatenate([[0.0], np.cumsum(chi)[:-1]])
    ks = np.arange(1, d + 1)
    vals = (ks - 1) + (h - partial) / chi
    k_arg = int(np.argmin(vals))
    raw = float(vals[k_arg])
    value = float(min(max(raw, 0.0), float(d)))
    return LyapunovDimensionResult(value, raw, k_arg + 1, value != raw)


def _law_entropy(keys, p: np.ndarray) -> float:
    """Shannon entropy in nats of the law that puts mass ``p[i]`` on ``keys[i]``."""
    mass: dict = {}
    for key, pi in zip(keys, p):
        mass[key] = mass.get(key, 0.0) + pi
    return entropy(BernoulliWeights(np.array(list(mass.values()))))


def diagonal_closed_form(ifs: IfsSystem) -> tuple[float, DimensionInputs]:
    """Closed-form dimension of the measure of a system of distinct diagonal maps.

    With the coordinates ordered from least to most contracted (by
    ``chi_k = -sum_i p_i log|a_ik|``) and every map respecting that order,
    ``dim = sum_k (H_k - H_{k-1}) / chi_k``, where ``H_k`` is the entropy of
    the law of the maps' projections onto the first ``k`` coordinates (maps
    are grouped when their diagonal entries and translations agree there).
    Bedford-McMullen and Gatzouras-Lalley carpets and Kenyon-Peres sponges
    are instances; where pieces overlap the value is the formula's, not the
    dimension.  Returns the value and the formula's inputs, whose projection
    dimension at index ``i`` is the partial sum up to ``i``.  Where two
    coordinates tie (``chi_i == chi_{i+1}``), the projection dimension at
    index ``i`` depends on which tied coordinate comes first (they keep the
    order in which the maps give them); the formula's coefficient
    ``chi_{i+1} - chi_i`` there is 0, so the value and every index outside
    the tie do not.  Raises
    ``ValueError`` for a map that is not diagonal, maps that do not share one
    order of contraction, or coinciding maps.
    """
    mats, p, d = ifs.matrices, ifs.weights.p, ifs.d
    a = np.diagonal(mats, axis1=1, axis2=2)
    if np.any(mats != a[:, :, None] * np.eye(d)):
        raise ValueError("every map must be diagonal")
    chi = -(p @ np.log(np.abs(a)))
    order = np.argsort(chi, kind="stable")  # least contracted coordinate first
    chi, a, t = chi[order], a[:, order], ifs.translations[:, order]
    if np.any(np.diff(np.abs(a), axis=1) > 0):
        raise ValueError("the maps do not share one order of contraction")
    # per map, the (diagonal entry, translation) pair of each coordinate in turn
    cells = np.stack([a, t], axis=2).reshape(ifs.n_maps, 2 * d).tolist()
    if len({tuple(c) for c in cells}) < ifs.n_maps:
        raise ValueError("the maps must be distinct")
    big_h = [0.0] + [_law_entropy([tuple(c[:2 * k]) for c in cells], p) for k in range(1, d + 1)]
    partial = np.cumsum(np.diff(big_h) / chi)
    inputs = DimensionInputs(big_h[d], 0.0, LyapunovSpectrum(chi, None, (1,) * d, 0.0),
                             {i: float(partial[i - 1]) for i in range(1, d)}, tuple(range(1, d)))
    return float(partial[-1]), inputs


@dataclass(frozen=True)
class KYEquivalence:
    """Whether the formula value coincides with the Kaplan-Yorke candidate.

    Both sides of the criterion are computed independently: the dimension gap
    on one side, and the zero-fiber-entropy plus no-projection-drop
    conditions on the other.  Disagreement between the sides (a tolerance
    artefact or an implementation bug) is reported as inconclusive.
    """

    status: str  # holds | fails | inconclusive
    dim_gap: float
    fiber_residual: float
    projection_residuals: dict[int, float]
    tolerance: float


def kaplan_yorke_equivalence_check(inputs: DimensionInputs, tol: float) -> KYEquivalence:
    ly = ly_dimension(inputs)
    kd = lyapunov_dimension(inputs.entropy, inputs.spectrum.exponents)
    gap = abs(ly - kd.value)
    resids = {
        i: abs(inputs.projection_dims[i] - min(i, ly)) for i in inputs.indices
    }
    equal = gap <= tol
    conditions = inputs.fiber_entropy <= tol and all(r <= tol for r in resids.values())
    if equal and conditions:
        status = "holds"
    elif not equal and not conditions:
        status = "fails"
    else:
        status = "inconclusive"
    return KYEquivalence(status, float(gap), float(inputs.fiber_entropy), resids, tol)


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class PipelineConfig:
    """Budgets and options for :func:`full_pipeline`."""

    seed: int = 0
    spectrum_steps: int = 5000
    spectrum_trials: int = 12
    scan_n_max: int = SCAN_N_MAX
    scan_budget: int = PRODUCT_BUDGET
    flag_iterations: int = 128
    flag_count: int = 12
    sample_count: int = 100_000
    sample_depth: int | None = None
    centers: int = DEFAULT_CENTERS
    radii_count: int = DEFAULT_RADII_COUNT
    separation_level: int = 8
    separation_budget: int = PRODUCT_BUDGET
    fiber_entropy: float | None = None

    def resolved(self, ifs: IfsSystem) -> "PipelineConfig":
        """Fill the sampling depth (:func:`measure.default_depth`) when it is not set."""
        if self.sample_depth is not None:
            return self
        return dataclasses.replace(self, sample_depth=_default_depth(ifs, self.radii_count))


def _tag(value, provenance: str, **extra) -> dict:
    """A report number with its provenance and any extra fields."""
    return {"value": value, "provenance": provenance, **extra}


def _spectrum_block(spec: LyapunovSpectrum) -> dict:
    """The report block of a Lyapunov spectrum."""
    return {
        "exponents": _tag([float(x) for x in spec.exponents], "estimated"),
        "stderr": None if spec.stderr is None else [float(x) for x in spec.stderr],
        "multiplicities": list(spec.multiplicities),
        "gap_threshold": spec.gap_threshold,
    }


def _domination_block(report: DominationReport) -> dict:
    """The report block of a domination scan: per-index verdicts and the dominated indices."""
    return {
        "dominated_indices": list(report.dominated_indices),
        "indices": [
            {"index": item.index, "status": item.status, "n_max": item.n_max,
             "decay_rate": _tag(item.decay_rate, "estimated"),
             "constant_estimate": _tag(item.constant_estimate, "estimated")}
            for item in report.indices
        ],
    }


@dataclass(frozen=True)
class DimensionReport:
    """Everything the pipeline measured, with the provenance of each input."""

    route: str
    entropy: float
    fiber_entropy: float | None
    fiber_entropy_provenance: str
    spectrum: LyapunovSpectrum
    domination: DominationReport | None
    separation: SeparationVerdict
    projection_dims: dict[int, float]
    projection_dims_raw: dict[int, float]
    projection_dispersion: dict[int, float]
    ly_dim: float | None
    ly_dim_conditional: dict[str, float] | None
    lyapunov_dim: LyapunovDimensionResult
    empirical: LocalDimensionReport
    empirical_boxcount: BoxCountReport
    equivalence: KYEquivalence | None
    caveats: tuple[str, ...]

    def to_dict(self) -> dict:
        """JSON-ready structure; every result number carries a provenance tag."""
        doc = {
            "schema_version": SCHEMA_VERSION,
            "route": self.route,
            "entropy": _tag(self.entropy, "closed-form"),
            "fiber_entropy": _tag(self.fiber_entropy, self.fiber_entropy_provenance),
            "spectrum": _spectrum_block(self.spectrum),
            "separation": {
                "status": self.separation.status,
                "witness_gap": _tag(self.separation.witness_gap, "lower-bound"
                                    if self.separation.status == "ssc-verified" else "closed-form"),
                "level": self.separation.level,
                "pairs_formed": self.separation.pairs_formed,
                "near_pairs": self.separation.near_pairs,
            },
            "projection_dims": {
                str(i): _tag(v, "estimated",
                             raw=self.projection_dims_raw.get(i),
                             dispersion=self.projection_dispersion.get(i))
                for i, v in self.projection_dims.items()
            },
            "ly_dim": None if self.ly_dim is None else _tag(self.ly_dim, "estimated"),
            "ly_dim_conditional": self.ly_dim_conditional,
            "lyapunov_dim": _tag(
                self.lyapunov_dim.value, "estimated",
                raw=self.lyapunov_dim.raw,
                k_argmin=self.lyapunov_dim.k_argmin,
                clamped=self.lyapunov_dim.clamped,
            ),
            "empirical_dim": _tag(
                self.empirical.median, "estimated",
                iqr=self.empirical.iqr,
                centers=int(np.sum(~np.isnan(self.empirical.slopes))),
                skipped=self.empirical.n_skipped,
            ),
            "empirical_boxcount_dim": _tag(
                self.empirical_boxcount.dimension, "estimated",
                box_sizes=len(self.empirical_boxcount.eps),
            ),
            "equivalence": None if self.equivalence is None else {
                "status": self.equivalence.status,
                "dim_gap": self.equivalence.dim_gap,
                "fiber_residual": self.equivalence.fiber_residual,
                "projection_residuals": {
                    str(i): v for i, v in self.equivalence.projection_residuals.items()
                },
                "tolerance": self.equivalence.tolerance,
            },
            "caveats": list(self.caveats),
        }
        if self.domination is not None:
            doc["domination"] = _domination_block(self.domination)
        return doc


def _radii(cloud: PointCloud, cfg: PipelineConfig) -> np.ndarray:
    """The pipeline's radii grid for ``cloud``: empty for a point mass.

    Raises ``ValueError`` when a cloud of positive extent keeps fewer than
    ``MIN_USABLE_RADII`` radii, naming ``radii_count`` when the grid asks for
    fewer than that, and otherwise the sample depth whose truncation floor
    dropped the rest.
    """
    radii = _default_radii(cloud, cfg.radii_count)
    if cloud.diameter > 0 and radii.size < MIN_USABLE_RADII:
        if cfg.radii_count < MIN_USABLE_RADII:
            raise ValueError(
                f"dim.radii_count {cfg.radii_count} is below the {MIN_USABLE_RADII} "
                "radii a fit needs; raise dim.radii_count"
            )
        raise ValueError(
            f"dim.sample_depth {cfg.sample_depth} keeps {radii.size} radii above the "
            f"sample's truncation floor, need at least {MIN_USABLE_RADII}; "
            "raise dim.sample_depth"
        )
    return radii


def _estimate_projection_dims(
    ifs: IfsSystem,
    indices: tuple[int, ...],
    cloud: PointCloud,
    cfg: PipelineConfig,
    rng_flags,
    rng_proj,
) -> tuple[dict[int, float], dict[int, float], dict[int, float], list[str]]:
    """Median projected-cloud dimension over sampled invariant directions."""
    caveats: list[str] = []
    d = ifs.d
    frames = furstenberg_sample(
        ifs.matrices, ifs.weights, cfg.flag_iterations, cfg.flag_count, rng_flags
    )
    raw: dict[int, float] = {}
    spread: dict[int, float] = {}
    for i in sorted(indices):
        per_flag = []
        for frame in frames:
            # the flag member of dimension d - i is spanned by the first d - i columns
            projected = project_cloud(cloud, SubspaceFrame(frame[:, :d - i]).complement())
            rep = local_dimension_estimate(
                projected, _radii(projected, cfg), n_centers=cfg.centers, rng=rng_proj,
            )
            per_flag.append(rep.median)
        raw[i] = float(np.median(per_flag))
        q25, q75 = np.percentile(per_flag, [25, 75])
        spread[i] = float(q75 - q25)
        if spread[i] > 0.2:
            caveats.append(
                f"projection dimension at index {i} varies widely over sampled "
                f"directions (IQR {spread[i]:.3f})"
            )
    # regularise into the formula's admissible region, keeping the raw values
    used: dict[int, float] = {}
    prev = 0.0
    for i in sorted(indices):
        v = min(max(raw[i], 0.0), float(min(i, d)))
        v = max(v, prev)
        if abs(v - raw[i]) > 0.05:
            caveats.append(
                f"projection dimension at index {i} adjusted from {raw[i]:.3f} to "
                f"{v:.3f} to satisfy monotonicity/range constraints"
            )
        used[i] = v
        prev = v
    return used, raw, spread, caveats


def full_pipeline(ifs: IfsSystem, config: PipelineConfig | None = None) -> DimensionReport:
    """Run every stage and assemble a dimension report.

    Spectrum estimation, routing (simple spectrum vs dominated splitting),
    separation checking, measure sampling, per-index projected-dimension
    estimation at sampled invariant directions, and the formula evaluations.
    The fiber-entropy correction is set to zero only when strong separation
    of all the maps is verified (a map of weight zero keeps the pieces
    disjoint); otherwise it must be supplied in the config, or the formula
    value is reported conditional on it.  A supplied value outside
    ``[0, h]`` is refused before any stage runs.
    """
    cfg = (config or PipelineConfig()).resolved(ifs)
    h = entropy(ifs.weights)
    if cfg.fiber_entropy is not None:
        _check_fiber_entropy(cfg.fiber_entropy, h)
    seeds = np.random.SeedSequence(cfg.seed).spawn(5)
    rng_spectrum, rng_flags, rng_cloud, rng_centers, rng_proj = (
        np.random.default_rng(s) for s in seeds
    )
    caveats: list[str] = []
    d = ifs.d

    spectrum = lyapunov_spectrum(
        ifs.matrices, ifs.weights, cfg.spectrum_steps, cfg.spectrum_trials, rng_spectrum
    )

    domination = None
    if spectrum.simple:
        route = "simple-spectrum"
        indices = tuple(range(1, d))
    else:
        route, indices = "not-applicable", ()
        try:
            table = gap_ratio_scan(ifs.matrices, cfg.scan_n_max, cfg.scan_budget)
        except BudgetExceededError:
            caveats.append(
                f"exponents are not all distinct and {ifs.n_maps}^{cfg.scan_n_max} words exceed "
                f"dim.scan_budget={cfg.scan_budget}; the dimension formula is not applied "
                "(lower dim.scan_n_max or raise dim.scan_budget)"
            )
        else:
            domination = detect_domination(table)
            if domination.tds_verified:
                route, indices = "dominated-splitting", domination.dominated_indices
            else:
                caveats.append(
                    "exponents are not all distinct and domination is inconclusive at "
                    f"some index; the dimension formula is not applied (n_max={cfg.scan_n_max})"
                )

    separation = check_separation(ifs, cfg.separation_level, cfg.separation_budget)

    if cfg.fiber_entropy is not None:
        fiber, fiber_prov = float(cfg.fiber_entropy), "user-supplied"
    elif separation.status == "ssc-verified":
        fiber, fiber_prov = 0.0, "closed-form"
    else:
        fiber, fiber_prov = None, "unresolved"
        caveats.append(
            f"separation is {separation.status} and no fiber entropy was supplied: "
            "the formula value is reported conditional on it"
        )

    cloud = sample_measure(ifs, cfg.sample_count, cfg.sample_depth, rng_cloud)
    empirical = local_dimension_estimate(
        cloud, _radii(cloud, cfg), n_centers=cfg.centers, rng=rng_centers
    )
    boxcount = box_counting_dimension(cloud)

    proj_used: dict[int, float] = {}
    proj_raw: dict[int, float] = {}
    proj_spread: dict[int, float] = {}
    if indices:  # empty whenever the route is not-applicable
        proj_used, proj_raw, proj_spread, extra = _estimate_projection_dims(
            ifs, indices, cloud, cfg, rng_flags, rng_proj
        )
        caveats.extend(extra)

    ly_val = None
    conditional = None
    equivalence = None
    if route != "not-applicable":
        inputs = DimensionInputs(h, 0.0 if fiber is None else fiber, spectrum, proj_used, indices)
        if fiber is not None:
            ly_val = ly_dimension(inputs)
            equivalence = kaplan_yorke_equivalence_check(inputs, KY_TOL)
            if not 0.0 <= ly_val <= float(d):
                clamped = min(max(ly_val, 0.0), float(d))
                caveats.append(
                    f"formula value {ly_val:.6g} clamped into [0, {d}]"
                )
                ly_val = clamped
        else:
            conditional = {
                "at_zero_fiber_entropy": ly_dimension(inputs),
                "fiber_entropy_coefficient": float(-1.0 / spectrum.exponents[-1]),
            }

    ky = lyapunov_dimension(h, spectrum.exponents)
    return DimensionReport(
        route=route,
        entropy=h,
        fiber_entropy=fiber,
        fiber_entropy_provenance=fiber_prov,
        spectrum=spectrum,
        domination=domination,
        separation=separation,
        projection_dims=proj_used,
        projection_dims_raw=proj_raw,
        projection_dispersion=proj_spread,
        ly_dim=ly_val,
        ly_dim_conditional=conditional,
        lyapunov_dim=ky,
        empirical=empirical,
        empirical_boxcount=boxcount,
        equivalence=equivalence,
        caveats=tuple(caveats),
    )
