"""Run-configuration schema: strict JSON parsing with located errors.

Unknown keys are rejected with their path; defaults are materialised so the
emitted resolved config re-parses to the same normalized document.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cocycle import BernoulliWeights
from .dimension import PipelineConfig
from .errors import ConfigError
from .measure import MIN_USABLE_RADII, IfsSystem

CONFIG_SCHEMA_VERSION = 1

LYAPUNOV_DEFAULTS: dict = {
    "steps": 10_000,
    "trials": 20,
    "gap_threshold": None,
    "renorm_every": 10,
}

DOMINATION_DEFAULTS: dict = {
    "n_max": 8,
    "budget": 10**6,
    "eps_slope": 0.01,
    "monte_carlo_samples": 512,
}

# the dim section holds PipelineConfig's fields (the seed is top-level), with
# the fiber entropy spelled H
DIM_DEFAULTS: dict = {
    "H" if f.name == "fiber_entropy" else f.name: f.default
    for f in dataclasses.fields(PipelineConfig)
    if f.name != "seed"
}

VALIDATE_DEFAULTS: dict = {
    "cases": ["bm-carpet-formula", "bm-carpet-pipeline", "cantor-pipeline", "segment-pipeline"],
    "sample_count": 30_000,
    "formula_tol": 1e-9,
    "value_tol": 0.02,
    "empirical_tol": 0.05,
}

_TOP_KEYS = {"schema_version", "notes", "ifs", "seed", "lyapunov", "domination", "dim", "validate"}
_IFS_KEYS = {"matrices", "translations", "weights"}


def _require_mapping(value, loc: str, allowed: set[str]) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"expected an object, got {type(value).__name__}", loc)
    for key in value:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}'", loc)
    return value


def _number(value, loc: str, *, integer=False, minimum=None, maximum=None, optional=False):
    if value is None:
        if optional:
            return None
        raise ConfigError("value is required", loc)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", loc)
    if integer and not float(value).is_integer():
        raise ConfigError(f"expected an integer, got {value!r}", loc)
    if minimum is not None and value < minimum:
        raise ConfigError(f"value {value!r} below minimum {minimum}", loc)
    if maximum is not None and value > maximum:
        raise ConfigError(f"value {value!r} above maximum {maximum}", loc)
    return int(value) if integer else float(value)


def _merge_section(doc: dict, key: str, defaults: dict) -> dict:
    section = doc.get(key, {})
    section = _require_mapping(section, key, set(defaults))
    merged = dict(defaults)
    merged.update(section)
    return merged


def _parse_matrix(entry, d: int | None, loc: str) -> np.ndarray:
    if not isinstance(entry, list) or not entry:
        raise ConfigError("matrix must be a nonempty list", loc)
    if isinstance(entry[0], list):
        rows = entry
        n = len(rows)
        if any(not isinstance(r, list) or len(r) != n for r in rows):
            raise ConfigError("matrix rows must be equal-length lists", loc)
        flat = [x for row in rows for x in row]
    else:
        flat = entry
        n = int(round(len(flat) ** 0.5))
        if n * n != len(flat):
            raise ConfigError(f"flat matrix of length {len(flat)} is not square", loc)
    if d is not None and n != d:
        raise ConfigError(f"matrix is {n}x{n}, expected {d}x{d}", loc)
    try:
        vals = [float(x) for x in flat]
    except (TypeError, ValueError):
        raise ConfigError("matrix entries must be numbers", loc) from None
    return np.array(vals).reshape(n, n)


def _parse_ifs(doc: dict) -> IfsSystem:
    section = _require_mapping(doc.get("ifs"), "ifs", _IFS_KEYS)
    for key in _IFS_KEYS:
        if key not in section:
            raise ConfigError(f"missing required key '{key}'", "ifs")
    raw_mats = section["matrices"]
    if not isinstance(raw_mats, list) or not raw_mats:
        raise ConfigError("expected a nonempty list of matrices", "ifs.matrices")
    mats, d = [], None
    for j, entry in enumerate(raw_mats):
        m = _parse_matrix(entry, d, f"ifs.matrices[{j}]")
        d = m.shape[0]
        mats.append(m)
    raw_ts = section["translations"]
    if not isinstance(raw_ts, list) or len(raw_ts) != len(mats):
        raise ConfigError("need one translation per matrix", "ifs.translations")
    ts = []
    for j, entry in enumerate(raw_ts):
        loc = f"ifs.translations[{j}]"
        if not isinstance(entry, list) or len(entry) != d:
            raise ConfigError(f"expected a {d}-vector", loc)
        ts.append([_number(x, loc) for x in entry])
    raw_w = section["weights"]
    loc = "ifs.weights"
    if not isinstance(raw_w, list) or len(raw_w) != len(mats):
        raise ConfigError("need one weight per matrix", loc)
    try:
        weights = BernoulliWeights(np.array([_number(x, loc) for x in raw_w]))
    except ValueError as err:
        raise ConfigError(str(err), loc) from None
    try:
        return IfsSystem(np.stack(mats), np.array(ts), weights)
    except ValueError as err:
        raise ConfigError(str(err), "ifs") from None


@dataclass(frozen=True)
class RunConfig:
    """A parsed configuration plus its normalized (defaults-filled) document."""

    ifs: IfsSystem
    seed: int
    doc: dict

    @property
    def lyapunov(self) -> dict:
        return self.doc["lyapunov"]

    @property
    def domination(self) -> dict:
        return self.doc["domination"]

    @property
    def dim(self) -> dict:
        return self.doc["dim"]

    @property
    def validate(self) -> dict:
        return self.doc["validate"]


def parse_config(doc) -> RunConfig:
    """Validate a configuration document and fill in every default."""
    doc = _require_mapping(doc, "<config>", _TOP_KEYS)
    version = doc.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {version!r} (supported: {CONFIG_SCHEMA_VERSION})",
            "schema_version",
        )
    notes = doc.get("notes")
    if notes is not None and not isinstance(notes, str):
        raise ConfigError("notes must be a string", "notes")
    ifs = _parse_ifs(doc)
    seed = _number(doc.get("seed", 0), "seed", integer=True, minimum=0)

    lyap = _merge_section(doc, "lyapunov", LYAPUNOV_DEFAULTS)
    _number(lyap["steps"], "lyapunov.steps", integer=True, minimum=100)
    _number(lyap["trials"], "lyapunov.trials", integer=True, minimum=1)
    _number(lyap["gap_threshold"], "lyapunov.gap_threshold", minimum=0.0, optional=True)
    _number(lyap["renorm_every"], "lyapunov.renorm_every", integer=True, minimum=1)

    domn = _merge_section(doc, "domination", DOMINATION_DEFAULTS)
    _number(domn["n_max"], "domination.n_max", integer=True, minimum=6)
    _number(domn["budget"], "domination.budget", integer=True, minimum=1)
    _number(domn["eps_slope"], "domination.eps_slope", minimum=0.0)
    _number(domn["monte_carlo_samples"], "domination.monte_carlo_samples", integer=True, minimum=1)

    dim = _merge_section(doc, "dim", DIM_DEFAULTS)
    for key, spec in {
        "spectrum_steps": dict(integer=True, minimum=100),
        "spectrum_trials": dict(integer=True, minimum=1),
        "gap_threshold": dict(minimum=0.0, optional=True),
        "scan_n_max": dict(integer=True, minimum=6),
        "scan_budget": dict(integer=True, minimum=1),
        "eps_slope": dict(minimum=0.0),
        "flag_iterations": dict(integer=True, minimum=1),
        "flag_count": dict(integer=True, minimum=1),
        "sample_count": dict(integer=True, minimum=100),
        "sample_depth": dict(integer=True, minimum=1, optional=True),
        "centers": dict(integer=True, minimum=1),
        "radii_count": dict(integer=True, minimum=MIN_USABLE_RADII),
        "radii_ratio": dict(minimum=0.1, maximum=0.99),
        "separation_level": dict(integer=True, minimum=1),
        "separation_budget": dict(integer=True, minimum=1),
        "H": dict(minimum=0.0, optional=True),
        "ky_tol": dict(minimum=0.0),
    }.items():
        _number(dim[key], f"dim.{key}", **spec)

    val = _merge_section(doc, "validate", VALIDATE_DEFAULTS)
    if not isinstance(val["cases"], list) or not all(isinstance(c, str) for c in val["cases"]):
        raise ConfigError("cases must be a list of case names", "validate.cases")
    _number(val["sample_count"], "validate.sample_count", integer=True, minimum=100)
    _number(val["formula_tol"], "validate.formula_tol", minimum=0.0)
    _number(val["value_tol"], "validate.value_tol", minimum=0.0)
    _number(val["empirical_tol"], "validate.empirical_tol", minimum=0.0)

    normalized = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "ifs": {
            "matrices": [[[float(x) for x in row] for row in m] for m in ifs.matrices],
            "translations": [[float(x) for x in t] for t in ifs.translations],
            "weights": [float(x) for x in ifs.weights.p],
        },
        "seed": seed,
        "lyapunov": lyap,
        "domination": domn,
        "dim": dim,
        "validate": val,
    }
    if notes is not None:
        normalized["notes"] = notes
    return RunConfig(ifs, seed, normalized)


def load_config(path) -> RunConfig:
    """Read and parse a JSON config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {p}: {err}") from None
    return parse_config(doc)
