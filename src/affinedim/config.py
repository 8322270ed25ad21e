"""Run-configuration schema: strict JSON parsing with located errors.

Unknown keys are rejected with their path; defaults are materialised so the
emitted resolved config re-parses to the same normalized document.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cocycle import PRODUCT_BUDGET, BernoulliWeights, entropy
from .dimension import PipelineConfig, _check_fiber_entropy
from .domination import EPS_SLOPE, MIN_FIT_LENGTH
from .errors import ConfigError
from .linalg import check_contractive_invertible
from .measure import MIN_USABLE_RADII, IfsSystem

CONFIG_SCHEMA_VERSION = 1

# the validate suite's cases: the default list and the allowed names
VALIDATE_CASES = ("bm-carpet-formula", "bm-carpet-pipeline", "cantor-pipeline", "segment-pipeline")


def _bounded(**bounds):
    """A check that :func:`_number` applies with ``bounds``."""
    return lambda value, loc: _number(value, loc, **bounds)


def _cases(cases, loc: str) -> list[str]:
    if not isinstance(cases, (list, tuple)) or not cases or not all(
        isinstance(c, str) for c in cases
    ):
        raise ConfigError("cases must be a nonempty list of case names", loc)
    unknown = [c for c in cases if c not in VALIDATE_CASES]
    if unknown:
        raise ConfigError(f"unknown case '{unknown[0]}' (known: {list(VALIDATE_CASES)})", loc)
    return list(cases)


_COUNT = _bounded(integer=True, minimum=1)
_SIZE = _bounded(integer=True, minimum=100)  # word lengths and sample sizes
_FIT_LENGTH = _bounded(integer=True, minimum=MIN_FIT_LENGTH)
_TOL = _bounded(minimum=0.0)
_OPTIONAL_TOL = _bounded(minimum=0.0, optional=True)
_PIPELINE_DEFAULTS = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}

# section -> key -> (default, check returning the normalized value); the dim
# section holds PipelineConfig's fields and defaults (the seed is top-level),
# with the fiber entropy spelled H
SECTIONS: dict[str, dict[str, tuple]] = {
    "lyapunov": {
        "steps": (10_000, _SIZE),
        "trials": (20, _COUNT),
        "gap_threshold": (None, _OPTIONAL_TOL),
    },
    "domination": {
        "n_max": (8, _FIT_LENGTH),
        "budget": (PRODUCT_BUDGET, _COUNT),
        "eps_slope": (EPS_SLOPE, _TOL),
    },
    "dim": {
        "H" if name == "fiber_entropy" else name: (_PIPELINE_DEFAULTS[name], check)
        for name, check in {
            "spectrum_steps": _SIZE,
            "spectrum_trials": _COUNT,
            "gap_threshold": _OPTIONAL_TOL,
            "scan_n_max": _FIT_LENGTH,
            "scan_budget": _COUNT,
            "eps_slope": _TOL,
            "flag_iterations": _COUNT,
            "flag_count": _COUNT,
            "sample_count": _SIZE,
            "sample_depth": _bounded(integer=True, minimum=1, optional=True),
            "centers": _COUNT,
            "radii_count": _bounded(integer=True, minimum=MIN_USABLE_RADII),
            "radii_ratio": _bounded(minimum=0.1, maximum=0.99),
            "separation_level": _COUNT,
            "separation_budget": _COUNT,
            "fiber_entropy": _OPTIONAL_TOL,
            "ky_tol": _TOL,
        }.items()
    },
    "validate": {
        "cases": (VALIDATE_CASES, _cases),
        "sample_count": (30_000, _SIZE),
        "formula_tol": (1e-9, _TOL),
        "value_tol": (0.02, _TOL),
        "empirical_tol": (0.05, _TOL),
    },
}

_TOP_KEYS = {"schema_version", "notes", "ifs", "seed", *SECTIONS}
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
    if not math.isfinite(value):  # no report could echo it as strict JSON
        raise ConfigError(f"expected a finite number, got {value!r}", loc)
    if integer and not float(value).is_integer():
        raise ConfigError(f"expected an integer, got {value!r}", loc)
    if minimum is not None and value < minimum:
        raise ConfigError(f"value {value!r} below minimum {minimum}", loc)
    if maximum is not None and value > maximum:
        raise ConfigError(f"value {value!r} above maximum {maximum}", loc)
    return int(value) if integer else float(value)


def _section(doc: dict, name: str) -> dict:
    """Section ``name`` of ``doc``, checked, with every default filled in."""
    schema = SECTIONS[name]
    section = _require_mapping(doc.get(name, {}), name, set(schema))
    return {key: check(section.get(key, default), f"{name}.{key}")
            for key, (default, check) in schema.items()}


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
        return check_contractive_invertible(np.array([_number(x, loc) for x in flat]).reshape(n, n))
    except ValueError as err:
        raise ConfigError(str(err), loc) from None


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
    lyap, domn, dim, val = (_section(doc, name) for name in SECTIONS)
    if dim["H"] is not None:
        try:
            _check_fiber_entropy(dim["H"], entropy(ifs.weights))
        except ValueError as err:
            raise ConfigError(str(err), "dim.H") from None

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


def load_config(path, edits: dict | None = None) -> RunConfig:
    """Read and parse a JSON config file.

    ``edits`` maps ``"seed"`` or a ``"section.key"`` path to a value that is
    written into the document before its one parse, so a command-line flag is
    checked, with its location, and echoed like a value from the file.
    """
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON in {p}: {err}") from None
    for where, value in (edits or {}).items():
        doc = _require_mapping(doc, "<config>", _TOP_KEYS)
        name, _, key = where.rpartition(".")
        if name:
            value = {**_require_mapping(doc.get(name, {}), name, set(SECTIONS[name])), key: value}
        doc = {**doc, name or key: value}
    return parse_config(doc)
