"""Command-line front end: affine-dim {lyapunov, domination, dim, validate}.

Reads a JSON run configuration, dispatches to the library, and emits
schema-versioned JSON reports (plus optional CSV side files).  Exit codes:
0 for success or an honest inconclusive, 1 for validation-suite failures,
2 for usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .cocycle import entropy, lyapunov_spectrum
from .config import VALIDATE_CASES, RunConfig, load_config
from .dimension import (
    PipelineConfig,
    _domination_block,
    _spectrum_block,
    _tag,
    diagonal_closed_form,
    full_pipeline,
    ly_dimension,
)
from .domination import EPS_MINOR, detect_domination, gap_ratio_scan, smallest_minors
from .errors import AffineDimError, BudgetExceededError, ConfigError

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_USAGE = 2

REPORT_SCHEMA_VERSION = 1


def _load(args, flags: dict) -> RunConfig:
    """Parse the config once, with ``--seed`` and the command's ``flags``
    ({"section.key": value}, ``None`` for a flag not given) written into it."""
    edits = {"seed": args.seed, **flags}
    return load_config(args.config, {k: v for k, v in edits.items() if v is not None})


def _check_writable(path: str) -> None:
    """Raise the ``OSError`` that writing ``path`` would raise; create nothing.

    The parent must be an existing writable directory, and ``path`` itself
    no directory (and, if it exists, writable).
    """
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _emit(report: dict, args) -> None:
    if not args.deterministic:
        report = dict(report)
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _report_shell(command: str, cfg: RunConfig, results: dict, warnings: list[str]) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "resolved_config": cfg.doc,
        "results": results,
        "warnings": warnings,
    }


# ---------------------------------------------------------------------------
# lyapunov


def cmd_lyapunov(args) -> int:
    cfg = _load(args, {"lyapunov.steps": args.steps, "lyapunov.trials": args.trials})
    opts = cfg.lyapunov
    warnings: list[str] = []
    if opts["trials"] == 1:
        warnings.append("single trial: standard errors are reported as null")

    ifs = cfg.ifs
    spectrum = lyapunov_spectrum(ifs.matrices, ifs.weights, opts["steps"], opts["trials"],
                                 rng=cfg.seed)
    # the builtin sum adds left to right; ndarray.sum would regroup the terms
    expected_sum = -float(sum(ifs.weights.p * np.log(np.abs(np.linalg.det(ifs.matrices)))))
    results = {
        **_spectrum_block(spectrum),
        "sum_exponents": _tag(float(spectrum.exponents.sum()), "estimated"),
        "mean_log_det_rate": _tag(expected_sum, "closed-form"),
        "entropy": _tag(entropy(ifs.weights), "closed-form"),
    }
    results["exponents"]["stderr"] = results["stderr"]
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            d = spectrum.d
            writer.writerow(
                ["trial"]
                + [f"chi_{j + 1}" for j in range(d)]
                + [f"partial_sum_{j + 1}" for j in range(d)]
            )
            for t, row in enumerate(spectrum.trial_exponents):
                partial = np.cumsum(row)
                writer.writerow([t] + [repr(float(x)) for x in row]
                                + [repr(float(x)) for x in partial])
    _emit(_report_shell("lyapunov", cfg, results, warnings), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# domination


def cmd_domination(args) -> int:
    cfg = _load(args, {})
    ifs = cfg.ifs
    opts = cfg.domination
    try:
        table = gap_ratio_scan(ifs.matrices, opts["n_max"], opts["budget"])
    except BudgetExceededError as err:
        raise ConfigError(
            f"{err} (lower domination.n_max or raise domination.budget)", "domination"
        ) from None

    report = detect_domination(table)
    # STP reads the minors of order 1..d-1 (none at d = 1), the determinant
    # sign the last column, and the cone of order p column p-1 over all maps
    minors = smallest_minors(ifs.matrices)
    positive = minors > EPS_MINOR
    results = {
        "method": "exhaustive",
        **_domination_block(report),
        "stp": [
            {"map": j, "is_stp": bool(pos[:-1].all()), "det_positive": bool(pos[-1]),
             "min_minor": _tag(float(row[:-1].min()) if ifs.d > 1 else None, "closed-form")}
            for j, (row, pos) in enumerate(zip(minors, positive))
        ],
        "cone_invariance": {str(p): bool(positive[:, p - 1].all()) for p in range(1, ifs.d)},
    }
    _emit(_report_shell("domination", cfg, results, []), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dim


def cmd_dim(args) -> int:
    cfg = _load(args, {"dim.H": args.H})
    opts = dict(cfg.dim)
    pcfg = PipelineConfig(seed=cfg.seed, fiber_entropy=opts.pop("H"), **opts)
    report = full_pipeline(cfg.ifs, pcfg)
    if args.assume_ssc and report.separation.status != "ssc-verified":
        raise ConfigError(
            f"--assume-ssc refused: separation check returned '{report.separation.status}' "
            f"at level {report.separation.level}"
        )
    if args.emit_histogram:
        with open(args.emit_histogram, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["center_index", "slope"])
            for idx, slope in zip(report.empirical.center_indices, report.empirical.slopes):
                writer.writerow([int(idx), repr(float(slope))])
    _emit(_report_shell("dim", cfg, report.to_dict(), list(report.caveats)), args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


# a formula case's tolerance: both sides are one closed form, so only rounding differs
FORMULA_TOL = 1e-9


def cmd_validate(args) -> int:
    cfg = _load(args, {})
    opts = cfg.validate
    rows = []

    def add_row(case, check, value, reference, tol):
        # a missing value has no difference and fails
        diff = None if value is None else abs(value - reference)
        rows.append({"case": case, "check": check, "value": value, "reference": reference,
                     "difference": diff, "tolerance": tol,
                     "status": "pass" if diff is not None and diff <= tol else "fail"})

    for case in opts["cases"]:
        check, system, fiber = VALIDATE_CASES[case]
        ifs = system()
        ref, inputs = diagonal_closed_form(ifs)
        if check == "formula":
            add_row(case, "generic formula vs closed form", ly_dimension(inputs), ref, FORMULA_TOL)
            continue
        rep = full_pipeline(ifs, PipelineConfig(seed=cfg.seed, sample_count=opts["sample_count"],
                                                fiber_entropy=fiber))
        add_row(case, "pipeline formula value", rep.ly_dim, ref, opts["value_tol"])
        add_row(case, "box-count dimension", rep.empirical_boxcount.dimension, ref,
                opts["empirical_tol"])

    width = max(len(r["case"] + r["check"]) for r in rows) + 4
    for r in rows:
        label = f"{r['case']}: {r['check']}"
        diff = "missing" if r["difference"] is None else f"{r['difference']:.3e}"
        print(f"{label:<{width}} |value-ref|={diff} tol={r['tolerance']:.1e} "
              f"{r['status'].upper()}", file=sys.stderr)
    all_pass = all(r["status"] == "pass" for r in rows)
    results = {"rows": rows, "all_pass": all_pass}
    _emit(_report_shell("validate", cfg, results, []), args)
    return EXIT_OK if all_pass else EXIT_VALIDATION_FAILED


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affine-dim",
        description="Lyapunov spectra, dominated splitting, and dimension reports "
        "for self-affine measures",
    )
    parser.add_argument("--version", action="version", version=f"affine-dim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--seed", type=int, help="set the config's seed")
        p.add_argument(
            "--deterministic", action="store_true",
            help="omit timestamps so identical runs emit identical bytes",
        )

    p = sub.add_parser("lyapunov", help="estimate the Lyapunov spectrum")
    common(p)
    p.add_argument("--steps", type=int, help="set lyapunov.steps (word length)")
    p.add_argument("--trials", type=int, help="set lyapunov.trials")
    p.add_argument("--csv", help="write per-trial exponents and partial sums as CSV")
    p.set_defaults(func=cmd_lyapunov)

    p = sub.add_parser("domination", help="scan gap ratios and detect dominated splitting")
    common(p)
    p.set_defaults(func=cmd_domination)

    p = sub.add_parser("dim", help="run the full dimension pipeline")
    common(p)
    p.add_argument("--H", type=float, help="set dim.H, the fiber-entropy correction")
    p.add_argument(
        "--assume-ssc", action="store_true",
        help="assert strong separation; refused unless the check verifies it",
    )
    p.add_argument("--emit-histogram", help="CSV of per-center local-dimension slopes")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("validate", help="run the closed-form oracle suite")
    common(p)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # refuse an output path before any work, not after the run
        for path in (args.out, getattr(args, "csv", None), getattr(args, "emit_histogram", None)):
            if path:
                _check_writable(path)
        return args.func(args)
    except (AffineDimError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
