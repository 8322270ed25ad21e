"""Outside-in span tracing for the benchmark.

While installed, a :class:`Tracer` replaces every public ``affinedim``
function that ``affinedim.cli`` and ``affinedim.dimension`` look up in their
module namespaces with a wrapper that records a span: name, start, end,
parent span, run id and report number, plus the work counts read from the
returned object.  The program itself is not modified; uninstalling restores
the original functions.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
import weakref
from contextlib import contextmanager
from pathlib import Path

TRACED_NAMESPACES = ("affinedim.cli", "affinedim.dimension")


def _kept_centers(report) -> int:
    return int(sum(1 for s in report.slopes if s == s))  # NaN marks a skipped centre


# span name -> counts read from (bound call arguments, tracer, result)
COUNTERS = {
    "cocycle.lyapunov_spectrum": lambda a, t, r: {
        "steps": int(a["steps"]) * len(r.trial_exponents)},
    "domination.gap_ratio_scan": lambda a, t, r: {"products": int(r.products_examined)},
    "measure.sample_measure": lambda a, t, r: {"map_applications": int(r.m) * int(r.depth)},
    "measure.project_cloud": lambda a, t, r: t.mark_projected(r),
    "measure.local_dimension_estimate": lambda a, t, r: {
        "centers": len(r.center_indices),
        "centers_kept": _kept_centers(r),
        "projected": int(t.projected.get(id(a["cloud"])) is a["cloud"]),
    },
    "measure.box_counting_dimension": lambda a, t, r: {"box_sizes": len(r.eps)},
    "measure.check_separation": lambda a, t, r: {
        "cylinders": int(a["ifs"].n_maps) ** int(r.level)},
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records nested spans around calls into the program's layers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.report: int | None = None
        self.spans: list[dict] = []
        # PointCloud is unhashable, so projected clouds are keyed by id; an entry
        # vanishes with its cloud, so a reused id cannot match a stale one
        self.projected = weakref.WeakValueDictionary()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def mark_projected(self, cloud) -> dict:
        self.projected[id(cloud)] = cloud
        return {}

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans), "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id, "report": self.report,
            "start": time.perf_counter(), "end": None, "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn):
        """Return ``fn`` wrapped so that every call records a span."""
        name = span_name(fn)
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                rec["counts"] = counter(bound.arguments, self, result)
            return result

        return traced

    def install(self) -> None:
        for modname in TRACED_NAMESPACES:
            module = sys.modules[modname]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("affinedim.") or obj.__module__ == "affinedim.cli":
                    continue
                self._patched.append((module, attr, obj))
                setattr(module, attr, self.wrap(obj))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, obj = self._patched.pop()
            setattr(module, attr, obj)

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**extra, "spans": self.spans}, indent=1) + "\n")


def report_breakdown(spans: list[dict]) -> dict:
    """Inclusive time, self time and counts per span name for one report.

    ``spans`` are the spans of one report, rooted at one span.  The result's
    ``error`` is ``None`` only if every child lies inside its parent and
    siblings do not overlap; then the self times add up to the root's duration.
    """
    ids = {s["id"] for s in spans}
    children: dict[int, list[dict]] = {s["id"]: [] for s in spans}
    roots = []
    for s in spans:
        (children[s["parent"]] if s["parent"] in ids else roots).append(s)
    root = roots[0]
    errors = [] if len(roots) == 1 else [f"report has {len(roots)} root spans"]
    incl: dict[str, float] = {}
    self_time: dict[str, float] = {}
    counts: dict[str, int] = {}
    for s in spans:
        kids = sorted(children[s["id"]], key=lambda k: k["start"])
        prev_end = s["start"]
        for k in kids:
            if k["start"] < prev_end or k["end"] > s["end"]:
                errors.append(f"span {k['name']} is not nested inside {s['name']}")
            prev_end = k["end"]
        own = (s["end"] - s["start"]) - sum(k["end"] - k["start"] for k in kids)
        incl[s["name"]] = incl.get(s["name"], 0.0) + (s["end"] - s["start"])
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + own
        for key, value in s["counts"].items():
            counts[f"{s['name']}.{key}"] = counts.get(f"{s['name']}.{key}", 0) + value
    duration = root["end"] - root["start"]
    proj = sum(s["end"] - s["start"] for s in spans
               if s["name"] == "measure.local_dimension_estimate" and s["counts"].get("projected"))
    return {"duration": duration, "root": root["name"], "incl": incl, "self": self_time,
            "counts": counts, "proj_s": proj, "error": "; ".join(errors) or None}


def layer_metrics(breakdowns: list[dict]) -> dict:
    """Per-layer metrics as ``name -> (value, unit)``: medians over traced reports.

    Counts are taken from the first report; the caller checks that every
    report repeats them exactly.
    """
    counts = breakdowns[0]["counts"]

    def med(fn) -> float:
        return statistics.median(fn(b) for b in breakdowns)

    def incl(name: str) -> float:
        return med(lambda b: b["incl"].get(name, 0.0))

    def count(name: str) -> int:
        return counts.get(name, 0)

    centers = count("measure.local_dimension_estimate.centers")
    products = count("domination.gap_ratio_scan.products")
    return {
        "measure.box_counting_dimension_s": (incl("measure.box_counting_dimension"), "s"),
        "measure.box_counting_dimension.box_sizes":
            (count("measure.box_counting_dimension.box_sizes"), "count"),
        "measure.local_dimension_estimate_s": (incl("measure.local_dimension_estimate"), "s"),
        "measure.local_dimension_estimate.proj_s": (med(lambda b: b["proj_s"]), "s"),
        "measure.local_dimension_estimate.centers": (centers, "count"),
        "measure.local_dimension_estimate.centers_kept_frac": (
            count("measure.local_dimension_estimate.centers_kept") / centers if centers else 0.0,
            "fraction"),
        "measure.sample_measure_s": (incl("measure.sample_measure"), "s"),
        "measure.sample_measure.map_applications":
            (count("measure.sample_measure.map_applications"), "count"),
        "measure.project_cloud_s": (incl("measure.project_cloud"), "s"),
        "measure.check_separation_s": (incl("measure.check_separation"), "s"),
        "measure.check_separation.cylinders": (count("measure.check_separation.cylinders"), "count"),
        "domination.gap_ratio_scan_s": (incl("domination.gap_ratio_scan"), "s"),
        "domination.gap_ratio_scan.products": (products, "count"),
        "domination.gap_ratio_scan.us_per_product": (
            1e6 * incl("domination.gap_ratio_scan") / products if products else 0.0, "us"),
        "domination.detect_domination_s": (incl("domination.detect_domination"), "s"),
        "cocycle.lyapunov_spectrum_s": (incl("cocycle.lyapunov_spectrum"), "s"),
        "cocycle.lyapunov_spectrum.steps": (count("cocycle.lyapunov_spectrum.steps"), "count"),
        "cocycle.furstenberg_sample_s": (incl("cocycle.furstenberg_sample"), "s"),
        "dimension.full_pipeline.self_s":
            (med(lambda b: b["self"].get("dimension.full_pipeline", 0.0)), "s"),
        "cli.self_s": (med(lambda b: b["self"].get("cli.main", 0.0)), "s"),
        "config.load_config_s": (incl("config.load_config") + incl("config.parse_config"), "s"),
        "bench.report.self_s": (med(lambda b: b["self"][b["root"]]), "s"),
        "trace.report_s": (med(lambda b: b["duration"]), "s"),
    }
