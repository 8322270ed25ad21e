"""The affinedim benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload dim-carpet --seed 7 --seconds 34 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, so nothing needs installing.  The client asks for
one report, waits for it, checks it, and asks again while another report of
median length still ends within ``--seconds`` (at least two reports, so that
byte-determinism is always checked).
BLAS/OpenMP are capped at one thread and ``AFFINE_DIM_THREADS`` is unset.

A fixed reference workload is timed beside every set-up probe and after
every report, and the end-to-end timings are scaled by it to seconds at a
fixed host speed (see ``perfbench/README.md``).

With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced reports (at least two pairs) and prints the
per-layer metrics; the spans are written to ``perfbench/out/``.  The last
line of standard output is the result object; the lines before it record the
environment and every report.  See ``perfbench/README.md`` for the workloads
and for which metric each layer should move.
"""

from __future__ import annotations

import os

THREAD_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# must happen before anything imports numpy, here or in a child process
for _var in THREAD_CAPS:
    os.environ[_var] = "1"
os.environ.pop("AFFINE_DIM_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 15
# The host's speed drifts by up to a factor of two over tens of seconds, so
# timings are scaled by a fixed reference workload timed beside them: seconds
# at the speed where the reference takes REFERENCE_S (an uncontended 2-core Xeon).
REFERENCE_S = 0.4
MIN_REPORTS = 2  # in a traced run, pairs of an untraced and a traced report
STDERRS_ALLOWED = 4.0  # reference checks allow this many standard errors


class CheckFailed(Exception):
    """A report that parsed but failed a reference check."""


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# reference values computed here from the config documents, not by the program


def carpet_closed_form(doc: dict) -> float:
    """Bedford-McMullen dimension of a diag(1/m, 1/n) digit carpet measure."""
    mats, shifts, p = (doc["ifs"][k] for k in ("matrices", "translations", "weights"))
    m, n = round(1.0 / mats[0][0][0]), round(1.0 / mats[0][1][1])
    rows = [0.0] * n
    for t, w in zip(shifts, p):
        rows[round(t[1] * n)] += w

    def h(q):
        return -sum(x * math.log(x) for x in q if x > 0)

    return h(p) / math.log(m) + (1.0 / math.log(n) - 1.0 / math.log(m)) * h(rows)


def log_det_moments(doc: dict) -> tuple[float, float]:
    """Mean and variance of -log|det A_w| for one symbol w drawn from the weights.

    The exponents of one trial sum to the mean of this quantity over the
    trial's word (QR re-orthonormalisation keeps |det| exactly), so the mean is
    what the exponents must sum to and the variance gives their exact error.
    """
    import numpy as np

    mats = np.asarray(doc["ifs"]["matrices"], dtype=float)
    x = [-math.log(abs(np.linalg.det(a))) for a in mats]
    p = doc["ifs"]["weights"]
    mean = sum(w * v for w, v in zip(p, x))
    return mean, sum(w * (v - mean) ** 2 for w, v in zip(p, x))


def _check_exponent_sum(chi_sum: float, symbols: int, doc: dict) -> None:
    """Sum of exponents over ``symbols`` drawn maps vs its closed-form mean."""
    expected, var = log_det_moments(doc)
    tol = STDERRS_ALLOWED * math.sqrt(var / symbols)
    _require(abs(chi_sum - expected) <= tol,
             f"sum of exponents {chi_sum} is {abs(chi_sum - expected):.3g} from "
             f"{expected}, over {STDERRS_ALLOWED:g} standard errors ({tol:.3g})")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A report request, its reference checks, and the config it reads."""

    name: str
    config: str

    def __init__(self, seed: int | None):
        self.seed = seed
        self.input_path = ROOT / "configs" / self.config
        self.doc = json.loads(self.input_path.read_text())

    def seed_args(self) -> list[str]:
        return [] if self.seed is None else ["--seed", str(self.seed)]

    def cli(self, cli_main, argv: list[str]) -> tuple[bytes, dict]:
        """Run one CLI command in process; return its report bytes, parsed."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        _require(code == 0, f"affine-dim {argv[0]} exited with {code}")
        text = buf.getvalue()
        return text.encode(), strict_json(text)

    def prepare(self) -> None:
        """Write any generated input; runs before set-up is measured."""

    def load(self, run_config) -> None:
        """Keep what library calls need from the parsed config."""

    def request(self, cli_main, check_separation) -> list:
        """Make one report; return ``(bytes, parsed)`` for each output."""
        raise NotImplementedError

    def check(self, outputs: list) -> None:
        raise NotImplementedError


class DimWorkload(Workload):
    def request(self, cli_main, check_separation):
        return [self.cli(cli_main, ["dim", "--deterministic", "--config", str(self.input_path),
                                *self.seed_args()])]


class DimCarpet(DimWorkload):
    name = "dim-carpet"
    config = "bm.json"
    value_tol = 0.02  # the validate suite's tolerances
    empirical_tol = 0.05

    def check(self, outputs):
        res = outputs[0][1]["results"]
        ref = carpet_closed_form(self.doc)
        ly = res["ly_dim"]["value"]
        box = res["empirical_boxcount_dim"]["value"]
        _require(abs(ly - ref) <= self.value_tol, f"ly_dim {ly} vs closed form {ref}")
        _require(abs(box - ref) <= self.empirical_tol,
                 f"empirical_boxcount_dim {box} vs closed form {ref}")


class DimStp3(DimWorkload):
    name = "dim-stp3"
    config = "stp3.json"

    def check(self, outputs):
        res = outputs[0][1]["results"]
        _require(res["route"] == "simple-spectrum", f"route is {res['route']}")
        opts = outputs[0][1]["resolved_config"]["dim"]
        _check_exponent_sum(sum(res["spectrum"]["exponents"]["value"]),
                            opts["spectrum_steps"] * opts["spectrum_trials"], self.doc)


class CertifyStp3(Workload):
    """Spectrum, exhaustive domination scan and a deep separation certificate."""

    name = "certify-stp3"
    config = "stp3.json"
    steps = 100_000
    n_max = 14  # 2 + 4 + ... + 2**14 = 32,766 products
    level = 13  # 2**13 cylinders; verified from level 10, level 14 needs ~1.5 GB

    def __init__(self, seed):
        super().__init__(seed)
        self.doc["domination"] = {**self.doc.get("domination", {}), "n_max": self.n_max}
        self.input_path = OUT / f"{self.name}.json"

    def prepare(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self.input_path.write_text(json.dumps(self.doc, indent=2) + "\n")

    def load(self, run_config):
        self.ifs = run_config.ifs
        self.budget = run_config.dim["separation_budget"]

    def request(self, cli_main, check_separation):
        common = ["--deterministic", "--config", str(self.input_path), *self.seed_args()]
        lyap = self.cli(cli_main, ["lyapunov", *common, "--steps", str(self.steps)])
        domn = self.cli(cli_main, ["domination", *common])
        verdict = check_separation(self.ifs, self.level, self.budget)
        text = repr((verdict.status, verdict.witness_words, verdict.witness_gap, verdict.level))
        return [lyap, domn, (text.encode(), verdict)]

    def check(self, outputs):
        lyap, domn, verdict = (o[1] for o in outputs)
        res = lyap["results"]
        _require(abs(res["mean_log_det_rate"]["value"] - log_det_moments(self.doc)[0]) <= 1e-9,
                 "mean_log_det_rate differs from -sum p log|det A|")
        trials = lyap["resolved_config"]["lyapunov"]["trials"]
        _check_exponent_sum(res["sum_exponents"]["value"], self.steps * trials, self.doc)
        dominated = domn["results"]["dominated_indices"]
        _require(dominated == [1, 2], f"dominated_indices {dominated}, STP implies [1, 2]")
        _require(verdict.status == "ssc-verified", f"separation verdict {verdict.status}")


WORKLOADS = {w.name: w for w in (DimCarpet, DimStp3, CertifyStp3)}


# ---------------------------------------------------------------------------
# measurement


def measure_setup(config: Path) -> tuple[list[float], list[float]]:
    """Seconds from interpreter start to a loaded config, in fresh processes.

    Returns the raw times and the times scaled by the quarter reference timed
    on either side of each probe, to seconds at the host speed where a whole
    reference takes ``REFERENCE_S``.
    """
    raw, scaled = [], []
    refs = [reference_time(1)[0]]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config)],
                              stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or ready.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {code}")
        refs.append(reference_time(1)[0])
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_S / (2 * (refs[-2] + refs[-1])))
    return raw, scaled


def reference_time(quarters: int = 4) -> tuple[float, float]:
    """Wall and CPU seconds of a fixed mix of the kinds of work the layers do.

    Large-array sorts and row-unique (box counting, ball-mass), a loop of
    small matrix products and 2-norms (spectra, scans) and plain interpreter
    arithmetic.  It does not use the program, so only the host's speed moves it.
    The whole reference is four quarters; set-up probes use one.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.random(200_000)
    cells = np.floor(rng.random((50_000, 2)) * 300).astype(np.int64)
    mats = rng.random((8, 3, 3))
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(quarters):
        np.sort(x)
        np.unique(cells, axis=0, return_counts=True)
        q = np.eye(3)
        for i in range(1_250):
            q = mats[i % 8] @ q
            q /= np.linalg.norm(q, 2)
        total = 0
        for k in range(200_000):
            total += k * k
    return time.perf_counter() - wall0, time.process_time() - cpu0


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "thread_caps": {v: os.environ.get(v) for v in THREAD_CAPS},
        "AFFINE_DIM_THREADS": os.environ.get("AFFINE_DIM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def run_report(workload, cli_main, check_separation, tracer, index: int):
    """One closed-loop request: (wall s, cpu s, digest, error or None).

    With a tracer, the program's layers are wrapped for this request only
    and the request runs inside a ``bench.report`` span.
    """
    if tracer is not None:
        tracer.report = index
        cli_main, check_separation = tracer.wrap(cli_main), tracer.wrap(check_separation)
        tracer.install()
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    outputs = error = None
    try:
        with tracer.span("bench.report") if tracer else contextlib.nullcontext():
            outputs = workload.request(cli_main, check_separation)
    except Exception:  # the client keeps running; the report counts as failed
        error = traceback.format_exc().strip()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()
    if error:
        return wall, cpu, None, error
    digest = hashlib.sha256(b"\0".join(o[0] for o in outputs)).hexdigest()
    try:
        workload.check(outputs)
    except Exception as err:  # a missing key fails the report like a wrong value
        return wall, cpu, digest, f"{type(err).__name__}: {err}"
    return wall, cpu, digest, None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="passed to the CLI's --seed; default: the config's own seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "affinedim" / "cli.py").is_file():
        print(f"error: no affinedim sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workload.prepare()
    setup_raw, setup_times = measure_setup(workload.input_path)
    refs = [reference_time()]

    sys.path.insert(0, str(SRC))
    import affinedim
    from affinedim import cli, measure
    from affinedim.config import load_config

    if Path(affinedim.__file__).resolve().parent != (SRC / "affinedim").resolve():
        print(f"error: imported affinedim from {affinedim.__file__}", file=sys.stderr)
        return 2
    workload.load(load_config(workload.input_path))
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    seed_tag = "default" if args.seed is None else str(args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer, layer_metrics, report_breakdown

        tracer = Tracer(f"{args.workload}-seed-{seed_tag}-{os.getpid()}-{time.time_ns()}")

    failed: dict[int, str] = {}
    walls, cpus, untraced, traced, traced_walls, taken = [], [], [], [], [], []
    first_digest = first_counts = None

    def report(tracing: bool) -> None:
        nonlocal first_digest, first_counts
        index = len(walls) + len(traced)
        wall, cpu, digest, error = run_report(workload, cli.main, measure.check_separation,
                                              tracer if tracing else None, index)
        if digest is not None:
            first_digest = first_digest or digest
            if error is None and digest != first_digest:
                error = "report bytes differ from the first report with the same seed"
        if tracing:
            breakdown = report_breakdown([s for s in tracer.spans if s["report"] == index])
            first_counts = first_counts or breakdown["counts"]
            error = error or breakdown["error"]
            if error is None and breakdown["counts"] != first_counts:
                error = (f"counts {breakdown['counts']} differ from {first_counts} "
                         "with the same seed")
            traced.append(breakdown)
            traced_walls.append((wall, index))
        else:
            walls.append(wall)
            cpus.append(cpu)
            untraced.append(index)
        print(f"report {index} {'traced' if tracing else 'untraced'} wall_s={wall:.4f} "
              f"cpu_s={cpu:.4f} sha256={digest and digest[:12]} {'FAILED' if error else 'ok'}")
        if error:
            failed[index] = error
            print(f"report {index} failed: {error}", file=sys.stderr)
        refs.append(reference_time())
        taken[-1] += wall + refs[-1][0]

    start = time.perf_counter()
    while True:
        # a traced run alternates untraced and traced reports, for the overhead
        taken.append(0.0)
        report(False)
        if tracer is not None:
            report(True)
        # stop once another round of median length would overrun --seconds
        if (len(taken) >= MIN_REPORTS
                and time.perf_counter() - start + statistics.median(taken) > args.seconds):
            break
    attempted = len(walls) + len(traced)

    def host_scale(i: int, k: int) -> float:
        # report i ran between reference timings refs[i] and refs[i + 1]
        return REFERENCE_S / ((refs[i][k] + refs[i + 1][k]) / 2)

    if tracer is None:
        metrics = {
            "report_s": (statistics.median(
                w * host_scale(i, 0) for w, i in zip(walls, untraced)), "s"),
            "report_cpu_s": (statistics.median(
                c * host_scale(i, 1) for c, i in zip(cpus, untraced)), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"samples reports={len(walls)} setup_probes={len(setup_times)} "
              f"failed_frac={len(failed) / attempted:.4f}")
        print(f"raw report_s={statistics.median(walls):.4f} "
              f"report_cpu_s={statistics.median(cpus):.4f} "
              f"setup_s={statistics.median(setup_raw):.4f} reference_s="
              + " ".join(f"{r[0]:.4f}" for r in refs))
    else:
        metrics = layer_metrics(traced)
        # each traced report follows its untraced partner
        metrics["trace.overhead_s"] = (statistics.median(
            tw * host_scale(ti, 0) - walls[k] * host_scale(untraced[k], 0)
            for k, (tw, ti) in enumerate(traced_walls)), "s")
        out = OUT / f"trace-{args.workload}-seed-{seed_tag}.json"
        tracer.dump(out, {"env": env, "workload": args.workload, "seed": args.seed,
                          "untraced_report_s": walls, "counts": first_counts})
        print(f"samples pairs={len(traced)} spans={len(tracer.spans)} "
              f"failed_frac={len(failed) / attempted:.4f} written={out.relative_to(ROOT)}")
        print("counts " + json.dumps(first_counts, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
