"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload dim-stp3 --seeds 1 2 3 4 5

Runs ``run.py`` once per seed, one run at a time, and prints each metric's
median, quartiles and quartile distance as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect result\n{proc.stdout}{proc.stderr}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4f}"
                                          for k, m in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        print(f"{name}: median={med:.4f} q1={q1:.4f} q3={q3:.4f} spread={share:.4f} "
              f"bound={bounds.get(name)} within_third={share < bounds.get(name, 0) / 3}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
