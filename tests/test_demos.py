"""Every script in demos/ runs to completion and prints its pinned stdout."""

import functools
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo -> sha256 prefix of its stdout, so a library change that moves a demo
# line fails here; CHANGES.md explains every digest that moves
PINNED_STDOUT = {
    "01_singular_geometry.py": "e176ee8b8311",
    "02_lyapunov_spectrum.py": "77f4ac3dcec7",
    "03_domination_and_bundles.py": "aa6cc6ae523a",
    "04_stationary_flags.py": "a277584de760",
    "05_measures_and_dimension.py": "75a185b43b06",
}


@functools.cache
def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """Run ``demo`` once, in an empty working directory, on this checkout's sources."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    with tempfile.TemporaryDirectory() as cwd:
        return subprocess.run(
            [sys.executable, str(demo)], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=300,
        )


def test_demos_exist():
    assert DEMOS
    assert sorted(PINNED_STDOUT) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_stdout_pinned(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr[-2000:]
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()[:12]
    assert digest == PINNED_STDOUT[demo.name], done.stdout
