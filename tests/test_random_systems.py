"""Property tests over random small systems, run through the ``dim`` command.

Every legal system must end in a strict-JSON report or in the documented
sample-depth refusal, never in a traceback.  The systems are drawn once from
a fixed seed; the depth refusal is an allowed outcome, not one to draw around.
"""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest

from affinedim.cli import main
from affinedim.config import parse_config

# draws 17 systems (d and N in 1..3); system 2 (d = 3, N = 2) splits its
# spectrum at an index the scan does not certify, and routes not-applicable
SWEEP_SEED = 7
# budgets cut so that the whole sweep runs in about a second
BUDGETS = {"spectrum_steps": 400, "spectrum_trials": 4, "flag_iterations": 32, "flag_count": 3,
           "sample_count": 4000, "centers": 16, "separation_level": 4, "scan_n_max": 6}
STDERRS_ALLOWED = 4.0

DEPTH_REFUSAL = re.compile(r"error: dim\.sample_depth \d+ keeps \d+ radii above the sample's "
                           r"truncation floor, need at least 20; raise dim\.sample_depth\n")
ROUTES = {"simple-spectrum", "dominated-splitting", "not-applicable"}
SEPARATION = {"ssc-verified", "overlap-detected", "inconclusive"}
DOMINATION = {"dominated", "non-dominated", "inconclusive"}
EQUIVALENCE = {"holds", "fails", "inconclusive"}
PROVENANCE = {"estimated", "closed-form", "lower-bound", "user-supplied", "unresolved"}


def _haar(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _system(mats, translations, weights):
    return {"matrices": [np.asarray(m).tolist() for m in mats],
            "translations": np.asarray(translations).tolist(),
            "weights": np.asarray(weights).tolist()}


def _systems():
    """(id, ifs section) of the drawn systems, then a single map, a zero weight and a repeat."""
    rng = np.random.default_rng(SWEEP_SEED)
    drawn = []
    for k in range(17):
        d, n = (int(x) for x in rng.integers(1, 4, size=2))
        mats = [_haar(rng, d) @ np.diag(rng.uniform(0.05, 0.6, d)) @ _haar(rng, d).T
                for _ in range(n)]
        ifs = _system(mats, rng.uniform(0.0, 1.0, (n, d)), rng.dirichlet(np.ones(n)))
        drawn.append((f"{k}-d{d}-n{n}", ifs))
    a = _haar(rng, 3) @ np.diag(rng.uniform(0.05, 0.6, 3)) @ _haar(rng, 3).T
    drawn.append(("single-map", _system([a], [[0.1, 0.2, 0.3]], [1.0])))
    mats = [_haar(rng, 2) @ np.diag(rng.uniform(0.05, 0.6, 2)) @ _haar(rng, 2).T
            for _ in range(3)]
    drawn.append(("zero-weight", _system(mats, rng.uniform(0.0, 1.0, (3, 2)), [0.6, 0.4, 0.0])))
    drawn.append(("repeated-map", _system([a, a], [[0.1, 0.2, 0.3]] * 2, [0.5, 0.5])))
    return drawn


SYSTEMS = _systems()


def _dim(path):
    """(exit code, stdout, stderr) of one ``dim --deterministic`` run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["dim", "--config", str(path), "--deterministic"])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per system: its ifs section and two runs of the same config."""
    cache = {}

    def get(name):
        if name not in cache:
            ifs = dict(SYSTEMS)[name]
            path = tmp_path_factory.mktemp("sweep") / "config.json"
            path.write_text(json.dumps({"ifs": ifs, "seed": 5, "dim": BUDGETS}))
            cache[name] = ifs, _dim(path), _dim(path)
        return cache[name]

    return get


def _refuse(token):
    raise ValueError(f"not strict JSON: {token}")


def _provenances(node):
    if isinstance(node, dict):
        found = [node["provenance"]] if "provenance" in node else []
        return found + [p for value in node.values() for p in _provenances(value)]
    if isinstance(node, list):
        return [p for item in node for p in _provenances(item)]
    return []


@pytest.mark.parametrize("name", [name for name, _ in SYSTEMS])
def test_dim_gives_a_report_or_the_depth_refusal(name, runs):
    ifs, (code, out, err), again = runs(name)
    assert (code, out, err) == again
    assert "Traceback" not in err
    if code != 0:
        assert (code, out) == (2, "")
        assert DEPTH_REFUSAL.fullmatch(err), err
        return
    report = json.loads(out, parse_constant=_refuse)
    resolved = report["resolved_config"]
    assert parse_config(resolved).doc == resolved
    results = report["results"]
    assert results["route"] in ROUTES
    assert results["separation"]["status"] in SEPARATION
    statuses = {item["status"] for item in results.get("domination", {}).get("indices", [])}
    assert statuses <= DOMINATION
    assert results["equivalence"] is None or results["equivalence"]["status"] in EQUIVALENCE
    assert set(_provenances(results)) <= PROVENANCE
    # the formula's indices are the boundaries of the spectrum's blocks, and
    # the dominated route is taken only where the scan certifies every one
    boundaries = np.cumsum(results["spectrum"]["multiplicities"])[:-1].tolist()
    assert {int(i) for i in results["projection_dims"]} <= set(boundaries)
    if results["route"] == "dominated-splitting":
        assert set(boundaries) <= set(results["domination"]["dominated_indices"])
    # the exponents sum to the mean of log|det| over the drawn symbols
    p = np.array(ifs["weights"])
    log_det = np.log(np.abs(np.linalg.det(np.array(ifs["matrices"]))))
    expected = -float(p @ log_det)
    variance = float(p @ (log_det + expected) ** 2)
    symbols = BUDGETS["spectrum_steps"] * BUDGETS["spectrum_trials"]
    tol = STDERRS_ALLOWED * math.sqrt(variance / symbols) + 1e-12  # rounding of a constant sum
    assert abs(sum(results["spectrum"]["exponents"]["value"]) - expected) <= tol


def test_dominated_splitting_names_an_index_unless_every_exponent_merged(runs):
    for name, _ in SYSTEMS:
        _, (code, out, _), _ = runs(name)
        if code != 0:
            continue
        results = json.loads(out)["results"]
        if results["route"] == "dominated-splitting":
            multiplicities = results["spectrum"]["multiplicities"]
            assert results["domination"]["dominated_indices"] or len(multiplicities) == 1, name


def test_a_merged_spectrum_routes_by_its_block_boundaries(runs):
    results = {name: json.loads(runs(name)[1][1])["results"] for name in ("2-d3-n2", "single-map")}
    # system 2 has blocks [2, 1], and the scan calls the boundary non-dominated
    split = results["2-d3-n2"]
    assert split["spectrum"]["multiplicities"] == [2, 1]
    assert split["route"] == "not-applicable"
    assert split["ly_dim"] is None and split["projection_dims"] == {}
    assert any("block boundary: index 2 (non-dominated, gap " in c for c in split["caveats"])
    # the single map's scan also calls index 1 dominated, inside its merged block
    single = results["single-map"]
    assert single["domination"]["dominated_indices"] == [1, 2]
    assert (single["route"], list(single["projection_dims"])) == ("dominated-splitting", ["2"])
    assert any("merged exponents at index 1 (decay rate " in c for c in single["caveats"])
