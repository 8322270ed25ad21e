"""Tests for the command-line front end: exit codes, reports, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import PASCAL3, brute_force_minors

import affinedim
from affinedim import cli
from affinedim.cli import main
from affinedim.config import SECTIONS, parse_config
from affinedim.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def cantor_doc(**overrides):
    doc = {
        "schema_version": 1,
        "ifs": {
            "matrices": [[[1 / 3]], [[1 / 3]]],
            "translations": [[0.0], [2 / 3]],
            "weights": [0.5, 0.5],
        },
        "seed": 3,
        "lyapunov": {"steps": 500, "trials": 4},
        "dim": {"sample_count": 5000, "centers": 32, "spectrum_steps": 800,
                "spectrum_trials": 4, "flag_iterations": 64, "flag_count": 4},
    }
    doc.update(overrides)
    return doc


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# config handling


def test_missing_config_file_exit_2(capsys):
    code, _, err = run(["lyapunov", "--config", "/nonexistent/nowhere.json"], capsys)
    assert code == 2
    assert "/nonexistent/nowhere.json" in err


@pytest.mark.parametrize("argv", [
    ["lyapunov", "--out", "/nonexistent/x.json"],
    ["lyapunov", "--csv", "/nonexistent/x.csv"],
    ["dim", "--emit-histogram", "/nonexistent/h.csv"],
    ["lyapunov", "--config", str(CONFIG_DIR)],
], ids=["out", "csv", "histogram", "config-directory"])
def test_failed_file_io_exits_2_with_one_line_error(argv, tmp_path, capsys):
    config = ["--config", write_config(tmp_path, cantor_doc())]
    code, _, err = run(argv + ([] if "--config" in argv else config), capsys)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def _refuse_work(*args, **kwargs):
    raise AssertionError("the stage ran before the output path was checked")


@pytest.mark.parametrize("argv, stage", [
    (["dim", "--out", "/nonexistent/x.json"], "full_pipeline"),
    (["dim", "--out", "."], "full_pipeline"),
    (["lyapunov", "--csv", "/nonexistent/x.csv"], "lyapunov_spectrum"),
    (["dim", "--emit-histogram", "/nonexistent/h.csv"], "full_pipeline"),
], ids=["out", "out-directory", "csv", "histogram"])
def test_unwritable_output_refused_before_work(argv, stage, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, stage, _refuse_work)
    code, out, err = run(argv + ["--config", write_config(tmp_path, cantor_doc())], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno ") and err.count("\n") == 1
    assert f"'{argv[-1]}'" in err


def test_config_schema_key_set_pinned():
    # a new knob is a reviewed change to this list
    assert {name: list(keys) for name, keys in SECTIONS.items()} == {
        "lyapunov": ["steps", "trials"],
        "domination": ["n_max", "budget"],
        "dim": ["spectrum_steps", "spectrum_trials", "scan_n_max", "scan_budget",
                "flag_iterations", "flag_count", "sample_count", "sample_depth", "centers",
                "radii_count", "separation_level", "separation_budget", "H"],
        "validate": ["cases", "sample_count", "value_tol", "empirical_tol"],
    }


@pytest.mark.parametrize("section, key", [
    ("lyapunov", "gap_threshold"), ("domination", "eps_slope"), ("dim", "gap_threshold"),
    ("dim", "eps_slope"), ("dim", "radii_ratio"), ("dim", "ky_tol"), ("validate", "formula_tol"),
])
def test_retired_tolerance_key_is_an_unknown_key(section, key, tmp_path, capsys):
    doc = cantor_doc()
    doc.setdefault(section, {})[key] = 0.01
    code, out, err = run(["lyapunov", "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {section}: unknown key '{key}'\n"


def test_unknown_key_rejected_with_location(tmp_path, capsys):
    doc = cantor_doc()
    doc["dim"]["sample_cout"] = 10  # typo
    code, _, err = run(["dim", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert "dim" in err and "sample_cout" in err


def test_bad_matrix_shape_reports_location(tmp_path, capsys):
    doc = cantor_doc()
    doc["ifs"]["matrices"] = [[[1 / 3]], [[1 / 3, 0.0]]]
    code, _, err = run(["lyapunov", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert "ifs.matrices[1]" in err


def planar_doc():
    """Two non-symmetric planar maps, so a column-major reading would differ."""
    return cantor_doc(ifs={"matrices": [[[0.4, 0.1], [0.05, 0.2]], [[0.3, 0.12], [0.1, 0.25]]],
                           "translations": [[0.0, 0.0], [0.6, 0.1]], "weights": [0.5, 0.5]})


def test_flat_matrices_read_row_major_as_their_nested_rows(tmp_path, capsys):
    nested = planar_doc()
    flat = planar_doc()
    flat["ifs"]["matrices"] = [[x for row in m for x in row] for m in nested["ifs"]["matrices"]]
    assert flat["ifs"]["matrices"][0] == [0.4, 0.1, 0.05, 0.2]
    assert parse_config(flat).doc == parse_config(nested).doc
    outs = [run(["lyapunov", "--config", write_config(tmp_path, doc, name), "--deterministic"],
                capsys) for doc, name in ((nested, "nested.json"), (flat, "flat.json"))]
    assert outs[0][0] == 0 and outs[0] == outs[1]


@pytest.mark.parametrize("matrix, message", [
    ([0.5, 0.1, 0.0], "ifs.matrices[1]: flat matrix of length 3 is not square"),
    ([0.1] * 9, "ifs.matrices[1]: matrix is 3x3, expected 2x2"),
], ids=["not-square", "wrong-size"])
def test_bad_flat_matrix_reports_location(tmp_path, capsys, matrix, message):
    doc = planar_doc()
    doc["ifs"]["matrices"][1] = matrix
    code, out, err = run(["lyapunov", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("matrix, message", [
    ([[1.2]], "ifs.matrices[1]: matrix is not contractive: operator norm 1.2 >= 1"),
    ([[0.0]],
     "ifs.matrices[1]: matrix is numerically singular: smallest singular value 0 <= 1e-12"),
], ids=["not-contractive", "singular"])
def test_bad_map_reports_location(tmp_path, capsys, matrix, message):
    doc = cantor_doc()
    doc["ifs"]["matrices"] = [[[1 / 3]], matrix]
    code, out, err = run(["lyapunov", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_config_roundtrip_normalization(tmp_path):
    doc = cantor_doc()
    cfg = parse_config(doc)
    again = parse_config(cfg.doc)
    assert again.doc == cfg.doc


@pytest.mark.parametrize("section, key, value", [
    ("dim", "H", float("nan")),
    ("lyapunov", "steps", float("inf")),
    ("validate", "value_tol", float("inf")),
])
def test_non_finite_config_number_rejected_with_location(section, key, value, tmp_path, capsys):
    # Python's json reads NaN and Infinity, which no strict-JSON report can echo
    doc = cantor_doc()
    doc.setdefault(section, {})[key] = value
    code, _, err = run(["lyapunov", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert err.startswith(f"error: {section}.{key}: expected a finite number")


@pytest.mark.parametrize("value", ["0.1", True, float("nan"), float("inf")])
def test_non_number_matrix_entry_rejected_with_location(value, tmp_path, capsys):
    # a string or a bool is no number, and NaN or Infinity no finite one
    doc = cantor_doc()
    doc["ifs"]["matrices"][0] = [[value]]
    code, _, err = run(["lyapunov", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert err.startswith("error: ifs.matrices[0]:")


def test_integer_valued_float_runs_and_echoes_as_integer(tmp_path, capsys):
    doc = cantor_doc(lyapunov={"steps": 500.0, "trials": 4})
    code, out, err = run(["lyapunov", "--config", write_config(tmp_path, doc),
                          "--deterministic"], capsys)
    assert code == 0, err
    echoed = json.loads(out)["resolved_config"]["lyapunov"]["steps"]
    assert echoed == 500 and isinstance(echoed, int)


def test_shipped_configs_parse():
    for name in ("bm.json", "cantor.json", "stp3.json", "overlap.json"):
        cfg = parse_config(json.loads((CONFIG_DIR / name).read_text()))
        assert cfg.ifs.n_maps >= 2


# ---------------------------------------------------------------------------
# lyapunov command


def test_lyapunov_bm_exponents(tmp_path, capsys):
    code, out, _ = run(
        ["lyapunov", "--config", str(CONFIG_DIR / "bm.json"), "--deterministic",
         "--steps", "2000", "--trials", "4"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    chi = doc["results"]["exponents"]["value"]
    assert chi == pytest.approx([np.log(2), np.log(3)], abs=0.01)
    assert doc["results"]["exponents"]["provenance"] == "estimated"


def test_lyapunov_single_trial_warns_null_stderr(tmp_path, capsys):
    cfg = write_config(tmp_path, cantor_doc())
    code, out, _ = run(
        ["lyapunov", "--config", cfg, "--deterministic", "--trials", "1"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["stderr"] is None
    assert any("single trial" in w for w in doc["warnings"])


def test_lyapunov_csv_side_file(tmp_path, capsys):
    cfg = write_config(tmp_path, cantor_doc())
    csv_path = tmp_path / "trials.csv"
    code, _, _ = run(
        ["lyapunov", "--config", cfg, "--deterministic", "--csv", str(csv_path),
         "--out", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "trial,chi_1,partial_sum_1"
    assert len(lines) == 5  # header + 4 trials


# ---------------------------------------------------------------------------
# domination command


def test_domination_stp_config(capsys):
    code, out, _ = run(
        ["domination", "--config", str(CONFIG_DIR / "stp3.json"), "--deterministic"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["dominated_indices"] == [1, 2]
    assert all(entry["is_stp"] for entry in doc["results"]["stp"])


def test_domination_conformal_empty(tmp_path, capsys):
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    doc = cantor_doc()
    doc["ifs"] = {
        "matrices": [
            [[0.5 * c, -0.5 * s], [0.5 * s, 0.5 * c]],
            [[0.4 * c, 0.4 * s], [-0.4 * s, 0.4 * c]],
        ],
        "translations": [[0.0, 0.0], [0.5, 0.0]],
        "weights": [0.5, 0.5],
    }
    code, out, _ = run(["domination", "--config", write_config(tmp_path, doc),
                        "--deterministic"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["dominated_indices"] == []
    statuses = {e["index"]: e["status"] for e in results["indices"]}
    assert statuses[1] == "non-dominated"


def test_domination_mixed_config_reads_the_brute_force_minors(tmp_path, capsys):
    # an STP map, and a map of positive entries whose 2x2 minors and
    # determinant are negative
    maps = np.array([0.1 * PASCAL3, [[0.1, 0.3, 0.1], [0.3, 0.1, 0.1], [0.1, 0.1, 0.3]]])
    doc = cantor_doc(ifs={"matrices": maps.tolist(), "translations": [[0.0] * 3] * 2,
                          "weights": [0.5, 0.5]})
    code, out, _ = run(["domination", "--config", write_config(tmp_path, doc),
                        "--deterministic"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    oracle = brute_force_minors(maps)
    positive = oracle > 1e-12
    assert [row["map"] for row in results["stp"]] == [0, 1]
    for row, minors, pos in zip(results["stp"], oracle, positive):
        assert row["is_stp"] == bool(pos[:-1].all())
        assert row["det_positive"] == bool(pos[-1])
        assert row["min_minor"]["value"] == pytest.approx(minors[:-1].min(), rel=1e-9)
    assert results["cone_invariance"] == {str(p): bool(positive[:, p - 1].all())
                                          for p in (1, 2)}
    # each verdict takes both values, so none of the checks above is vacuous
    assert [row["is_stp"] for row in results["stp"]] == [True, False]
    assert [row["det_positive"] for row in results["stp"]] == [True, False]
    assert results["cone_invariance"] == {"1": True, "2": False}


def test_domination_over_budget_exits_2_without_report(tmp_path, capsys):
    doc = cantor_doc()
    doc["domination"] = {"n_max": 30, "budget": 1000}
    out_path = tmp_path / "report.json"
    code, out, err = run(["domination", "--config", write_config(tmp_path, doc),
                          "--deterministic", "--out", str(out_path)], capsys)
    assert code == 2
    assert out == "" and not out_path.exists()
    assert err.startswith("error: domination: 2^30 words exceed the 1000 product budget")
    assert "domination.n_max" in err and "domination.budget" in err


def test_domination_monte_carlo_samples_key_rejected(tmp_path, capsys):
    doc = cantor_doc()
    doc["domination"] = {"monte_carlo_samples": 64}
    code, out, err = run(["domination", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2 and out == ""
    assert "domination: unknown key 'monte_carlo_samples'" in err


# ---------------------------------------------------------------------------
# dim command


def test_dim_cantor_report(tmp_path, capsys):
    cfg = write_config(tmp_path, cantor_doc())
    code, out, _ = run(["dim", "--config", cfg, "--deterministic"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["ly_dim"]["value"] == pytest.approx(np.log(2) / np.log(3), abs=0.01)
    assert results["separation"]["status"] == "ssc-verified"
    assert results["fiber_entropy"]["provenance"] == "closed-form"


def test_dim_domination_block_equals_domination_command(tmp_path, capsys):
    # the conformal dust repeats its exponent, so the dim pipeline runs the
    # domination scan too; both reports write the same tagged block
    doc = cantor_doc()
    doc["ifs"] = {
        "matrices": [[[1 / 3, 0.0], [0.0, 1 / 3]]] * 4,
        "translations": [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3], [2 / 3, 2 / 3]],
        "weights": [0.25] * 4,
    }
    doc["dim"].update(sample_count=2000, scan_n_max=6, separation_level=4)
    doc["domination"] = {"n_max": 6}
    cfg = write_config(tmp_path, doc)
    code, out, err = run(["dim", "--config", cfg, "--deterministic"], capsys)
    assert code == 0, err
    dim_block = json.loads(out)["results"]["domination"]
    code, out, err = run(["domination", "--config", cfg, "--deterministic"], capsys)
    assert code == 0, err
    results = json.loads(out)["results"]
    assert dim_block == {key: results[key] for key in ("indices", "dominated_indices")}
    assert dim_block["indices"][0]["decay_rate"]["provenance"] == "estimated"


def test_dim_overlap_conditional_exit_0(capsys):
    code, out, _ = run(
        ["dim", "--config", str(CONFIG_DIR / "overlap.json"), "--deterministic"], capsys
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["separation"]["status"] == "overlap-detected"
    assert results["ly_dim"] is None
    assert results["ly_dim_conditional"] is not None


def test_dim_assume_ssc_refused_on_overlap(capsys):
    code, _, err = run(
        ["dim", "--config", str(CONFIG_DIR / "overlap.json"), "--assume-ssc"], capsys
    )
    assert code == 2
    assert "refused" in err


def test_dim_assume_ssc_allowed_when_verified(tmp_path, capsys):
    cfg = write_config(tmp_path, cantor_doc())
    code, out, _ = run(["dim", "--config", cfg, "--deterministic", "--assume-ssc"], capsys)
    assert code == 0


def test_dim_assume_ssc_uses_resolved_separation_level(tmp_path, capsys):
    # six maps: the refinement closes at level 1, where every pair of maps
    # is apart, far below the pipeline's level 8, and --assume-ssc must agree
    doc = cantor_doc()
    doc["ifs"] = {
        "matrices": [[[0.1]]] * 6,
        "translations": [[k / 6] for k in range(6)],
        "weights": [1 / 6] * 6,
    }
    cfg = write_config(tmp_path, doc)
    code, out, err = run(["dim", "--config", cfg, "--deterministic", "--assume-ssc"], capsys)
    assert code == 0, err
    separation = json.loads(out)["results"]["separation"]
    assert separation["status"] == "ssc-verified"
    assert (separation["level"], separation["pairs_formed"], separation["near_pairs"]) == (1, 15, 0)
    assert separation["witness_gap"]["provenance"] == "lower-bound"


def test_dim_assume_ssc_refusal_writes_nothing(tmp_path, capsys):
    doc = cantor_doc()
    doc["ifs"]["translations"] = [[0.1], [0.1]]  # two identical maps overlap
    out_path, hist = tmp_path / "r.json", tmp_path / "hist.csv"
    code, _, err = run(
        ["dim", "--config", write_config(tmp_path, doc), "--assume-ssc",
         "--out", str(out_path), "--emit-histogram", str(hist)],
        capsys,
    )
    assert code == 2
    assert "refused" in err and "overlap-detected" in err
    assert not out_path.exists() and not hist.exists()


def test_dim_H_flag_overrides(capsys, tmp_path):
    code, out, _ = run(
        ["dim", "--config", str(CONFIG_DIR / "overlap.json"), "--deterministic",
         "--H", str(np.log(2))],
        capsys,
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["fiber_entropy"]["provenance"] == "user-supplied"
    assert results["ly_dim"]["value"] == pytest.approx(0.0, abs=0.02)


def test_dim_H_outside_entropy_refused_before_work(tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, _, err = run(["dim", "--config", str(CONFIG_DIR / "cantor.json"), "--H", "5",
                        "--out", str(out_path)], capsys)
    assert code == 2
    assert err.startswith("error: dim.H: supplied fiber entropy 5.0 outside [0, ")
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["dim", "lyapunov"])
def test_config_H_above_entropy_is_located(command, tmp_path, capsys):
    # the parse refuses it, so every command that reads the document does
    doc = cantor_doc()
    doc["dim"]["H"] = 0.7  # log 2 = 0.693 for the two equal weights
    code, out, err = run([command, "--config", write_config(tmp_path, doc)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: dim.H: supplied fiber entropy 0.7 outside [0, 0.69314718")


@pytest.mark.parametrize("depth, kept", [(3, 0), (8, 19)])
def test_dim_shallow_sample_depth_refused_by_name(depth, kept, tmp_path, capsys):
    # truncation at this depth leaves the cloud fewer radii than a fit needs
    doc = json.loads((CONFIG_DIR / "cantor.json").read_text())
    doc["dim"]["sample_depth"] = depth
    out_path = tmp_path / "r.json"
    code, out, err = run(["dim", "--config", write_config(tmp_path, doc), "--deterministic",
                          "--out", str(out_path)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: dim.sample_depth {depth} keeps {kept} radii above the sample's "
                   "truncation floor, need at least 20; raise dim.sample_depth\n")
    assert not out_path.exists()


def test_dim_histogram_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, cantor_doc())
    hist = tmp_path / "hist.csv"
    code, _, _ = run(
        ["dim", "--config", cfg, "--deterministic", "--emit-histogram", str(hist),
         "--out", str(tmp_path / "r.json")],
        capsys,
    )
    assert code == 0
    lines = hist.read_text().splitlines()
    assert lines[0] == "center_index,slope"
    assert len(lines) > 10


# ---------------------------------------------------------------------------
# validate command


def test_validate_all_pass_exit_0(tmp_path, capsys):
    doc = cantor_doc()
    doc["validate"] = {"sample_count": 20000}
    code, _, err = run(["validate", "--config", write_config(tmp_path, doc),
                        "--deterministic", "--out", str(tmp_path / "v.json")], capsys)
    assert code == 0
    assert "PASS" in err
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["results"]["all_pass"] is True
    bm_rows = [r for r in report["results"]["rows"] if r["case"] == "bm-carpet-pipeline"]
    assert bm_rows and all("difference" in r and "tolerance" in r for r in bm_rows)


def test_validate_empty_suite_is_config_error(tmp_path, capsys):
    doc = cantor_doc()
    doc["validate"] = {"cases": []}
    code, _, err = run(["validate", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert "cases" in err


def test_validate_unknown_case_rejected(tmp_path, capsys):
    doc = cantor_doc()
    doc["validate"] = {"cases": ["cantor-pipeline", "unknown-system"]}
    code, _, err = run(["validate", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2
    # the case names are checked when the config is parsed, so every command
    # refuses them, with their location
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert info.value.location == "validate.cases"
    assert "unknown-system" in str(info.value)
    code, _, err = run(["lyapunov", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert err.startswith("error: validate.cases: ")


def test_validate_failure_exit_1(tmp_path, capsys):
    doc = cantor_doc()
    doc["validate"] = {"cases": ["cantor-pipeline"], "sample_count": 5000,
                       "value_tol": 1e-12, "empirical_tol": 1e-12}
    code, _, err = run(["validate", "--config", write_config(tmp_path, doc),
                        "--deterministic"], capsys)
    assert code == 1
    assert "FAIL" in err


# ---------------------------------------------------------------------------
# determinism and seed override


def test_reports_byte_identical_under_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, cantor_doc())
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, _, _ = run(["dim", "--config", cfg, "--deterministic", "--out", str(path)],
                         capsys)
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", ["lyapunov", "domination", "dim", "validate"])
def test_stdout_is_one_strict_json_report(command, tmp_path, capsys):
    doc = cantor_doc(domination={"n_max": 6},
                     validate={"cases": ["cantor-pipeline"], "sample_count": 2000})
    doc["dim"].update(sample_count=2000, scan_n_max=6, separation_level=4)
    code, out, _ = run([command, "--config", write_config(tmp_path, doc), "--deterministic"],
                       capsys)
    assert code == 0

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    # json.loads takes exactly one document, so any text around it fails
    assert json.loads(out, parse_constant=refuse)["command"] == command


# (command, config) -> sha256 prefix of its --deterministic report; kept out of
# the test ids, so that a re-pinned digest does not rename a test
PINNED_DIGESTS = {
    ("dim", "bm.json"): "3a211670f6ed",
    ("dim", "stp3.json"): "6c450e7c2794",
    ("dim", "cantor.json"): "cc4feb0612f9",
    ("dim", "overlap.json"): "6491984cf728",
    ("validate", "cantor.json"): "be5bb0ae9c94",
    ("lyapunov", "stp3.json"): "1833efb915ec",
    ("lyapunov", "bm.json"): "b4e25a9d322b",
    ("domination", "stp3.json"): "d35502b42bce",
    ("domination", "bm.json"): "2b4291a90b68",
    ("domination", "cantor.json"): "0bb3ea0ad25a",
}


@pytest.mark.parametrize("command, name", PINNED_DIGESTS)
def test_shipped_config_report_bytes_pinned(command, name, tmp_path, capsys):
    # the byte contract: any change to these reports must be explained
    path = tmp_path / "report.json"
    code, _, _ = run([command, "--config", str(CONFIG_DIR / name), "--deterministic",
                      "--out", str(path)], capsys)
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:12] == PINNED_DIGESTS[command, name]


# certify-stp3's own reports, which run the gap scan to depth 14 and the
# spectrum over 100,000 steps; a moved digest is explained in CHANGES.md
CERTIFY_STP3_DIGESTS = {
    ("domination",): "04fbebc8a27f",
    ("lyapunov", "--steps", "100000"): "73468f6315fe",
}


@pytest.mark.parametrize("args", CERTIFY_STP3_DIGESTS, ids=["domination", "lyapunov"])
def test_certify_stp3_report_bytes_pinned(args, tmp_path, capsys):
    doc = json.loads((CONFIG_DIR / "stp3.json").read_text())
    doc["domination"] = {"n_max": 14}
    path = tmp_path / "report.json"
    code, _, _ = run([*args, "--config", write_config(tmp_path, doc), "--deterministic",
                      "--out", str(path)], capsys)
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:12] == CERTIFY_STP3_DIGESTS[args]


def _numbers(node):
    """Every float in a parsed JSON document."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for item in node for x in _numbers(item)]
    return [node] if isinstance(node, float) else []


@pytest.mark.parametrize("command", ["lyapunov", "dim"])
@pytest.mark.parametrize("ifs", [
    {"matrices": [[[0.5, 0.1], [0.0, 0.3]]], "translations": [[0.1, 0.2]], "weights": [1.0]},
    {"matrices": [[[1 / 3]], [[1 / 3]]], "translations": [[0.0], [2 / 3]], "weights": [1.0, 0.0]},
], ids=["one-map", "cantor-point-mass"])
def test_point_mass_reports_have_no_negative_zero(command, ifs, tmp_path, capsys):
    code, out, _ = run([command, "--config", write_config(tmp_path, cantor_doc(ifs=ifs)),
                        "--deterministic"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"]["entropy"]["value"] == 0.0
    assert not [x for x in _numbers(report) if x == 0.0 and math.copysign(1.0, x) < 0]


def _fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this package's sources."""
    src = str(Path(affinedim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_cli_import_loads_no_scipy():
    out = _fresh_python("import sys, affinedim.cli\n"
                        "print([m for m in sys.modules if m.startswith('scipy')])")
    assert out.strip() == "[]"


def test_dim_report_bytes_without_scipy(tmp_path):
    # an import of scipy, or of any scipy submodule, raises in this interpreter
    path = tmp_path / "report.json"
    _fresh_python("import sys\nsys.modules['scipy'] = None\n"
                  "from affinedim.cli import main\nsys.exit(main(sys.argv[1:]))",
                  "dim", "--config", str(CONFIG_DIR / "cantor.json"), "--deterministic",
                  "--out", str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest()[:12] == "cc4feb0612f9"


def test_timestamp_present_without_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, cantor_doc())
    code, out, _ = run(["lyapunov", "--config", cfg], capsys)
    assert code == 0
    assert "generated_at" in json.loads(out)


def test_seed_override_changes_resolved_config(tmp_path, capsys):
    cfg = write_config(tmp_path, cantor_doc())
    code, out, _ = run(["lyapunov", "--config", cfg, "--deterministic", "--seed", "99"],
                       capsys)
    assert code == 0
    assert json.loads(out)["resolved_config"]["seed"] == 99


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def test_dim_single_map_report_is_strict_json(tmp_path, capsys):
    # one map: every cylinder shares its first symbol, so no witness gap exists
    doc = cantor_doc()
    doc["ifs"] = {"matrices": [[[0.5]]], "translations": [[0.25]], "weights": [1.0]}
    cfg = write_config(tmp_path, doc)
    code, out, _ = run(["dim", "--config", cfg, "--deterministic"], capsys)
    assert code == 0
    report = json.loads(out, parse_constant=_reject_constant)
    separation = report["results"]["separation"]
    assert separation["status"] == "ssc-verified"
    assert separation["witness_gap"]["value"] is None


@pytest.mark.parametrize("argv, section, expected", [
    (["lyapunov", "--steps", "300", "--trials", "3"], "lyapunov", {"steps": 300, "trials": 3}),
    (["dim", "--H", "0.1"], "dim", {"H": 0.1}),
])
def test_flags_are_echoed_and_the_echo_reruns_them(argv, section, expected, tmp_path, capsys):
    # a flag is an edit of the config: the resolved config echoes it, re-parses
    # to itself, and run with no flags gives the same results
    cfg = write_config(tmp_path, cantor_doc())
    code, out, err = run([*argv, "--config", cfg, "--deterministic"], capsys)
    assert code == 0, err
    report = json.loads(out)
    resolved = report["resolved_config"]
    assert {key: resolved[section][key] for key in expected} == expected
    assert parse_config(resolved).doc == resolved
    echo = write_config(tmp_path, resolved, name="echo.json")
    code, again, err = run([argv[0], "--config", echo, "--deterministic"], capsys)
    assert code == 0, err
    assert json.dumps(json.loads(again)["results"]) == json.dumps(report["results"])


@pytest.mark.parametrize("argv, location", [
    (["lyapunov", "--steps", "5"], "lyapunov.steps"),
    (["lyapunov", "--trials", "0"], "lyapunov.trials"),
    (["dim", "--H", "-1"], "dim.H"),
])
def test_out_of_bounds_flag_gets_located_error(argv, location, tmp_path, capsys):
    out_path = tmp_path / "r.json"
    code, _, err = run([*argv, "--config", write_config(tmp_path, cantor_doc()),
                        "--out", str(out_path)], capsys)
    assert code == 2
    assert err.startswith(f"error: {location}: ")
    assert not out_path.exists()


def test_dim_over_budget_domination_scan_routes_not_applicable(tmp_path, capsys):
    # conformal maps repeat their exponent, so the pipeline needs a domination
    # scan, and 2^8 words exceed a budget of 200: the report says not-applicable
    def rotation(scale, theta):
        c, s = np.cos(theta), np.sin(theta)
        return [[scale * c, -scale * s], [scale * s, scale * c]]

    doc = cantor_doc()
    doc["ifs"] = {
        "matrices": [rotation(0.4, 0.7), rotation(0.3, -0.5)],
        "translations": [[0.0, 0.0], [0.6, 0.1]],
        "weights": [0.5, 0.5],
    }
    doc["dim"].update(scan_budget=200, separation_level=4)
    code, out, err = run(["dim", "--config", write_config(tmp_path, doc), "--deterministic"],
                         capsys)
    assert code == 0, err
    results = json.loads(out, parse_constant=_reject_constant)["results"]
    assert results["route"] == "not-applicable"
    assert results["spectrum"]["multiplicities"] == [2]
    assert "domination" not in results  # no sampled scan stands in for the exact one
    assert results["ly_dim"] is None and results["ly_dim_conditional"] is None
    caveat = next(c for c in results["caveats"] if "scan_budget" in c)
    assert "2^8 words" in caveat and "dim.scan_n_max" in caveat and "dim.scan_budget" in caveat


def test_radii_count_below_usable_minimum_rejected(tmp_path, capsys):
    doc = cantor_doc()
    doc["dim"]["radii_count"] = 19
    code, _, err = run(["dim", "--config", write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert "dim.radii_count" in err
