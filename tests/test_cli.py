"""CLI: exit-status contract, report schemas, determinism, atomic output."""

import contextlib
import io
import json
import math
import os
import warnings

import pytest
from hypothesis import given, settings

import chart_docs
from bitension import biharmonic, chart, cli, expr

ROOT2INV = 1.0 / math.sqrt(2.0)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for tag in ("small-hypersphere", "product-spheres", "generalized-clifford",
                "clifford-torus-b3", "veronese"):
        assert tag in out


def test_clifford_torus_proper_only_at_equal_radii(capsys):
    # a^2 + b^2 = 1/2 with a != b: a flat torus of S^3(1/sqrt(2)) that is
    # not minimal there does not lift to a biharmonic one
    code, out, _ = run(capsys, "verify", "--catalog", "clifford-torus-b3",
                       "--param", "a=0.6", "--param", f"b={math.sqrt(0.14)!r}",
                       "--points", "8", "--format", "json")
    assert code == 1
    assert json.loads(out)["verdict"] == "not-biharmonic"
    _, out, _ = run(capsys, "catalog")
    assert "a^2 + b^2 = 1/2" not in out
    assert "proper biharmonic only at a = b = 1/2" in out


def test_verify_biharmonic_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--catalog", "small-hypersphere",
        "--param", "m=3", "--param", "r=0.70710678",
        "--format", "json", "--points", "16",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "biharmonic-proper"
    assert doc["quantities"]["A2"]["mean"] == pytest.approx(3.0, abs=1e-6)
    assert doc["quantities"]["H_norm"]["mean"] == pytest.approx(1.0, abs=1e-6)
    assert doc["quantities"]["scalar_curvature"]["mean"] == pytest.approx(12.0, abs=1e-5)
    assert doc["tool_version"]
    assert doc["config_echo"]["seed"] == 42
    assert doc["samples"] == 16


def test_verify_not_biharmonic_exit_one(capsys):
    code, out, _ = run(
        capsys, "verify", "--catalog", "small-hypersphere",
        "--param", "m=2", "--param", "r=0.6", "--points", "8",
    )
    assert code == 1
    assert "not-biharmonic" in out


def test_verify_minimal_equator_exit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "--catalog", "small-hypersphere",
        "--param", "m=2", "--param", "r=1.0", "--points", "8",
    )
    assert code == 0
    assert "minimal" in out


def test_verify_human_table(capsys):
    code, out, _ = run(
        capsys, "verify", "--catalog", "clifford-torus-b3",
        "--param", "a=0.5", "--param", "b=0.5", "--points", "8",
    )
    assert code == 0
    for label in ("|H|", "|B|^2", "||tau2||", "verdict"):
        assert label in out


# report keys as documented in the cli module docstring: a new report field
# has to be added there and here
VERIFY_KEYS = {"tool_version", "config_echo", "chart", "samples", "seed",
               "thresholds", "residuals", "quantities", "per_sample",
               "failures", "audit", "verdict"}
RESIDUAL_KEYS = {"tau2_direct_norm", "split_normal_norm", "split_tangent_norm",
                 "split_direct_gap", "pmc"}
PMC_KEYS = {"parallel_norm", "eq4_norm", "eq5a", "eq5b", "applicable",
            "equivalence_ok", "samples_with_H"}
QUANTITY_KEYS = {"H_norm", "B2", "scalar_curvature", "cmc", "minimal"}
SAMPLE_KEYS = {"point", "tau2_norm", "split_normal_norm", "split_tangent_norm",
               "split_gap", "H_norm", "B2", "nabla_perp_H_norm",
               "scalar_curvature", "hyper_i", "hyper_ii", "A2", "f"}
AUDIT_KEYS = {"name", "measured", "predicted", "deviation", "ok", "note"}


@pytest.mark.parametrize("catalog,hypersurface", [
    (("small-hypersphere", "--param", "m=2", "--param", f"r={ROOT2INV!r}"), True),
    (("clifford-torus-b3", "--param", "a=0.5", "--param", "b=0.5"), False),
])
def test_verify_json_schema(capsys, catalog, hypersurface):
    code, out, _ = run(capsys, "verify", "--catalog", *catalog, "--points", "8",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    hyper_residuals = {"hyper_i_residual", "hyper_ii_residual"}
    assert set(doc) == VERIFY_KEYS
    assert set(doc["residuals"]) == RESIDUAL_KEYS | (
        hyper_residuals if hypersurface else set())
    assert set(doc["residuals"]["tau2_direct_norm"]) == {"max", "mean",
                                                         "max_normalized"}
    assert set(doc["residuals"]["pmc"]) == PMC_KEYS
    assert set(doc["quantities"]) == QUANTITY_KEYS | (
        {"A2", "f"} if hypersurface else set())
    assert set(doc["quantities"]["B2"]) == {"min", "max", "mean"}
    assert set(doc["per_sample"][0]) == SAMPLE_KEYS
    assert set(doc["audit"][0]) == AUDIT_KEYS


def test_scan_json_schema(capsys):
    code, out, _ = run(capsys, "scan", "--family", "small-hypersphere",
                       "--param", "r", "--param", "m=2", "--range", "0.6:0.8",
                       "--steps", "10", "--samples", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"tool_version", "family", "grid", "roots", "boundary"}
    assert set(doc["family"]) == {"param", "range", "steps", "samples_per_point",
                                  "seed", "thresholds", "catalog", "fixed_params"}
    assert set(doc["grid"][0]) == {"param", "max_residual", "mean_residual",
                                   "H_norm", "verdict", "error"}
    assert set(doc["roots"][0]) == {"param", "residual", "classification",
                                    "bisection_iterations", "H_norm"}


def test_config_errors_exit_two(capsys, tmp_path):
    bad_ref = tmp_path / "bad-ref.json"
    bad_ref.write_text(json.dumps({"catalog": "x"}))
    # expression documents with one wrongly typed field each
    good = {"name": "circle", "m": 1, "n": 2, "expressions": ["cos(u1)", "sin(u1)", "0"],
            "domain": [[0.0, 6.28]]}
    mistyped = []
    for i, field in enumerate([{"domain": 5}, {"expressions": [1, 2, 3]},
                               {"m": [2]}, {"params": {"r": [1]}}]):
        path = tmp_path / f"mistyped-{i}.json"
        path.write_text(json.dumps({**good, **field}))
        mistyped.append(("verify", "--chart", str(path)))
    cases = [
        ("verify", "--catalog", "no-such-tag"),
        ("verify", "--catalog", "small-hypersphere", "--param", "m=2",
         "--param", "r=1.5"),
        ("verify", "--catalog", "small-hypersphere", "--param", "m=2",
         "--param", "r=abc"),
        ("verify", "--chart", str(tmp_path / "missing.json")),
        ("verify", "--catalog", "small-hypersphere", "--param", "m=2",
         "--param", "r=0.7", "--pass-tol", "1e-2", "--fail-tol", "1e-4"),
        ("verify", "--catalog", "small-hypersphere", "--param", "r"),
        ("scan", "--family", "small-hypersphere", "--param", "m=2",
         "--range", "0.3:0.9", "--steps", "10"),
        ("scan", "--family", "small-hypersphere", "--param", "r",
         "--param", "m=2", "--range", "0.3-0.9", "--steps", "10"),
        ("scan", "--family", "small-hypersphere", "--param", "r",
         "--range", "0.3:0.9", "--steps", "10",
         "--pass-tol", "1e-2", "--fail-tol", "1e-4"),
        ("scan", "--chart", str(bad_ref), "--param", "r",
         "--range", "0.3:0.9", "--steps", "10"),
        *mistyped,
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "error" in err.lower()


def test_malformed_chart_document(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "m": 2, "n": 3, '
                   '"expressions": ["u1", "u2", "u1"], '
                   '"domain": [[0, 6.28], [0, 6.28]]}')
    code, _, err = run(capsys, "verify", "--chart", str(bad))
    assert code == 2
    assert "expected 4 components" in err

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{{{")
    code, _, err = run(capsys, "verify", "--chart", str(notjson))
    assert code == 2


def test_all_samples_failed_exit_three(capsys, tmp_path):
    doc = {
        "name": "broken", "m": 1, "n": 2,
        "expressions": ["sqrt(u1 - 10)", "cos(u1)", "sin(u1)"],
        "domain": [[0.0, 6.28]],
    }
    f = tmp_path / "broken.json"
    f.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--chart", str(f), "--points", "4")
    assert code == 3
    assert "all 4 samples failed" in err


def test_non_finite_chart_exit_three_strict_output(capsys, tmp_path):
    # components overflow to inf, so every jet is non-finite after
    # normalization; each sample must fail rather than yield NaN residuals
    doc = {
        "name": "overflow", "m": 2, "n": 3,
        "expressions": ["sin(u1)*1e200*1e200*cos(u2)", "sin(u1)*sin(u2)",
                        "cos(u1)", "0.5"],
        "domain": [[0, 3.14159], [0, 6.28318]],
        "params": {}, "normalize": True,
    }
    f = tmp_path / "overflow.json"
    f.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "verify", "--chart", str(f), "--points",
                             "4", "--format", "json", "--output", str(report))
    assert code == 3
    assert "all 4 samples failed" in err and "non-finite" in err
    assert not report.exists()
    for text in (out, err):
        assert "NaN" not in text and "Infinity" not in text


def test_non_finite_chart_in_blocks_of_eight_no_warning(capsys, tmp_path):
    # the same overflow at m = 4, over two chart-jet passes (64 + 6 points)
    # and blocks of 8: the chart pass runs under the block's errstate too
    doc = {
        "name": "overflow-4", "m": 4, "n": 5,
        "expressions": ["sin(u1)*1e200*1e200*cos(u2)", "sin(u1)*sin(u2)", "cos(u1)",
                        "sin(u3)*cos(u4)", "sin(u3)*sin(u4)", "0.5"],
        "domain": [[0, 3.14159], [0, 6.28318]] * 2,
        "params": {}, "normalize": True,
    }
    f = tmp_path / "overflow.json"
    f.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, "verify", "--chart", str(f), "--points", "70")
    assert code == 3
    assert "all 70 samples failed" in err and "non-finite chart jets" in err


def test_infinite_sin_argument_exit_three(capsys, tmp_path):
    # sin of an infinite value fails the sample (non-finite jets, exit 3)
    # instead of escaping as a math domain error (exit 2)
    doc = {
        "name": "infinite-argument", "m": 2, "n": 3,
        "expressions": ["sin(1e200 * 1e200 * u1) * cos(u2)", "sin(u1) * sin(u2)",
                        "cos(u1)", "0.5"],
        "domain": [[0, 3.14159], [0, 6.28318]],
        "params": {}, "normalize": True,
    }
    f = tmp_path / "infinite.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--chart", str(f), "--points", "4",
                         "--format", "json")
    assert code == 3
    assert "all 4 samples failed" in err and "non-finite chart jets" in err
    for text in (out, err):
        assert "NaN" not in text and "Infinity" not in text


def test_huge_normalized_chart_verifies(capsys, tmp_path):
    # components of size 1e60 put ~1e120 under the normalizing sqrt, whose
    # series must stay finite there
    doc = {
        "name": "huge-sphere", "m": 2, "n": 3,
        "expressions": ["sin(u1) * 1e60 * cos(u2)", "1e60 * sin(u1) * sin(u2)",
                        "1e60 * cos(u1)", "0.5"],
        "domain": [[0, 3.14159], [0, 6.28318]],
        "params": {}, "normalize": True,
    }
    f = tmp_path / "huge.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--chart", str(f), "--points", "4",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "minimal"


def verify_tiny_fourth_component(capsys, tmp_path, component):
    """The unit S^2 in the first three components is totally geodesic; a tiny
    fourth component leaves it minimal with every sample used."""
    doc = {
        "name": "tiny", "m": 2, "n": 3,
        "expressions": ["sin(u1) * cos(u2)", "sin(u1) * sin(u2)", "cos(u1)", component],
        "domain": [[0, 3.14159], [0, 6.28318]],
        "params": {}, "normalize": True,
    }
    f = tmp_path / "tiny.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--chart", str(f), "--points", "4",
                         "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "minimal"
    assert report["failures"] == [] and len(report["per_sample"]) == 4
    for text in (out, err):
        assert "NaN" not in text and "Infinity" not in text


def test_tiny_sqrt_argument_no_traceback(capsys, tmp_path):
    # sqrt of ~1e-120: the higher series coefficients are beyond float range
    # (their denominators underflow), but the jet itself is small and finite
    verify_tiny_fourth_component(capsys, tmp_path, "sqrt(1e-120 * (2 + sin(u2)))")


def test_tiny_recip_argument_verifies(capsys, tmp_path):
    # the reciprocal of ~1e-70: its series overflows past degree 3, but the
    # jet of 1e-140 / (1e-70 * (2 + sin(u2))) is small and finite
    verify_tiny_fourth_component(capsys, tmp_path, "1e-140 / (1e-70 * (2 + sin(u2)))")


def test_chart_file_verify(capsys, tmp_path):
    doc = {
        "name": "clifford-product", "m": 2, "n": 3,
        "expressions": ["cos(u1)/sqrt(2)", "sin(u1)/sqrt(2)",
                        "cos(u2)/sqrt(2)", "sin(u2)/sqrt(2)"],
        "domain": [[0.0, 2 * math.pi], [0.0, 2 * math.pi]],
    }
    f = tmp_path / "torus.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--chart", str(f), "--points", "8",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "minimal"


def test_verify_chart_param_overrides_catalog_reference(capsys, tmp_path):
    ref = tmp_path / "sphere.json"
    ref.write_text(json.dumps(
        {"catalog": {"tag": "small-hypersphere", "params": {"m": 2, "r": 0.5}}}))
    code, out, _ = run(capsys, "verify", "--chart", str(ref),
                       "--param", f"r={ROOT2INV!r}", "--points", "8",
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "biharmonic-proper"
    assert doc["chart"]["catalog"]["params"] == {"m": 2, "r": ROOT2INV}
    assert "params" not in doc["chart"]


def test_scan_chart_catalog_reference_links_params(capsys, tmp_path):
    ref = tmp_path / "product.json"
    ref.write_text(json.dumps({"catalog": {"tag": "product-spheres", "params": {
        "m1": 2, "m2": 1, "r1": ROOT2INV, "r2": ROOT2INV}}}))
    sweep = ("--param", "r", "--range", "0.3:0.95", "--steps", "20",
             "--format", "csv")
    code, from_doc, _ = run(capsys, "scan", "--chart", str(ref), *sweep)
    assert code == 0
    code, from_tag, _ = run(capsys, "scan", "--family", "product-spheres",
                            "--param", "m1=2", "--param", "m2=1", *sweep)
    assert code == 0
    assert from_doc == from_tag
    assert sum("root:" in line for line in from_doc.split("\n")) == 2


def test_unread_param_exit_two(capsys, tmp_path):
    # a parameter that the chart does not read is an error, not a silent
    # evaluation of the default chart or a sweep of nothing
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({
        "name": "circle", "m": 1, "n": 2,
        "expressions": ["rho * cos(u1)", "rho * sin(u1)", "sqrt(1 - rho^2)"],
        "domain": [[0.0, 6.28]], "params": {"rho": 0.5}}))
    ref = tmp_path / "veronese.json"
    ref.write_text(json.dumps(
        {"catalog": {"tag": "veronese", "params": {"r": ROOT2INV, "m": 2}}}))
    r = f"r={ROOT2INV!r}"
    cases = [
        (("verify", "--catalog", "small-hypersphere", "--param", "M=3",
          "--param", r, "--points", "4"), "'M'"),
        (("scan", "--family", "small-hypersphere", "--param", "x", "--param", r,
          "--range", "0.1:0.9", "--steps", "8", "--samples", "2"), "'x'"),
        (("scan", "--family", "veronese", "--param", "r", "--param", "m=2",
          "--range", "0.5:0.9", "--steps", "8", "--samples", "2"), "'m'"),
        (("verify", "--chart", str(ref), "--points", "4"), "'m'"),
        (("verify", "--chart", str(circle), "--param", "r=0.6", "--points", "4"),
         "'r'"),
        (("scan", "--chart", str(circle), "--param", "r", "--range", "0.3:0.9",
          "--steps", "8", "--samples", "2"), "'r'"),
    ]
    for argv, name in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert name in err and out == ""
        assert "admissible" not in err


def test_non_finite_param_exit_two(capsys, tmp_path):
    # a non-finite value is refused by name: no OverflowError traceback, no
    # "nan" read as a parameter name
    torus = tmp_path / "nan-torus.json"
    torus.write_text('{"catalog": {"tag": "clifford-torus-b3", "params": {"a": NaN, "b": 0.5}}}')
    circle = tmp_path / "inf-circle.json"
    circle.write_text('{"name": "circle", "m": 1, "n": 2, "domain": [[0.0, 6.28]], '
                      '"expressions": ["rho * cos(u1)", "rho * sin(u1)", "sqrt(1 - rho^2)"], '
                      '"params": {"rho": Infinity}}')
    cases = [
        (("verify", "--catalog", "small-hypersphere", "--param", "r=0.7", "--param", "m=inf"),
         "'m=inf'"),
        (("verify", "--catalog", "product-spheres", "--param", "m1=inf", "--param", "m2=1",
          "--param", "r1=0.6", "--param", "r2=0.8"), "'m1=inf'"),
        (("verify", "--catalog", "small-hypersphere", "--param", "r=0.7", "--param", "m=nan"),
         "'m=nan'"),
        (("verify", "--catalog", "clifford-torus-b3", "--param", "a=0.5", "--param", "b=nan"),
         "'b=nan'"),
        (("scan", "--family", "small-hypersphere", "--param", "r", "--param", "m=-inf",
          "--range", "0.3:0.9", "--steps", "8"), "'m=-inf'"),
        (("verify", "--chart", str(torus), "--points", "4"), "'a'"),
        (("verify", "--chart", str(circle), "--points", "4"), "'rho'"),
    ]
    for argv, name in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        assert name in err and "finite number" in err, argv


def test_document_numbers_beyond_the_float_range_exit_two(capsys, tmp_path):
    # json.load reads integers beyond the float range: an m, n or domain end
    # that large is refused by name, not ended in an OverflowError traceback
    good = {"name": "circle", "m": 1, "n": 2, "expressions": ["cos(u1)", "sin(u1)", "0"],
            "domain": [[0.0, 6.28]]}
    for field, value in (("m", 10 ** 400), ("n", -10 ** 400), ("domain", [[0, 10 ** 400]])):
        path = tmp_path / f"huge-{field}.json"
        path.write_text(json.dumps({**good, field: value}))
        code, out, err = run(capsys, "verify", "--chart", str(path), "--points", "4")
        assert code == 2, field
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, field
        assert f'"{field}"' in err and "finite" in err, field


def test_deep_or_long_expression_exit_two(capsys, tmp_path):
    # 200 nested parentheses, and a sum of 1000 terms (a left-deep tree),
    # are refused by the parser's depth bound instead of ending in a
    # RecursionError traceback (in parsing, or in walking the tree)
    good = {"name": "circle", "m": 1, "n": 2, "expressions": ["cos(u1)", "sin(u1)", "0"],
            "domain": [[0.0, 6.28]]}
    for label, source in (("nested", "(" * 200 + "u1" + ")" * 200),
                          ("long", " + ".join(["u1"] * 1000))):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({**good, "expressions": ["cos(u1)", "sin(u1)", source]}))
        code, out, err = run(capsys, "verify", "--chart", str(path), "--points", "4")
        assert code == 2, label
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, label
        assert f"nested deeper than {expr.MAX_DEPTH} levels" in err, label


def test_points_beyond_the_budget_exit_two(capsys, monkeypatch):
    # the budget is checked before any sample point is drawn
    def no_sampling(*args):
        raise AssertionError("sample points drawn")

    monkeypatch.setattr(chart, "sample_points", no_sampling)
    for points in (biharmonic.BUDGET + 1, 10 ** 15):
        code, out, err = run(capsys, "verify", "--catalog", "small-hypersphere",
                             "--param", "r=0.5", "--points", str(points))
        assert code == 2, points
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, points
        assert f"budget {biharmonic.BUDGET}" in err, points


def test_scan_fixed_param_set_by_the_sweep_exit_two(capsys):
    # the swept parameter, or its link, would overwrite the fixed value
    cases = [
        (("--family", "clifford-torus-b3", "--param", "t", "--param", "a=0.3"), "'a'"),
        (("--family", "product-spheres", "--param", "r", "--param", "m1=2", "--param", "m2=1",
          "--param", "r2=0.1"), "'r2'"),
        (("--family", "small-hypersphere", "--param", "r", "--param", "r=0.5"), "'r'"),
    ]
    for argv, name in cases:
        code, out, err = run(capsys, "scan", *argv, "--range", "0.3:0.6", "--steps", "8")
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        assert f"fixed parameter {name} is never read" in err, argv


def test_scan_csv_root_row(capsys):
    code, out, _ = run(
        capsys, "scan", "--family", "small-hypersphere", "--param", "r",
        "--param", "m=2", "--range", "0.55:0.85", "--steps", "40",
        "--samples", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "param,max_residual,mean_residual,H_norm,verdict"
    root_lines = [l for l in lines if "root:" in l]
    assert len(root_lines) == 1
    assert abs(float(root_lines[0].split(",")[0]) - ROOT2INV) < 1e-6


def test_scan_default_dimension(capsys):
    # small-hypersphere defaults to m = 2, so the bare family sweep works
    code, out, _ = run(
        capsys, "scan", "--family", "small-hypersphere", "--param", "r",
        "--range", "0.6:0.8", "--steps", "20", "--samples", "4",
        "--format", "csv",
    )
    assert code == 0
    assert any("root:proper-biharmonic" in l for l in out.split("\n"))


def test_scan_requires_swept_param(capsys):
    code, _, err = run(capsys, "scan", "--family", "small-hypersphere",
                       "--range", "0.3:0.9", "--steps", "10")
    assert code == 2
    assert "bare --param" in err


def test_audit_subcommand(capsys):
    code, out, _ = run(
        capsys, "audit", "--catalog", "veronese", "--param",
        f"r={ROOT2INV!r}", "--points", "8",
    )
    assert code == 0
    assert "second-fundamental-form-lower-bound" in out
    code, out, _ = run(
        capsys, "audit", "--catalog", "small-hypersphere",
        "--param", "m=2", "--param", "r=0.6", "--points", "8",
    )
    assert code == 1
    assert "proper biharmonic charts only" in out


def test_output_file_atomic_and_round_trip(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--catalog", "veronese",
        "--param", f"r={ROOT2INV!r}", "--points", "8",
        "--format", "json", "--output", str(out_path),
    )
    assert code == 0
    assert out == ""                       # written to the file, not stdout
    text = out_path.read_text()
    # re-reading and re-serializing is byte-identical
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".bitension-")]
    assert leftovers == []


UNWRITABLE_CASES = [
    ("verify", "--catalog", "veronese", "--param", f"r={ROOT2INV!r}", "--points", "4",
     "--format", "json"),
    ("scan", "--family", "clifford-torus-b3", "--param", "t", "--range", "0.4:0.6",
     "--steps", "8", "--samples", "2", "--format", "csv"),
]


@pytest.mark.parametrize("args", UNWRITABLE_CASES, ids=lambda a: a[0])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_exit_two(capsys, tmp_path, args, target):
    # a missing parent directory fails on the temp file, a directory on the
    # rename; either way exit 2 with one error line and no temp file left
    out_path = tmp_path / "no" / "such" / "x.json" if target == "missing-dir" else tmp_path
    code, out, err = run(capsys, *args, "--output", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write report to {str(out_path)!r}: ")
    assert err.count("\n") == 1
    assert [p for p in os.listdir(tmp_path) if p.startswith(".bitension-")] == []


def test_determinism_byte_identical(capsys, tmp_path):
    args = ("verify", "--catalog", "product-spheres",
            "--param", "m1=2", "--param", "m2=1",
            "--param", f"r1={ROOT2INV!r}", "--param", f"r2={ROOT2INV!r}",
            "--points", "16", "--format", "json")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, *args, "--output", str(a))[0] == 0
    assert run(capsys, *args, "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_json_deterministic(capsys, tmp_path):
    args = ("scan", "--family", "clifford-torus-b3", "--param", "t",
            "--range", "0.4:0.6", "--steps", "20", "--samples", "4",
            "--format", "json")
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(capsys, *args, "--output", str(a))[0] == 0
    assert run(capsys, *args, "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["roots"] and abs(doc["roots"][0]["param"] - 0.5) < 1e-6


def test_usage_error_exit_two(capsys):
    assert cli.main(["verify"]) == 2            # missing chart source
    assert cli.main(["frobnicate"]) == 2        # unknown subcommand


PARSER_SEQUENCE = [
    ["verify", "--catalog", "small-hypersphere", "--param", "m=2", "--param", "r=0.6",
     "--points", "4", "--seed", "5", "--format", "json"],
    ["scan", "--family", "small-hypersphere", "--param", "r", "--range", "0.5:0.9",
     "--steps", "8", "--samples", "2", "--format", "csv"],
    ["verify", "--catalog", "small-hypersphere", "--param", "r=0.9", "--points", "4"],
    ["audit", "--catalog", "small-hypersphere", "--param", "r=0.7", "--points", "4",
     "--format", "json"],
    ["catalog"],
    ["verify", "--points", "4"],                # usage error: no chart source
    ["verify", "--catalog", "small-hypersphere", "--param", "r=0.9", "--points", "4",
     "--format", "json"],
]


def test_parser_built_once_keeps_no_state(capsys):
    # one parser per process; each call parses as a freshly built parser
    # would: no --param list, --format or --seed carries to the next call
    assert cli._build_parser() is cli._build_parser()
    for argv in PARSER_SEQUENCE * 2:
        parsed = []
        for parser in (cli._build_parser(), cli._build_parser.__wrapped__()):
            try:
                parsed.append(vars(parser.parse_args(argv)))
            except SystemExit as e:
                parsed.append(e.code)
        assert parsed[0] == parsed[1], argv
    capsys.readouterr()

    codes, outs = [], []
    for argv in PARSER_SEQUENCE:
        code, out, _ = run(capsys, *argv)
        codes.append(code)
        outs.append(out)
    assert codes == [1, 0, 1, 1, 0, 2, 1]
    first, last = json.loads(outs[0]), json.loads(outs[-1])
    assert first["config_echo"]["params"] == {"m": 2.0, "r": 0.6}
    assert first["config_echo"]["seed"] == 5
    assert last["config_echo"]["params"] == {"r": 0.9}
    assert last["config_echo"]["seed"] == 42 and last["config_echo"]["format"] == "json"
    assert json.loads(outs[3])["config_echo"]["params"] == {"r": 0.7}
    assert not outs[2].lstrip().startswith("{")         # --format back at human


def _reject_constant(name):
    raise ValueError(f"non-strict JSON token {name}")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(doc=chart_docs.chart_documents(valid=False))
def test_bad_input_never_ends_in_a_traceback(tmp_path_factory, doc):
    # random chart documents, most failing at some or all samples: the exit
    # code stays in 0..3, no exception leaves main, and a report is strict JSON
    path = tmp_path_factory.mktemp("fuzz") / "chart.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "--chart", str(path), "--points", "3", "--format", "json"])
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert err.getvalue().startswith("error: ")
