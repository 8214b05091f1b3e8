"""Charts: catalog construction, sphere/immersion invariants, documents,
sampling, and the perturbation harness."""

import math

import numpy as np
import pytest

from bitension import chart, extrinsic, jets
from bitension.chart import (
    ChartError, ChartEvalError, catalog_chart, eval_jet_stack, parse_chart,
    perturbed_chart, sample_points,
)
from oracle import eval_chart

ROOT2INV = 1.0 / math.sqrt(2.0)

ALL_CATALOG = [
    ("small-hypersphere", {"m": 1, "r": ROOT2INV}),
    ("small-hypersphere", {"m": 2, "r": ROOT2INV}),
    ("small-hypersphere", {"m": 3, "r": 0.9}),
    ("small-hypersphere", {"m": 2, "r": 1.0}),
    ("product-spheres", {"m1": 2, "m2": 1, "r1": ROOT2INV, "r2": ROOT2INV}),
    ("product-spheres", {"m1": 1, "m2": 1, "r1": 0.6, "r2": 0.8}),
    ("generalized-clifford", {"m1": 2, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV}),
    ("clifford-torus-b3", {"a": 0.5, "b": 0.5}),
    ("clifford-torus-b3", {"a": 0.3, "b": 0.6}),
    ("veronese", {"r": ROOT2INV}),
    ("veronese", {"r": 1.0}),
]


@pytest.mark.parametrize("tag,params", ALL_CATALOG)
def test_catalog_unit_sphere_invariant(tag, params):
    spec = catalog_chart(tag, params)
    for p in sample_points(spec, 16, 3):
        stack = eval_jet_stack(spec, [p])[0][0]
        assert abs(np.linalg.norm(stack[:, 0]) - 1.0) < 1e-10


@pytest.mark.parametrize("tag,params", ALL_CATALOG)
def test_catalog_immersion_invariant(tag, params):
    spec = catalog_chart(tag, params)
    for p in sample_points(spec, 8, 5):
        stack, sp = eval_jet_stack(spec, [p])
        jac = stack[0][:, sp.var_pos].T                         # (m, n+1)
        g = jac @ jac.T
        eig = np.linalg.eigvalsh(g)
        assert eig[0] > extrinsic.RANK_TOL * eig[-1]


def test_clifford_torus_constant_component():
    # last ambient coordinate is the constant sqrt(1 - a^2 - b^2) = 1/sqrt(2)
    spec = catalog_chart("clifford-torus-b3", {"a": 0.5, "b": 0.5})
    for p in sample_points(spec, 4, 1):
        j = eval_jet_stack(spec, [p])[0][0, 4]
        assert abs(j[0] - ROOT2INV) < 1e-15
        assert np.all(j[1:] == 0.0)


def test_equator_chart_evaluates():
    # r = 1: the constant component is exactly 0, which must not hit sqrt
    spec = catalog_chart("small-hypersphere", {"m": 2, "r": 1.0})
    p = sample_points(spec, 1, 0)[0]
    stack = eval_jet_stack(spec, [p])[0][0]
    assert abs(stack[3, 0]) == 0.0


def test_parse_chart_clifford_document():
    doc = {
        "name": "clifford-product",
        "m": 2,
        "n": 3,
        "expressions": [
            "cos(u1)/sqrt(2)", "sin(u1)/sqrt(2)",
            "cos(u2)/sqrt(2)", "sin(u2)/sqrt(2)",
        ],
        "domain": [[0.0, 2 * math.pi], [0.0, 2 * math.pi]],
    }
    spec = parse_chart(doc)
    assert (spec.m, spec.n) == (2, 3)
    p = sample_points(spec, 1, 0)[0]
    assert abs(np.linalg.norm(eval_chart(spec, p)) - 1.0) < 1e-14


def test_parse_chart_component_count():
    doc = {
        "name": "bad", "m": 2, "n": 3,
        "expressions": ["cos(u1)", "sin(u1)", "cos(u2)"],
        "domain": [[0.0, 6.28], [0.0, 6.28]],
    }
    with pytest.raises(ChartError, match="expected 4 components"):
        parse_chart(doc)


def test_parse_chart_syntax_error_position():
    doc = {
        "name": "bad", "m": 1, "n": 2,
        "expressions": ["cos(u1)", "sin(u1", "0"],
        "domain": [[0.0, 6.28]],
    }
    with pytest.raises(ChartError, match="column 7"):
        parse_chart(doc)


def test_parse_chart_catalog_document():
    ref = {"catalog": {"tag": "veronese", "params": {"r": 0.8}}}
    spec = parse_chart(ref)
    assert spec.catalog["tag"] == "veronese"
    assert parse_chart(ref, {"r": ROOT2INV}).catalog["params"] == {"r": ROOT2INV}
    assert ref["catalog"]["params"] == {"r": 0.8}      # the document is not edited


def test_chart_validation_errors():
    with pytest.raises(ChartError):
        catalog_chart("no-such-chart", {})
    with pytest.raises(ChartError):
        catalog_chart("small-hypersphere", {"m": 2, "r": 1.5})
    with pytest.raises(ChartError):
        catalog_chart("small-hypersphere", {"m": 2, "r": 0.0})
    with pytest.raises(ChartError):
        catalog_chart("small-hypersphere", {"m": 7, "r": 0.5})
    with pytest.raises(ChartError):
        catalog_chart("small-hypersphere", {"m": 2.5, "r": 0.5})
    with pytest.raises(ChartError):
        catalog_chart("small-hypersphere", {"m": 2})
    with pytest.raises(ChartError, match="a\\^2 \\+ b\\^2 <= 1"):
        catalog_chart("clifford-torus-b3", {"a": 0.8, "b": 0.8})
    with pytest.raises(ChartError, match="r1\\^2 \\+ r2\\^2 = 1"):
        catalog_chart("product-spheres", {"m1": 1, "m2": 2, "r1": 0.5, "r2": 0.5})
    with pytest.raises(ChartError):
        catalog_chart("generalized-clifford",
                      {"m1": 3, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV})
    for doc in ({"catalog": "x"}, {"catalog": {"tag": 3}}, [],
                {"catalog": {"tag": "veronese", "params": [0.5]}}):
        with pytest.raises(ChartError):
            parse_chart(doc)


def test_document_variable_out_of_range():
    doc = {
        "name": "bad", "m": 1, "n": 2,
        "expressions": ["cos(u1)", "sin(u1)", "u2"],
        "domain": [[0.0, 6.28]],
    }
    with pytest.raises(ChartError, match="u2"):
        parse_chart(doc)


def test_document_unknown_parameter():
    doc = {
        "name": "bad", "m": 1, "n": 2,
        "expressions": ["cos(u1)", "sin(u1)", "alpha"],
        "domain": [[0.0, 6.28]],
    }
    with pytest.raises(ChartError, match="unknown parameter 'alpha'"):
        parse_chart(doc)
    assert parse_chart(doc, {"alpha": 0.5}).params == {"alpha": 0.5}


def test_sample_points_contract():
    spec = catalog_chart("veronese", {"r": 0.8})
    a = sample_points(spec, 64, 7)
    b = sample_points(spec, 64, 7)
    np.testing.assert_array_equal(a, b)
    c = sample_points(spec, 64, 8)
    assert not np.array_equal(a, c)
    for i, (lo, hi) in enumerate(spec.domain):
        assert np.all(a[:, i] >= lo + chart.SINGULAR_MARGIN - 1e-12)
        assert np.all(a[:, i] <= hi - chart.SINGULAR_MARGIN + 1e-12)
    with pytest.raises(ChartError):
        sample_points(spec, 0, 1)


def test_eval_jet_margin_enforced():
    spec = catalog_chart("small-hypersphere", {"m": 2, "r": 0.8})
    with pytest.raises(ChartEvalError, match=r"safe region.* at point \(0\.01, 1\.0\)$"):
        eval_jet_stack(spec, [[0.5, 1.0], [0.01, 1.0], [0.5, 9.0]])


@pytest.mark.parametrize("block", [
    [[math.nan, 1.0]],
    [[0.5, 1.0], [0.5, math.nan], [math.nan, math.nan]],
])
def test_nan_coordinate_is_outside_the_safe_region(block):
    # every comparison with NaN is false, so the check asks "not inside":
    # the first NaN point is named, alone and in a block
    spec = catalog_chart("small-hypersphere", {"m": 2, "r": 0.8})
    bad = next(p for p in block if any(map(math.isnan, p)))
    for call in (lambda: eval_jet_stack(spec, block),
                 lambda: extrinsic.geometry_block(spec, block)):
        with pytest.raises(ChartEvalError, match="safe region") as err:
            call()
        assert np.array_equal(err.value.point, bad, equal_nan=True)
    if len(block) == 1:
        with pytest.raises(ChartEvalError, match=r"safe region.* at point \(nan, 1\.0\)$"):
            extrinsic.compute_geometry(spec, block[0])


def test_eval_real_allows_margin_but_not_outside_box():
    spec = catalog_chart("small-hypersphere", {"m": 2, "r": 0.8})
    eval_chart(spec, [0.01, 1.0])    # inside the box, closer than the margin
    with pytest.raises(ChartEvalError):
        eval_chart(spec, [-0.5, 1.0])


def test_normalized_user_chart_unit_degree0():
    # a radially perturbed circle, renormalized: |phi| = 1 exactly in degree 0
    doc = {
        "name": "wobble", "m": 1, "n": 2,
        "expressions": [
            "(1 + 0.1*sin(u1)) * cos(u1)",
            "(1 + 0.1*sin(u1)) * sin(u1)",
            "0.0",
        ],
        "domain": [[0.0, 2 * math.pi]],
        "normalize": True,
    }
    spec = parse_chart(doc)
    for p in sample_points(spec, 8, 2):
        stack = eval_jet_stack(spec, [p])[0][0]
        assert abs(np.linalg.norm(stack[:, 0]) - 1.0) < 1e-15


def test_normalize_rejects_near_zero():
    doc = {
        "name": "zero", "m": 1, "n": 2,
        "expressions": ["u1 - u1", "0.0", "0.0"],
        "domain": [[0.0, 2 * math.pi]],
        "normalize": True,
    }
    spec = parse_chart(doc)
    with pytest.raises(ChartEvalError, match="normalize"):
        eval_jet_stack(spec, [[1.0]])


def test_eval_jet_overflow_returns_non_finite():
    # 1 / (1e-200 + h) with h = (u1 - 1)^2: the exact degree-2 coefficient,
    # -1e400, is beyond float range; the jets come back non-finite for the
    # geometry layer to reject, with no exception
    doc = {
        "name": "overflow", "m": 2, "n": 3,
        "expressions": ["1 / (1e-200 + (u1 - 1)^2)", "sin(u1) * sin(u2)",
                        "cos(u1)", "0.5"],
        "domain": [[0.0, 3.14159], [0.0, 6.28318]],
        "normalize": True,
    }
    with np.errstate(all="ignore"):
        comps, _ = eval_jet_stack(parse_chart(doc), [[1.0, 2.0]])
    assert not all(np.isfinite(j).all() for j in comps[0])


def test_division_by_tiny_constant_is_scaling():
    # the recip series of 1e-100 overflows past degree 3, but every exact
    # coefficient of x / 1e-100 is finite: it equals 1e100 * x
    spec = parse_chart({
        "name": "scaled", "m": 2, "n": 3,
        "expressions": ["sin(u1) * cos(u2) / 1e-100", "1e100 * (sin(u1) * cos(u2))",
                        "cos(u1)", "0.5"],
        "domain": [[0.0, 3.14159], [0.0, 6.28318]],
    })
    stack, _ = eval_jet_stack(spec, sample_points(spec, 5, 2))
    assert np.isfinite(stack).all()
    np.testing.assert_allclose(stack[:, 0], stack[:, 1], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("points", [[0.5, 1.0], [[0.5, 1.0, 2.0]], [[[0.5, 1.0]]]])
def test_eval_jet_stack_takes_point_blocks_only(points):
    # one point is a (1, m) block; a lone (m,) point is a shape error
    spec = catalog_chart("small-hypersphere", {"m": 2, "r": 0.8})
    for fn in (eval_jet_stack, extrinsic.geometry_block):
        with pytest.raises(ChartError, match="^expected a point with 2 coordinates$"):
            fn(spec, points)


def test_family_params_bindings():
    p = chart.family_params("product-spheres", "r", 0.6, {"m1": 2, "m2": 1})
    assert p["r1"] == 0.6 and abs(p["r2"] - 0.8) < 1e-15
    p = chart.family_params("clifford-torus-b3", "t", 0.4, {})
    assert p["a"] == 0.4 and p["b"] == 0.4
    p = chart.family_params("small-hypersphere", "r", 0.5, {"m": 2})
    assert p == {"m": 2, "r": 0.5}
    # a catalog reference links its parameters like the tag itself
    ref = {"catalog": {"tag": "clifford-torus-b3", "params": {"a": 0.3, "b": 0.6}}}
    assert chart.family_chart(ref, "t", 0.5, {}).catalog["params"] == {"a": 0.5, "b": 0.5}


def test_perturbed_charts_are_valid_immersions():
    for seed in (0, 1, 2):
        spec = perturbed_chart(seed, base="sphere")
        assert spec.normalize and (spec.m, spec.n) == (2, 3)
        for p in sample_points(spec, 4, 1):
            stack = eval_jet_stack(spec, [p])[0][0]
            assert abs(np.linalg.norm(stack[:, 0]) - 1.0) < 1e-12
    spec = perturbed_chart(0, base="torus")
    assert (spec.m, spec.n) == (2, 4)
    with pytest.raises(ChartError):
        perturbed_chart(0, base="banana")


def test_catalog_entries_listing():
    entries = chart.catalog_entries()
    tags = {e["tag"] for e in entries}
    assert tags == {"small-hypersphere", "product-spheres",
                    "generalized-clifford", "clifford-torus-b3", "veronese"}
