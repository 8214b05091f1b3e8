"""Charts: catalog construction, sphere/immersion invariants, documents,
sampling, and the perturbation harness."""

import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chart_docs
from bitension import chart, extrinsic, scan
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
        stack, sp, _ = eval_jet_stack(spec, [p])
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
    # each point outside the safe region gets its own error; the others none
    spec = catalog_chart("small-hypersphere", {"m": 2, "r": 0.8})
    _, _, errors = eval_jet_stack(spec, [[0.5, 1.0], [0.01, 1.0], [0.5, 9.0]])
    assert errors[0] is None
    assert all(isinstance(e, ChartEvalError) for e in errors[1:])
    assert re.search(r"safe region.* at point \(0\.01, 1\.0\)$", str(errors[1]))
    assert re.search(r"safe region.* at point \(0\.5, 9\.0\)$", str(errors[2]))


@pytest.mark.parametrize("block", [
    [[math.nan, 1.0]],
    [[0.5, 1.0], [0.5, math.nan], [math.nan, math.nan]],
])
def test_nan_coordinate_is_outside_the_safe_region(block):
    # every comparison with NaN is false, so the check asks "not inside":
    # each NaN point is named, alone and in a block
    spec = catalog_chart("small-hypersphere", {"m": 2, "r": 0.8})
    for got in (eval_jet_stack(spec, block)[2], extrinsic.geometry_block(spec, block)):
        for p, out in zip(block, got):
            if any(map(math.isnan, p)):
                assert isinstance(out, ChartEvalError) and "safe region" in str(out)
                assert np.array_equal(out.point, p, equal_nan=True)
            else:
                assert not isinstance(out, Exception)
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
    [error] = eval_jet_stack(spec, [[1.0]])[2]
    assert isinstance(error, ChartEvalError) and "normalize" in str(error)
    with pytest.raises(ChartEvalError, match="normalize"):
        extrinsic.compute_geometry(spec, [1.0])


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
        comps, _, _ = eval_jet_stack(parse_chart(doc), [[1.0, 2.0]])
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
    stack, _, errors = eval_jet_stack(spec, sample_points(spec, 5, 2))
    assert errors == [None] * 5
    assert np.isfinite(stack).all()
    np.testing.assert_allclose(stack[:, 0], stack[:, 1], rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("points", [[0.5, 1.0], [[0.5, 1.0, 2.0]], [[[0.5, 1.0]]]])
def test_eval_jet_stack_takes_point_blocks_only(points):
    # one point is a (1, m) block; a lone (m,) point is a shape error
    spec = catalog_chart("small-hypersphere", {"m": 2, "r": 0.8})
    for fn in (eval_jet_stack, extrinsic.geometry_block):
        with pytest.raises(ChartError, match="^expected a point with 2 coordinates$"):
            fn(spec, points)


@pytest.mark.parametrize("tag,params", ALL_CATALOG)
def test_catalog_rejects_unread_parameter(tag, params):
    with pytest.raises(chart.UnreadParamError, match="takes no parameter 'q'"):
        catalog_chart(tag, {**params, "q": 0.5})
    ref = {"catalog": {"tag": tag, "params": {**params, "q": 0.5}}}
    with pytest.raises(chart.UnreadParamError, match="'q'"):
        parse_chart(ref)


def test_expression_chart_rejects_unread_override():
    doc = {
        "name": "circle", "m": 1, "n": 2,
        "expressions": ["rho * cos(u1)", "rho * sin(u1)", "sqrt(1 - rho^2)"],
        "domain": [[0.0, 6.28]], "params": {"rho": 0.5},
    }
    assert parse_chart(doc, {"rho": 0.6}).params == {"rho": 0.6}
    with pytest.raises(chart.UnreadParamError, match="reads parameter 'r'"):
        parse_chart(doc, {"rho": 0.6, "r": 0.6})
    with pytest.raises(chart.UnreadParamError):
        chart.family_chart(doc, "r", 0.6, {})


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


# the component strings of the catalog builders when they printed every
# value as a literal: binding the values into parsed templates must give the
# same trees, so these strings, printed from the trees, stay as they were
GOLDEN_COMPONENTS = [
    ("small-hypersphere", {"m": 2, "r": 0.3},
     ["0.3 * sin(u1) * cos(u2)", "0.3 * sin(u1) * sin(u2)", "0.3 * cos(u1)",
      "0.9539392014169457"]),
    ("small-hypersphere", {"m": 2, "r": ROOT2INV},
     ["0.7071067811865475 * sin(u1) * cos(u2)", "0.7071067811865475 * sin(u1) * sin(u2)",
      "0.7071067811865475 * cos(u1)", "0.7071067811865476"]),
    ("small-hypersphere", {"m": 2, "r": 1.0},
     ["1.0 * sin(u1) * cos(u2)", "1.0 * sin(u1) * sin(u2)", "1.0 * cos(u1)", "0.0"]),
    ("veronese", {"r": 0.3},
     ["0.5196152422706631 * sin(u1) * sin(u2) * cos(u1)",
      "0.5196152422706631 * sin(u1) * cos(u2) * cos(u1)",
      "0.5196152422706631 * sin(u1)^2 * cos(u2) * sin(u2)",
      "0.25980762113533157 * sin(u1)^2 * (cos(u2)^2 - sin(u2)^2)",
      "0.15 * (sin(u1)^2 - 2.0 * cos(u1)^2)", "0.9539392014169457"]),
    ("veronese", {"r": ROOT2INV},
     ["1.224744871391589 * sin(u1) * sin(u2) * cos(u1)",
      "1.224744871391589 * sin(u1) * cos(u2) * cos(u1)",
      "1.224744871391589 * sin(u1)^2 * cos(u2) * sin(u2)",
      "0.6123724356957945 * sin(u1)^2 * (cos(u2)^2 - sin(u2)^2)",
      "0.35355339059327373 * (sin(u1)^2 - 2.0 * cos(u1)^2)", "0.7071067811865476"]),
    ("veronese", {"r": 1.0},
     ["1.7320508075688772 * sin(u1) * sin(u2) * cos(u1)",
      "1.7320508075688772 * sin(u1) * cos(u2) * cos(u1)",
      "1.7320508075688772 * sin(u1)^2 * cos(u2) * sin(u2)",
      "0.8660254037844386 * sin(u1)^2 * (cos(u2)^2 - sin(u2)^2)",
      "0.5 * (sin(u1)^2 - 2.0 * cos(u1)^2)", "0.0"]),
    *[(tag, {"m1": 1, "m2": 2, "r1": 0.3, "r2": 0.9539392014169457},
       ["0.3 * cos(u1)", "0.3 * sin(u1)", "0.9539392014169457 * sin(u2) * cos(u3)",
        "0.9539392014169457 * sin(u2) * sin(u3)", "0.9539392014169457 * cos(u2)"])
      for tag in ("product-spheres", "generalized-clifford")],
    *[(tag, {"m1": 1, "m2": 2, "r1": ROOT2INV, "r2": math.sqrt(0.5)},
       ["0.7071067811865475 * cos(u1)", "0.7071067811865475 * sin(u1)",
        "0.7071067811865476 * sin(u2) * cos(u3)", "0.7071067811865476 * sin(u2) * sin(u3)",
        "0.7071067811865476 * cos(u2)"])
      for tag in ("product-spheres", "generalized-clifford")],
    ("clifford-torus-b3", {"a": 0.3, "b": 0.4},
     ["0.3 * cos(u1)", "0.3 * sin(u1)", "0.4 * cos(u2)", "0.4 * sin(u2)",
      "0.8660254037844386"]),
    ("clifford-torus-b3", {"a": 0.5, "b": 0.5},
     ["0.5 * cos(u1)", "0.5 * sin(u1)", "0.5 * cos(u2)", "0.5 * sin(u2)",
      "0.7071067811865476"]),
    ("clifford-torus-b3", {"a": 0.6, "b": 0.8},
     ["0.6 * cos(u1)", "0.6 * sin(u1)", "0.8 * cos(u2)", "0.8 * sin(u2)", "0.0"]),
]


@pytest.mark.parametrize("tag,params,strings", GOLDEN_COMPONENTS)
def test_catalog_trees_equal_the_literal_form(tag, params, strings):
    # a Param leaf gives the jet its value gives as a literal: the catalog
    # chart evaluates bit for bit as the chart of the literal strings
    spec = catalog_chart(tag, params)
    literal = chart.ChartSpec("literal", spec.m, spec.n, strings, spec.domain)
    assert not literal.params
    points = sample_points(spec, 7, 3)
    assert eval_jet_stack(spec, points)[0].tobytes() == eval_jet_stack(literal, points)[0].tobytes()


def test_catalog_members_share_their_parameter_free_subtrees():
    # members of a family differ only in their values: they hold the same trees
    a, b = (catalog_chart("veronese", {"r": r}) for r in (0.5, 0.6))
    assert all(ca is cb for ca, cb in zip(a.components, b.components))
    assert a.params.keys() == b.params.keys() and a.params != b.params


@pytest.mark.parametrize("tag,params,name", [
    ("small-hypersphere", {"m": math.inf, "r": 0.7}, "m"),
    ("small-hypersphere", {"m": math.nan, "r": 0.7}, "m"),
    ("product-spheres", {"m1": math.inf, "m2": 1, "r1": 0.6, "r2": 0.8}, "m1"),
    ("clifford-torus-b3", {"a": 0.5, "b": math.nan}, "b"),
    ("clifford-torus-b3", {"a": math.nan, "b": math.nan}, "a"),
    ("veronese", {"r": math.nan}, "r"),
])
def test_catalog_rejects_non_finite_parameters(tag, params, name):
    with pytest.raises(ChartError, match=f"parameter '{name}' must be a finite number"):
        catalog_chart(tag, params)


def test_documents_reject_non_finite_parameters():
    # json.load reads NaN and Infinity, so a document can carry them
    torus = {"catalog": {"tag": "clifford-torus-b3", "params": {"a": math.nan, "b": 0.5}}}
    circle = {"name": "circle", "m": 1, "n": 2,
              "expressions": ["rho * cos(u1)", "rho * sin(u1)", "sqrt(1 - rho^2)"],
              "domain": [[0.0, 6.28]], "params": {"rho": math.inf}}
    huge = {"catalog": {"tag": "small-hypersphere", "params": {"m": 10 ** 400, "r": 0.5}}}
    for doc, name in ((torus, "a"), (circle, "rho"), (huge, "m")):
        with pytest.raises(ChartError, match=f"parameter '{name}' must be a finite number"):
            parse_chart(doc)
    with pytest.raises(ChartError, match="parameter 'rho' must be a finite number"):
        parse_chart({**circle, "params": {"rho": 0.5}}, {"rho": -math.inf})


@pytest.mark.parametrize("tag,param,fixed,name", [
    ("clifford-torus-b3", "t", {"a": 0.3}, "a"),
    ("product-spheres", "r", {"m1": 2, "m2": 1, "r2": 0.1}, "r2"),
    ("generalized-clifford", "r", {"m1": 2, "m2": 1, "r1": 0.1}, "r1"),
    ("small-hypersphere", "r", {"r": 0.5}, "r"),
    (None, "rho", {"rho": 0.5}, "rho"),
])
def test_family_params_reject_a_fixed_parameter_the_sweep_sets(tag, param, fixed, name):
    with pytest.raises(chart.UnreadParamError, match=f"fixed parameter '{name}' is never read"):
        chart.family_params(tag, param, 0.6, fixed)


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


# ---------------------------------------------------------------------------
# stacked family members: one chart pass over several members' points


def member_jets(specs, points):
    """Each row's chart jets and error from the chart passes ``scan`` makes
    over the members ``specs``, each on all of ``points``: consecutive
    members that differ only in their parameter values form a group, whose
    stacked rows (each parameter one value per row) go to
    ``extrinsic.chart_blocks``.  Returns, per member, a list of (jets,
    error) in point order, and (row count, params) of each pass."""
    rows = {i: [] for i in range(len(specs))}
    passes = []
    real = chart.eval_jet_stack

    def counted(spec, pts, params=None):
        passes.append((len(pts), params))
        return real(spec, pts, params)

    groups = itertools.groupby(enumerate(specs), key=lambda member: scan._chart_shape(member[1]))
    with mock.patch.object(chart, "eval_jet_stack", counted):
        for _, group in groups:
            group = list(group)
            spec = group[0][1]
            assert all(s.components == spec.components for _, s in group)
            params = {k: np.repeat([s.params[k] for _, s in group], len(points))
                      for k in spec.params}
            owners = iter([i for i, _ in group for _ in points])
            for pts, (Phi, _, errors) in extrinsic.chart_blocks(
                    spec, np.tile(points, (len(group), 1)), params):
                assert len(pts) == len(Phi) <= extrinsic.block_size(spec.m)
                for jet, error in zip(Phi, errors):
                    rows[next(owners)].append((jet, error))
    return rows, passes


def bits(jet: np.ndarray) -> bytes:
    """The bytes of ``jet`` with every NaN made the same NaN.  The sign of a
    NaN numpy makes depends on the SIMD path it takes, and so on the
    alignment of the arrays: one chart evaluated twice on the same points
    can differ there."""
    return np.where(np.isnan(jet), np.nan, jet).tobytes()


PARAM_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.0, 1e300]),
                         st.floats(-10.0, 10.0))
READS_C = ["c * ({})", "({}) + c", "({}) / c", "sqrt(c) * ({})", "({})^2 - c^3"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(doc=chart_docs.chart_documents(), data=st.data())
def test_stacked_members_equal_their_own_passes(doc, data):
    # members of a one-parameter family of random charts, with signed zeros
    # and huge values of c, and possibly one member of a family of the same
    # shape with other trees, in its own group: a pass starts where a group
    # starts and then every CHART_RUN rows, and every row of the passes has the
    # bytes (signed zeros included) and the error message of its member's
    # own pass
    exprs = list(doc["expressions"])
    for k in data.draw(st.lists(st.integers(0, len(exprs) - 1), min_size=1, max_size=3)):
        exprs[k] = data.draw(st.sampled_from(READS_C)).format(exprs[k])
    doc = dict(doc, expressions=exprs, params={"c": 1.0})
    other = dict(doc, expressions=[f"-({exprs[0]})", *exprs[1:]])
    specs = [chart.family_chart(doc, "c", v, {})
             for v in data.draw(st.lists(PARAM_VALUES, min_size=2, max_size=5))]
    odd = data.draw(st.one_of(st.none(), st.integers(0, len(specs))))
    if odd is not None:
        specs.insert(odd, chart.family_chart(other, "c", data.draw(PARAM_VALUES), {}))
    points = sample_points(specs[0], data.draw(st.integers(1, 24)), data.draw(st.integers(0, 99)))
    points[data.draw(st.integers(0, len(points) - 1))] = np.nan
    owners = [i for i in range(len(specs)) for _ in points]
    starts = []
    for k, i in enumerate(owners):
        if k == 0 or (i == odd) != (owners[k - 1] == odd):
            group_start = k
        if (k - group_start) % extrinsic.CHART_RUN == 0:
            starts.append(k)

    with np.errstate(all="ignore"):
        rows, passes = member_jets(specs, points)
        assert [count for count, _ in passes] == list(np.diff(starts + [len(owners)]))
        for i, spec in enumerate(specs):
            Phi, _, errors = eval_jet_stack(spec, points)
            assert len(rows[i]) == len(points)
            for (jet, error), ref, ref_error in zip(rows[i], Phi, errors):
                assert bits(jet) == bits(ref)
                assert type(error) is type(ref_error) and str(error) == str(ref_error)


def test_members_with_zeros_of_both_signs_merge():
    # Const compares by float.hex, so one evaluation memo keeps 0.0 and -0.0
    # apart: a chart with both literals reads each as itself.  Members with
    # c = 0.0 and -0.0 stack into one pass, and each row keeps its sign.
    def literal(c):
        return chart.ChartSpec("zeros", 1, 3, ["cos(u1)", "sin(u1)", c, "-0.0"],
                               [(0.0, 3.0)])

    points = sample_points(literal("0.0"), 4, 1)
    for c in ("0.0", "0.5"):
        last = eval_jet_stack(literal(c), points)[0][:, 3, 0]
        assert np.signbit(last).all() and not last.any()
    zero = eval_jet_stack(literal("0.0"), points)[0][:, 2, 0]
    assert not np.signbit(zero).any() and not zero.any()
    specs = [chart.ChartSpec("zeros", 1, 3, ["cos(u1)", "sin(u1)", "c", "-0.0"],
                             [(0.0, 3.0)], params={"c": c}) for c in (0.0, -0.0)]
    assert scan._chart_shape(specs[0]) == scan._chart_shape(specs[1])
    rows, [(count, params)] = member_jets(specs, points)
    assert count == 8
    assert list(np.signbit(params["c"])) == [False] * 4 + [True] * 4
    for i, one in enumerate(specs):
        ref = eval_jet_stack(one, points)[0]
        assert [jet.tobytes() for jet, _ in rows[i]] == [r.tobytes() for r in ref]
        assert list(np.signbit([jet[2, 0] for jet, _ in rows[i]])) == [bool(i)] * 4
