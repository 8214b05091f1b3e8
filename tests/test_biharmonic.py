"""Residual systems: direct bitension against the closed-form family oracle,
split equivalence, hypersurface equivalence, PMC checks, verdicts, audits.

Frozen oracle (derived by hand from the umbilical geometry of S^m(r) in
S^{m+1}): such a chart is CMC with shape eigenvalues sqrt(1-r^2)/r, so the
tangent residual vanishes and

    ||tau2|| = m * f * | |A|^2 - m |  =  m^2 * (sqrt(1-r^2)/r) * |1/r^2 - 2|,

zero exactly at r = 1/sqrt(2) (proper biharmonic) and r = 1 (minimal).
"""

import json
import math

import numpy as np
import pytest

import oracle
from identities import point_of, rows_of
from bitension import biharmonic, chart, extrinsic
from bitension.biharmonic import (
    VERDICT_INCONCLUSIVE, VERDICT_MINIMAL, VERDICT_NOT, VERDICT_PROPER,
    AllSamplesFailed, evaluate_chart, hypersurface_residuals, pmc_check,
    quantity_audit, split_residuals, tau2_direct,
)
from bitension.chart import catalog_chart, perturbed_chart, sample_points

ROOT2INV = 1.0 / math.sqrt(2.0)


def sphere_tau2_norm(m, r):
    """Closed-form bitension norm of the small-hypersphere family."""
    f = math.sqrt(1.0 - r * r) / r
    return m * m * f * abs(1.0 / (r * r) - 2.0)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("r", [0.5, 0.6, ROOT2INV, 0.9, 0.99])
def test_tau2_matches_family_oracle(m, r):
    spec = catalog_chart("small-hypersphere", {"m": m, "r": r})
    ref = sphere_tau2_norm(m, r)
    for p in sample_points(spec, 3, 17):
        [tau] = tau2_direct(extrinsic.compute_geometry(spec, p))
        assert abs(np.linalg.norm(tau) - ref) < 1e-9 * (1.0 + ref)


def sphere_curvature_contraction(geom):
    """trace R^S(dphi e_i, H) dphi e_i evaluated from the curvature formula
    R^S(X,Y)Z = <Y,Z>X - <X,Z>Y; equals -m H for any immersion, which is the
    identity tau2_direct hard-codes."""
    out = np.zeros_like(geom.H)
    for a in range(geom.m):
        x = geom.tangent_frame[a]
        out += np.dot(geom.H, x) * x - np.dot(x, x) * geom.H
    return out


def test_sphere_curvature_contraction_identity():
    # trace R^S(dphi e_i, H) dphi e_i = -m H, tested against the direct
    # evaluation of R^S(X,Y)Z = <Y,Z>X - <X,Z>Y
    for spec in (catalog_chart("small-hypersphere", {"m": 2, "r": 0.6}),
                 catalog_chart("veronese", {"r": 0.8}),
                 perturbed_chart(71)):
        for p in sample_points(spec, 3, 23):
            g = point_of(extrinsic.compute_geometry(spec, p))
            np.testing.assert_allclose(
                sphere_curvature_contraction(g), -g.m * g.H, atol=1e-11
            )


def test_split_direct_equivalence_per_sample(catalog_reports, perturbed_reports):
    for rep in list(catalog_reports.values()) + list(perturbed_reports.values()):
        for s in rep.per_sample:
            assert s.split_gap < 1e-7 * (1.0 + s.tau2_norm), rep.chart["name"]


def test_split_and_direct_verdicts_never_disagree(catalog_reports):
    for rep in catalog_reports.values():
        m = rep.chart["m"]
        for s in rep.per_sample:
            split_norm = m * (s.split_normal_norm + s.split_tangent_norm)
            assert (s.tau2_norm < rep.pass_tol) == (split_norm < 2 * m * rep.pass_tol) \
                or s.tau2_norm > rep.fail_tol


def test_hypersurface_equivalence(catalog_reports):
    # eq-(3) verdict agrees with the direct verdict at every sample
    for rep in catalog_reports.values():
        if not rep.hypersurface:
            continue
        for s in rep.per_sample:
            direct_zero = s.tau2_norm < rep.pass_tol
            system_zero = s.hyper_i < rep.pass_tol and s.hyper_ii < rep.pass_tol
            assert direct_zero == system_zero, rep.chart["name"]


def test_minimal_implies_biharmonic():
    # torus radii: next float above 1/sqrt(2), so 1 - a^2 - b^2 <= 0 and the
    # constant component clamps to exactly 0 (the sqrt would otherwise
    # amplify the representation slack to a genuine |H| of order 1e-8)
    a = float(np.nextafter(ROOT2INV, 1.0))
    minimal_charts = [
        catalog_chart("small-hypersphere", {"m": 2, "r": 1.0}),
        catalog_chart("small-hypersphere", {"m": 3, "r": 1.0}),
        catalog_chart("clifford-torus-b3", {"a": a, "b": a}),
        catalog_chart("product-spheres",
                      {"m1": 2, "m2": 1, "r1": math.sqrt(2 / 3),
                       "r2": math.sqrt(1 / 3)}),
        catalog_chart("veronese", {"r": 1.0}),
    ]
    for spec in minimal_charts:
        rep = evaluate_chart(spec, samples=8, seed=42)
        assert rep.max_of("H_norm") < 1e-9, spec.name
        assert rep.max_of("tau2_norm") < 1e-7, spec.name
        assert rep.verdict == VERDICT_MINIMAL


def test_split_residuals_minimal_product():
    spec = catalog_chart("product-spheres",
                         {"m1": 1, "m2": 1, "r1": ROOT2INV, "r2": ROOT2INV})
    for p in sample_points(spec, 3, 31):
        g = point_of(extrinsic.compute_geometry(spec, p))
        normal, tangent = split_residuals(g)
        assert np.linalg.norm(normal) < 1e-12
        assert np.linalg.norm(tangent) < 1e-12
        assert g.H_norm < 1e-13
    rep = evaluate_chart(spec, samples=8, seed=1)
    assert rep.verdict == VERDICT_MINIMAL


def test_hypersurface_residuals_negative_control():
    spec = catalog_chart("small-hypersphere", {"m": 2, "r": 0.6})
    res_i, res_ii = hypersurface_residuals(rows_of(spec, sample_points(spec, 3, 37)))
    assert (res_i > 1e-3).all()      # fails eq (3)(i) clearly
    assert (res_ii < 1e-12).all()    # CMC: grad f = 0 identically


def test_pmc_block_generalized_clifford(catalog_reports):
    from conftest import chart_key
    rep = catalog_reports[chart_key(
        "generalized-clifford",
        {"m1": 2, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV})]
    pmc = rep.pmc
    assert pmc.applicable
    assert pmc.parallel_norm < 1e-7
    assert pmc.eq4_norm < 1e-6
    assert pmc.eq5a < 1e-6 and pmc.eq5b < 1e-6
    assert pmc.equivalence_ok


def test_pmc_b3_charts(catalog_reports):
    from conftest import chart_key
    for key in (chart_key("clifford-torus-b3", {"a": 0.5, "b": 0.5}),
                chart_key("veronese", {"r": ROOT2INV})):
        rep = catalog_reports[key]
        assert rep.pmc.applicable
        assert rep.pmc.eq5b < 1e-8             # |A_H|^2 = m |H|^2 with |H| = 1
        assert abs(rep.max_of("H_norm") - 1.0) < 1e-9


def test_pmc_not_applicable_for_non_parallel_chart():
    spec = perturbed_chart(205, base="torus", amplitude=0.08)
    pts = sample_points(spec, 6, 3)
    rows = rows_of(spec, pts)
    pmc = pmc_check(rows)
    assert not pmc.applicable
    assert pmc.parallel_norm > 1e-3
    # independent finite-difference confirmation at the worst sample
    worst = int(np.argmax(rows.nabla_perp_H_norm))
    fd = oracle.fd_nabla_perp_H(spec, pts[worst])
    assert np.linalg.norm(fd) > 1e-3
    assert np.max(np.abs(fd - rows.nabla_perp_H[worst])) < 1e-2


def test_pmc_skips_minimal_samples():
    spec = catalog_chart("small-hypersphere", {"m": 2, "r": 1.0})
    pmc = pmc_check(rows_of(spec, sample_points(spec, 4, 5)))
    assert pmc.samples_with_H == 0
    assert pmc.equivalence_ok is None


def test_verdicts(catalog_reports):
    from conftest import chart_key
    assert catalog_reports[chart_key(
        "small-hypersphere", {"m": 2, "r": ROOT2INV})].verdict == VERDICT_PROPER
    for r in (0.5, 0.6, 0.9):
        rep = catalog_reports[chart_key("small-hypersphere", {"m": 2, "r": r})]
        assert rep.verdict == VERDICT_NOT
    assert catalog_reports[chart_key(
        "small-hypersphere", {"m": 2, "r": 1.0})].verdict == VERDICT_MINIMAL


def test_verdict_monotonicity():
    # tightening pass_tol can move a verdict toward "not biharmonic" but
    # never from not-biharmonic to proper
    spec = catalog_chart("small-hypersphere", {"m": 2, "r": 0.72})
    order = {VERDICT_PROPER: 0, VERDICT_MINIMAL: 0,
             VERDICT_INCONCLUSIVE: 1, VERDICT_NOT: 2}
    last = 0
    for pass_tol in (1e-2, 1e-4, 1e-6, 1e-8):
        rep = evaluate_chart(spec, samples=4, seed=2, pass_tol=pass_tol,
                             fail_tol=pass_tol * 1e3)
        assert order[rep.verdict] >= last
        last = order[rep.verdict]


def test_tolerance_validation():
    spec = catalog_chart("small-hypersphere", {"m": 2, "r": 0.8})
    with pytest.raises(ValueError):
        evaluate_chart(spec, samples=4, pass_tol=1e-3, fail_tol=1e-6)


def test_all_samples_failed():
    doc = {
        "name": "broken", "m": 1, "n": 2,
        "expressions": ["sqrt(u1 - 10)", "cos(u1)", "sin(u1)"],
        "domain": [[0.0, 6.28]],
    }
    spec = chart.parse_chart(doc)
    with pytest.raises(AllSamplesFailed):
        evaluate_chart(spec, samples=4, seed=1)


def test_report_json_round_trip(catalog_reports):
    rep = next(iter(catalog_reports.values()))
    doc = rep.to_report_dict(config_echo={"seed": 42}, tool_version="0.1.0")
    text = json.dumps(doc, indent=2, sort_keys=True)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def test_normalized_residuals_reported(catalog_reports):
    rep = next(iter(catalog_reports.values()))
    res = rep.residual_summary()
    m = rep.chart["m"]
    h = rep.max_of("H_norm")
    assert res["tau2_direct_norm"]["max_normalized"] <= (
        res["tau2_direct_norm"]["max"] / (m * 1.0) + 1e-15
    )


def test_quantity_audit_product_boundary(catalog_reports):
    from conftest import chart_key
    rep = catalog_reports[chart_key(
        "product-spheres", {"m1": 2, "m2": 1, "r1": ROOT2INV, "r2": ROOT2INV})]
    audit = {a.name: a for a in rep.audit}
    assert audit["shape-operator-norm"].ok
    assert audit["scalar-curvature"].ok
    assert abs(audit["scalar-curvature"].measured - 4.0) < 1e-9
    dich = audit["mean-curvature-dichotomy"]
    assert dich.ok and "boundary case" in dich.note
    assert audit["second-fundamental-form-lower-bound"].ok


def test_quantity_audit_special_b2_values(catalog_reports):
    from conftest import chart_key
    torus = catalog_reports[chart_key("clifford-torus-b3", {"a": 0.5, "b": 0.5})]
    names = [a for a in torus.audit if a.name == "b-norm-special-value"]
    assert names and abs(names[0].measured - 6.0) < 1e-6
    veronese = catalog_reports[chart_key("veronese", {"r": ROOT2INV})]
    names = [a for a in veronese.audit if a.name == "b-norm-special-value"]
    assert names and abs(names[0].measured - 14.0 / 3.0) < 1e-6


@pytest.mark.parametrize("tag,params,expect_verdict,expect_H", [
    ("small-hypersphere", {"m": 4, "r": ROOT2INV}, VERDICT_PROPER, 1.0),
    ("small-hypersphere", {"m": 5, "r": ROOT2INV}, VERDICT_PROPER, 1.0),
    ("product-spheres", {"m1": 3, "m2": 3, "r1": ROOT2INV, "r2": ROOT2INV},
     VERDICT_MINIMAL, 0.0),
    ("product-spheres", {"m1": 1, "m2": 2, "r1": ROOT2INV, "r2": ROOT2INV},
     VERDICT_PROPER, 1.0 / 3.0),
    ("generalized-clifford", {"m1": 1, "m2": 5, "r1": ROOT2INV, "r2": ROOT2INV},
     VERDICT_PROPER, 2.0 / 3.0),
])
def test_higher_dimension_charts(tag, params, expect_verdict, expect_H):
    # dimensions beyond the acceptance set, including the five-variable jet
    # space; |H| = |m1 - m2| / m for the equal-radius products
    spec = catalog_chart(tag, params)
    rep = evaluate_chart(spec, samples=6, seed=2)
    assert rep.verdict == expect_verdict
    assert abs(rep.max_of("H_norm") - expect_H) < 1e-9


def test_curve_chart_full_pipeline():
    # the proper biharmonic circle S^1(1/sqrt(2)) in S^2: one-dimensional
    # domain, no scalar curvature, audit must still work
    spec = catalog_chart("small-hypersphere", {"m": 1, "r": ROOT2INV})
    rep = evaluate_chart(spec, samples=8, seed=1)
    assert rep.verdict == VERDICT_PROPER
    assert abs(rep.max_of("H_norm") - 1.0) < 1e-12
    assert abs(rep.max_of("A2") - 1.0) < 1e-12
    names = {a.name for a in rep.audit}
    assert "shape-operator-norm" in names
    assert "scalar-curvature" not in names
    assert "scalar_curvature" not in rep.quantities()


def test_quantity_audit_requires_proper_verdict(catalog_reports):
    from conftest import chart_key
    rep = catalog_reports[chart_key("small-hypersphere", {"m": 2, "r": 0.6})]
    with pytest.raises(ValueError):
        quantity_audit(rep)
