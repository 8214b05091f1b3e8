"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion PASS/FAIL lines as they happen).
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import BIHARMONIC_CATALOG, NEGATIVE_RADII, chart_key
import identities
import oracle
from bitension import biharmonic, chart, cli, extrinsic, scan

ROOT2INV = 1.0 / math.sqrt(2.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {description}: FAIL")
        raise
    print(f"[criterion {number:2d}] {description}: PASS")


def test_criterion_1_catalog_biharmonicity(catalog_reports):
    with criterion(1, "catalog charts are proper biharmonic"):
        for tag, params in BIHARMONIC_CATALOG:
            rep = catalog_reports[chart_key(tag, params)]
            assert rep.samples_used == 64, rep.chart["name"]
            assert rep.max_of("tau2_norm") < 1e-6, rep.chart["name"]
            assert rep.verdict == "biharmonic-proper", rep.chart["name"]


def test_criterion_2_negative_controls(catalog_reports):
    with criterion(2, "off-locus radii fail, the equator is minimal"):
        for r in NEGATIVE_RADII:
            rep = catalog_reports[chart_key("small-hypersphere", {"m": 2, "r": r})]
            assert rep.max_of("tau2_norm") > 1e-3, r
            assert rep.verdict == "not-biharmonic", r
        rep = catalog_reports[chart_key("small-hypersphere", {"m": 2, "r": 1.0})]
        assert rep.verdict == "minimal"


def test_criterion_3_hypersurface_quantities(catalog_reports):
    with criterion(3, "|A|^2 = m, s = m^2(1+|H|^2) - 2m, |H| values"):
        expected_H = {
            chart_key("small-hypersphere", {"m": 2, "r": ROOT2INV}): 1.0,
            chart_key("small-hypersphere", {"m": 3, "r": ROOT2INV}): 1.0,
            chart_key("product-spheres",
                      {"m1": 2, "m2": 1, "r1": ROOT2INV, "r2": ROOT2INV}): 1 / 3,
            chart_key("generalized-clifford",
                      {"m1": 2, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV}): 1 / 3,
        }
        for tag, params in BIHARMONIC_CATALOG:
            rep = catalog_reports[chart_key(tag, params)]
            if not rep.hypersurface:
                continue
            m = rep.chart["m"]
            h = expected_H[chart_key(tag, params)]
            s_pred = m * m * (1.0 + h * h) - 2.0 * m
            for s in rep.per_sample:
                assert abs(s.A2 - m) < 1e-8, rep.chart["name"]
                assert abs(s.scalar_curvature - s_pred) < 1e-7, rep.chart["name"]
                assert abs(s.H_norm - h) < 1e-9, rep.chart["name"]


def test_criterion_4_second_fundamental_form_values(catalog_reports):
    with criterion(4, "|B|^2 = 6 (flat torus) and 14/3 (Veronese)"):
        torus = catalog_reports[chart_key("clifford-torus-b3",
                                          {"a": 0.5, "b": 0.5})]
        assert abs(torus.min_of("B2") - 6.0) < 1e-6
        assert abs(torus.max_of("B2") - 6.0) < 1e-6
        veronese = catalog_reports[chart_key("veronese", {"r": ROOT2INV})]
        assert abs(veronese.min_of("B2") - 14.0 / 3.0) < 1e-6
        assert abs(veronese.max_of("B2") - 14.0 / 3.0) < 1e-6


def test_criterion_5_scan_rigidity():
    with criterion(5, "family scans locate the rigidity radii"):
        fam = scan.FamilySpec(tag="small-hypersphere", param_name="r",
                              lo=0.3, hi=0.99, steps=200, fixed={"m": 2},
                              samples_per_point=6)
        res = scan.sweep(fam)
        assert len(res.roots) == 1
        assert abs(res.roots[0].param - 0.7071068) < 1e-6

        fam = scan.FamilySpec(tag="clifford-torus-b3", param_name="t",
                              lo=0.2, hi=0.69, steps=200, samples_per_point=6)
        res = scan.sweep(fam)
        assert len(res.roots) == 1
        assert abs(res.roots[0].param - 0.5) < 1e-6


def test_criterion_6_split_direct_equivalence(catalog_reports, perturbed_reports):
    with criterion(6, "split and direct bitension agree per sample"):
        reports = list(catalog_reports.values()) + list(perturbed_reports.values())
        assert len(reports) >= 30
        for rep in reports:
            for s in rep.per_sample:
                assert s.split_gap < 1e-7 * (1.0 + s.tau2_norm), rep.chart["name"]


def test_criterion_7_identity_suite(perturbed_geometries):
    with criterion(7, "Gauss-Ricci, grad-A symmetry, |A_H|^2 <= |H|^2 |B|^2"):
        assert len(perturbed_geometries) == 20
        for name, (g, grad_A) in perturbed_geometries.items():
            assert (identities.gauss_ricci_check(g) < 1e-6).all(), name
            sym, trace = identities.nabla_A_symmetry_check(g, grad_A)
            assert (sym < 1e-5).all() and (trace < 1e-5).all(), name
            assert (g.H2 * g.B2 - g.AH2 >= -1e-10).all(), name


def test_criterion_8_pmc_suite(catalog_reports):
    with criterion(8, "PMC system and the product eigenvalue structure"):
        key = chart_key("generalized-clifford",
                        {"m1": 2, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV})
        rep = catalog_reports[key]
        assert rep.pmc.parallel_norm < 1e-7
        assert rep.pmc.eq4_norm < 1e-6
        assert rep.pmc.eq5a < 1e-6 and rep.pmc.eq5b < 1e-6
        spec = chart.catalog_chart(
            "generalized-clifford",
            {"m1": 2, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV})
        ref = np.array([-1, -1, 1, 1, 1, 1]) / 3.0   # (m1-m2)/m with mult m1, m2
        for p in chart.sample_points(spec, 8, 42):
            g = extrinsic.compute_geometry(spec, p)
            eig = np.sort(np.linalg.eigvalsh(g.A_H))
            assert np.max(np.abs(eig - ref)) < 1e-7


ORACLE_CHARTS = [
    ("small-hypersphere", {"m": 2, "r": 0.8}),
    ("small-hypersphere", {"m": 3, "r": ROOT2INV}),
    ("product-spheres", {"m1": 2, "m2": 1, "r1": ROOT2INV, "r2": ROOT2INV}),
    ("clifford-torus-b3", {"a": 0.5, "b": 0.5}),
    None,  # perturbed hypersurface, seed 101
]


def test_criterion_9_oracle_agreement():
    with criterion(9, "jets match the finite-difference oracle (5 x 8)"):
        for entry in ORACLE_CHARTS:
            spec = (chart.perturbed_chart(101) if entry is None
                    else chart.catalog_chart(*entry))
            for p in chart.sample_points(spec, 8, 3):
                g = extrinsic.compute_geometry(spec, p)
                assert np.max(np.abs(
                    oracle.fd_mean_curvature(spec, p) - g.H)) < 1e-5, spec.name
                assert np.max(np.abs(
                    oracle.fd_second_fundamental_form(spec, p) - g.B_coord
                )) < 1e-5, spec.name
                if g.hypersurface:
                    df = oracle.fd_delta_f(spec, p, eta_ref=g.eta)
                    assert abs(df - g.delta_f) < 1e-5, spec.name


def test_criterion_10_determinism(tmp_path, capsys):
    with criterion(10, "identical configs produce byte-identical reports"):
        args = ["verify", "--catalog", "veronese",
                "--param", f"r={ROOT2INV!r}",
                "--points", "16", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["verdict"] == "biharmonic-proper"
