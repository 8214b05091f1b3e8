"""Shared fixtures: catalog residual reports and perturbed chart batteries.

The heavyweight catalog reports (64 samples, seed 42) are computed once per
session and shared between the unit suites and the acceptance suite.
"""

import math

import pytest

from bitension import biharmonic, chart

ROOT2INV = 1.0 / math.sqrt(2.0)

BIHARMONIC_CATALOG = [
    ("small-hypersphere", {"m": 2, "r": ROOT2INV}),
    ("small-hypersphere", {"m": 3, "r": ROOT2INV}),
    ("product-spheres", {"m1": 2, "m2": 1, "r1": ROOT2INV, "r2": ROOT2INV}),
    ("clifford-torus-b3", {"a": 0.5, "b": 0.5}),
    ("veronese", {"r": ROOT2INV}),
    ("generalized-clifford", {"m1": 2, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV}),
]

NEGATIVE_RADII = (0.5, 0.6, 0.9)

PERTURBED_HYPERSURFACE_SEEDS = tuple(range(100, 120))   # 20 charts
PERTURBED_CODIM2_SEEDS = (200, 201, 202, 203)


def chart_key(tag, params):
    return tag + "|" + ",".join(f"{k}={params[k]:.12g}" for k in sorted(params))


@pytest.fixture(scope="session")
def catalog_reports():
    """Full ResidualReports (64 samples, seed 42) for the canonical charts."""
    reports = {}
    for tag, params in BIHARMONIC_CATALOG:
        spec = chart.catalog_chart(tag, params)
        reports[chart_key(tag, params)] = biharmonic.evaluate_chart(
            spec, samples=64, seed=42
        )
    for r in NEGATIVE_RADII:
        spec = chart.catalog_chart("small-hypersphere", {"m": 2, "r": r})
        reports[chart_key("small-hypersphere", {"m": 2, "r": r})] = (
            biharmonic.evaluate_chart(spec, samples=64, seed=42)
        )
    spec = chart.catalog_chart("small-hypersphere", {"m": 2, "r": 1.0})
    reports[chart_key("small-hypersphere", {"m": 2, "r": 1.0})] = (
        biharmonic.evaluate_chart(spec, samples=64, seed=42)
    )
    return reports


@pytest.fixture(scope="session")
def perturbed_hypersurfaces():
    return [chart.perturbed_chart(s, base="sphere")
            for s in PERTURBED_HYPERSURFACE_SEEDS]


@pytest.fixture(scope="session")
def perturbed_codim2():
    return [chart.perturbed_chart(s, base="torus")
            for s in PERTURBED_CODIM2_SEEDS]


@pytest.fixture(scope="session")
def perturbed_reports(perturbed_hypersurfaces, perturbed_codim2):
    """Reports with 8 samples for every perturbed chart (criteria 6 and 7)."""
    out = {}
    for spec in perturbed_hypersurfaces + perturbed_codim2:
        out[spec.name] = biharmonic.evaluate_chart(spec, samples=8, seed=7)
    return out


@pytest.fixture(scope="session")
def perturbed_geometries(perturbed_hypersurfaces):
    """The geometry rows and the cubic form grad A (``identities.nabla_A``)
    of eight samples per perturbed hypersurface (criterion 7)."""
    from identities import nabla_A, rows_of

    out = {}
    for spec in perturbed_hypersurfaces:
        pts = chart.sample_points(spec, 8, 7)
        out[spec.name] = rows_of(spec, pts), nabla_A(spec, pts)
    return out
