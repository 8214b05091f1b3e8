"""Extrinsic geometry against closed-form oracles, finite differences, and
the identity checks that hold for arbitrary immersions.

Closed-form references, derived by hand once and frozen here:

* small hypersphere S^m(r) in S^{m+1} (umbilical): shape eigenvalues are all
  sqrt(1-r^2)/r, so |H| = sqrt(1-r^2)/r, |A|^2 = m (1-r^2)/r^2, the intrinsic
  sectional curvature is 1/r^2 and s = m(m-1)/r^2;
* product S^{m1}(a) x S^{m2}(b) in S^{m+1} (a^2+b^2 = 1): shape eigenvalues
  -b/a (multiplicity m1) and a/b (multiplicity m2) up to overall orientation,
  so m|H| = |m2 a/b - m1 b/a| and |A|^2 = m1 b^2/a^2 + m2 a^2/b^2.
"""

import copy
import dataclasses
import gc
import itertools
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chart_docs
import oracle
from identities import gauss_ricci_check, nabla_A, nabla_A_symmetry_check, rows_of
from bitension import biharmonic, chart, cli, expr, extrinsic, jets, scan
from bitension.chart import catalog_chart, perturbed_chart, sample_points
from bitension.extrinsic import (
    GeometryError, compute_geometry, intrinsic_curvature, scalar_curvature,
)

ROOT2INV = 1.0 / math.sqrt(2.0)


def sphere_H(r):
    return math.sqrt(1.0 - r * r) / r


def sphere_A2(m, r):
    return m * (1.0 - r * r) / (r * r)


def geoms_of(tag, params, count=4, seed=11):
    spec = catalog_chart(tag, params)
    return spec, [compute_geometry(spec, p)
                  for p in sample_points(spec, count, seed)]


def curvature_of(tag, params, count=4, seed=11):
    """``intrinsic_curvature`` at the points of ``geoms_of``."""
    spec = catalog_chart(tag, params)
    return intrinsic_curvature(rows_of(spec, sample_points(spec, count, seed)))


# ---------------------------------------------------------------------------
# closed-form catalog values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,r", [(1, 0.6), (2, 0.6), (2, ROOT2INV), (3, 0.85)])
def test_small_hypersphere_closed_form(m, r):
    _, geoms = geoms_of("small-hypersphere", {"m": m, "r": r})
    for g in geoms:
        assert abs(g.H_norm - sphere_H(r)) < 1e-12
        assert abs(g.A2 - sphere_A2(m, r)) < 1e-11
        assert abs(g.f - sphere_H(r)) < 1e-12          # orientation: f >= 0
        assert abs(g.f * g.f - g.H2) < 1e-12
        assert g.B2 == pytest.approx(g.A2, abs=1e-11)  # codimension one
    if m >= 2:
        curv = curvature_of("small-hypersphere", {"m": m, "r": r})
        K = 1.0 / (r * r)
        assert np.all(np.abs(curv.sectional[:, 0, 1] - K) < 1e-9)
        assert np.all(np.abs(curv.scalar - m * (m - 1) * K) < 1e-8)


@pytest.mark.parametrize("m1,m2,a", [(2, 1, ROOT2INV), (1, 2, 0.6), (1, 1, 0.8)])
def test_product_spheres_closed_form(m1, m2, a):
    b = math.sqrt(1.0 - a * a)
    _, geoms = geoms_of("product-spheres",
                        {"m1": m1, "m2": m2, "r1": a, "r2": b})
    m = m1 + m2
    f_ref = abs(m2 * a / b - m1 * b / a) / m
    eig_ref = sorted([-b / a] * m1 + [a / b] * m2)
    for g in geoms:
        assert abs(g.H_norm - f_ref) < 1e-12
        assert abs(g.A2 - (m1 * b * b / (a * a) + m2 * a * a / (b * b))) < 1e-11
        eig = np.sort(np.linalg.eigvalsh(g.A))
        match = (np.allclose(eig, eig_ref, atol=1e-10)
                 or np.allclose(eig, sorted(-x for x in eig_ref), atol=1e-10))
        assert match, f"shape eigenvalues {eig} vs {eig_ref}"


def _closed_form_cases():
    """(tag, params, m, |H|, |A|^2, s) for S^m(r), m = 1..6, and for
    S^{m1}(r1) x S^{m2}(r2) up to m = 6."""
    for m, r in itertools.product(range(1, 7), (0.5, ROOT2INV, 0.9)):
        yield ("small-hypersphere", {"m": m, "r": r}, m, math.sqrt(1 - r * r) / r,
               m * (1 - r * r) / (r * r), m * (m - 1) / (r * r))
    for (m1, m2), r1 in itertools.product(
            [(1, 1), (2, 1), (1, 3), (2, 2), (1, 4), (2, 4), (3, 3)], (0.6, ROOT2INV)):
        r2, m = math.sqrt(1 - r1 * r1), m1 + m2
        yield ("product-spheres", {"m1": m1, "m2": m2, "r1": r1, "r2": r2}, m,
               abs(m1 * r2 / r1 - m2 * r1 / r2) / m,
               m1 * r2 * r2 / (r1 * r1) + m2 * r1 * r1 / (r2 * r2),
               m1 * (m1 - 1) / (r1 * r1) + m2 * (m2 - 1) / (r2 * r2))


CLOSED_FORM_CASES = list(_closed_form_cases())


@pytest.mark.parametrize("tag,params,m,H,A2,s", CLOSED_FORM_CASES, ids=[
    "-".join([c[0], *(f"{k}={v:.4g}" for k, v in c[1].items())]) for c in CLOSED_FORM_CASES])
def test_catalog_closed_forms_m1_to_6(tag, params, m, H, A2, s):
    # |H|, |A|^2, the scalar curvature and the split residuals at every
    # sample: for these CMC hypersurfaces the normal part is |H| (|A|^2 - m)
    # and the tangent part 0 (the direct tau2 at m >= 4 waits for extended
    # precision; it reads 2.1e-5 at m = 6, r = 1/sqrt(2))
    spec = catalog_chart(tag, params)
    pts = sample_points(spec, 64 if m <= 3 else 8, 13)
    bounds = {"H": 1e-13, "A2": 1e-13, "s": 1e-9, "normal": 1e-8, "tangent": 1e-10}
    for block in extrinsic.sample_blocks(spec, pts):
        assert block.errors == [None] * len(block)
        g = block.rows(range(len(block)))
        normal, tangent = biharmonic.split_residuals(g)
        got = {"H": (g.H_norm, H), "A2": (g.A2, A2),
               "normal": (np.linalg.norm(normal, axis=-1), H * abs(A2 - m)),
               "tangent": (np.linalg.norm(tangent, axis=-1), 0.0)}
        if m >= 2:
            got["s"] = (scalar_curvature(g), s)
        for name, (value, exact) in got.items():
            assert np.all(np.abs(value - exact) / max(1.0, abs(exact)) < bounds[name]), name


def test_minimal_product_spheres():
    # H = 0 exactly when a^2 = m1/m
    m1, m2 = 2, 1
    a = math.sqrt(m1 / 3.0)
    _, geoms = geoms_of("product-spheres",
                        {"m1": m1, "m2": m2, "r1": a, "r2": math.sqrt(1 - a * a)})
    for g in geoms:
        assert g.H_norm < 1e-13


def test_equator_totally_geodesic():
    _, geoms = geoms_of("small-hypersphere", {"m": 2, "r": 1.0})
    for g in geoms:
        assert g.H_norm < 1e-13
        assert np.max(np.abs(g.B_coord)) < 1e-12
    ricci = curvature_of("small-hypersphere", {"m": 2, "r": 1.0}).ricci
    np.testing.assert_allclose(ricci, np.broadcast_to(np.eye(2), ricci.shape), atol=1e-9)


def test_veronese_metric_and_curvature():
    # induced metric is the round metric of radius sqrt(3) r; K = 1/(3 r^2)
    r = 0.8
    K = curvature_of("veronese", {"r": r}).sectional[:, 0, 1]
    assert len(K) == 4 and np.all(np.abs(K - 1.0 / (3 * r * r)) < 1e-9)


# ---------------------------------------------------------------------------
# PointGeometry invariants on every catalog chart
# ---------------------------------------------------------------------------

INVARIANT_CHARTS = [
    ("small-hypersphere", {"m": 2, "r": 0.75}),
    ("small-hypersphere", {"m": 3, "r": ROOT2INV}),
    ("product-spheres", {"m1": 2, "m2": 1, "r1": ROOT2INV, "r2": ROOT2INV}),
    ("generalized-clifford", {"m1": 2, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV}),
    ("clifford-torus-b3", {"a": 0.5, "b": 0.5}),
    ("clifford-torus-b3", {"a": 0.3, "b": 0.6}),
    ("veronese", {"r": ROOT2INV}),
]


@pytest.mark.parametrize("tag,params", INVARIANT_CHARTS)
def test_point_geometry_invariants(tag, params):
    _, geoms = geoms_of(tag, params, count=4)
    for g in geoms:
        # frames: orthonormal, normal to phi and to the tangent space
        frames = np.vstack([g.tangent_frame, g.normal_frame])
        gram = frames @ frames.T
        np.testing.assert_allclose(gram, np.eye(len(frames)), atol=1e-10)
        assert np.max(np.abs(g.normal_frame @ g.phi)) < 1e-10
        assert np.max(np.abs(g.normal_frame @ g.jac.T)) < 1e-10
        # B symmetric, normal-valued
        np.testing.assert_allclose(g.B_coord, g.B_coord.transpose(1, 0, 2),
                                   atol=1e-9)
        assert np.max(np.abs(np.einsum("ijc,kc->ijk", g.B_coord, g.jac))) < 1e-9
        assert np.max(np.abs(np.einsum("ijc,c->ij", g.B_coord, g.phi))) < 1e-9
        # A_xi symmetric = g-self-adjointness in the orthonormal frame
        np.testing.assert_allclose(g.B_frame, g.B_frame.transpose(0, 2, 1),
                                   atol=1e-9)
        # H = trace_g B / m
        H_ref = np.einsum("ij,ijc->c", g.metric_inv, g.B_coord) / g.m
        np.testing.assert_allclose(g.H, H_ref, atol=1e-10)
        # H normal to M, tangent to the sphere
        assert abs(np.dot(g.H, g.phi)) < 1e-10
        assert np.max(np.abs(g.jac @ g.H)) < 1e-9
        if g.hypersurface:
            assert abs(g.AH2 - g.H2 * g.A2) < 1e-9 * (1 + g.A2)
            assert abs(g.f ** 2 - g.H2) < 1e-10
            # the frame's one normal is the unit normal eta, and A its B_frame
            assert np.array_equal(g.normal_frame[0], g.eta)
            assert np.array_equal(g.B_frame[0], g.A)


def test_point_geometry_is_frozen():
    _, (g,) = geoms_of("small-hypersphere", {"m": 2, "r": 0.75}, count=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.H_norm = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.B_frame = np.zeros_like(g.B_frame)
    with pytest.raises(ValueError):
        g.B_frame[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        g.A[0, 0] = 0.0


def point_fields(g):
    """The names of the fields a ``PointGeometry`` holds: all but m, n and
    the hypersurface fields it leaves None."""
    return [f.name for f in dataclasses.fields(extrinsic.PointGeometry)
            if f.name not in ("m", "n") and getattr(g, f.name) is not None]


def stacked_block(block, index):
    """A ``GeometryBlock`` rebuilt field by field from the ``PointGeometry``
    of each point of ``index``: every field ``np.array`` of their values."""
    names = point_fields(block[index[0]])
    return extrinsic.GeometryBlock(
        block.m, block.n, {k: np.array([getattr(block[p], k) for p in index]) for k in names},
        [None] * len(index))


def test_intrinsic_curvature_reads_only_declared_fields():
    # every input of intrinsic_curvature is a public field, so copies and
    # field-by-field rebuilds give bit-identical curvature
    spec = catalog_chart("generalized-clifford",
                         {"m1": 2, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV})
    block = extrinsic.geometry_block(spec, sample_points(spec, 2, 11))
    g = block.rows([0, 1])
    assert not [f.name for f in dataclasses.fields(block[0]) if f.name.startswith("_")]
    ref = intrinsic_curvature(g)
    for other in (copy.deepcopy(g), stacked_block(block, [0, 1])):
        curv = intrinsic_curvature(other)
        assert curv.scalar.tobytes() == ref.scalar.tobytes()
        assert scalar_curvature(other).tobytes() == ref.scalar.tobytes()
        for name in ("riemann", "ricci", "sectional"):
            assert np.array_equal(getattr(curv, name), getattr(ref, name))


# ---------------------------------------------------------------------------
# identity checks: Gauss-Ricci, grad A, curvature symmetries, Lemma 4.1
# ---------------------------------------------------------------------------


def test_gauss_ricci_catalog_hypersurfaces():
    for tag, params in INVARIANT_CHARTS:
        spec = catalog_chart(tag, params)
        if spec.n != spec.m + 1:
            continue
        assert np.all(gauss_ricci_check(rows_of(spec, sample_points(spec, 4, 3))) < 1e-7)


def test_gauss_ricci_perturbed():
    for seed in (21, 22, 23):
        spec = perturbed_chart(seed)
        assert np.all(gauss_ricci_check(rows_of(spec, sample_points(spec, 4, 3))) < 1e-6)


def test_gauss_ricci_requires_hypersurface():
    spec = catalog_chart("veronese", {"r": 0.8})
    pts = sample_points(spec, 1, 0)
    with pytest.raises(GeometryError):
        gauss_ricci_check(rows_of(spec, pts))
    with pytest.raises(GeometryError):
        nabla_A(spec, pts)


def test_nabla_A_symmetry_catalog():
    for tag, params in INVARIANT_CHARTS:
        spec = catalog_chart(tag, params)
        if spec.n != spec.m + 1:
            continue
        pts = sample_points(spec, 3, 5)
        g, grad_A = rows_of(spec, pts), nabla_A(spec, pts)
        sym, trace = nabla_A_symmetry_check(g, grad_A)
        assert np.all(sym < 1e-6) and np.all(trace < 1e-6)
        # CMC charts: trace(grad A) and grad f vanish separately
        assert np.all(np.linalg.norm(grad_A[1], axis=-1) < 1e-9)
        assert np.all(np.linalg.norm(g.grad_f, axis=-1) < 1e-10)


def test_nabla_A_symmetry_perturbed_with_fd_cross_check():
    spec = perturbed_chart(31)
    pts = sample_points(spec, 3, 5)
    rows, grad_A = rows_of(spec, pts), nabla_A(spec, pts)
    sym, trace = nabla_A_symmetry_check(rows, grad_A)
    assert np.all(sym < 1e-5) and np.all(trace < 1e-5)
    assert np.all(np.linalg.norm(rows.grad_f, axis=-1) > 1e-4)     # genuinely non-CMC
    g = compute_geometry(spec, pts[0])
    s_fd = oracle.fd_nabla_A(spec, pts[0], eta_ref=g.eta, frame=g.tangent_frame)
    assert np.max(np.abs(s_fd - grad_A[0][0])) < 1e-8


def test_riemann_symmetries_and_bianchi():
    for spec in (perturbed_chart(41), catalog_chart("veronese", {"r": 0.9})):
        R = intrinsic_curvature(rows_of(spec, sample_points(spec, 3, 2))).riemann
        assert R.shape == (3,) + (spec.m,) * 4
        assert np.max(np.abs(R + R.transpose(0, 2, 1, 3, 4))) < 1e-8
        assert np.max(np.abs(R + R.transpose(0, 1, 2, 4, 3))) < 1e-8
        assert np.max(np.abs(R - R.transpose(0, 3, 4, 1, 2))) < 1e-8
        # first Bianchi on the operator tensor R4[i,j,k,l] = R[i,j,l,k]
        R4 = R.transpose(0, 1, 2, 4, 3)
        bianchi = R4 + R4.transpose(0, 2, 3, 1, 4) + R4.transpose(0, 3, 1, 2, 4)
        assert np.max(np.abs(bianchi)) < 1e-8


def test_scalar_is_trace_of_ricci():
    spec = perturbed_chart(47)
    curv = intrinsic_curvature(rows_of(spec, sample_points(spec, 1, 1)))
    [scalar], [ricci] = curv.scalar, curv.ricci
    assert abs(scalar - np.trace(ricci)) < 1e-12
    assert abs(curv.sectional[0, 0, 1] - curv.riemann[0, 0, 1, 0, 1]) < 1e-14


def bumped_hypersphere(m):
    """A generic hypersurface for any m: S^m(0.8) in S^{m+1}, each component
    plus a low-frequency sine, radially renormalized."""
    base = catalog_chart("small-hypersphere", {"m": m, "r": 0.8})
    comps = [expr.to_string(c) for c in base.components]
    comps = [f"{c} + {0.03 * (1 + 0.3 * k)!r} * sin(u{k % m + 1} + 2.0 * u{(k + 1) % m + 1}"
             f" + {0.7 * k!r})" for k, c in enumerate(comps)]
    return chart.ChartSpec(name=f"bumped-hypersphere-{m}", m=m, n=m + 1,
                           components=comps, domain=base.domain, params=base.params,
                           normalize=True)


CURVATURE_CHARTS = (
    [catalog_chart("small-hypersphere", {"m": m, "r": 0.75}) for m in range(2, 7)]
    + [catalog_chart("product-spheres",
                     {"m1": 1, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV}),
       catalog_chart("generalized-clifford", {"m1": 2, "m2": 4, "r1": 0.6, "r2": 0.8}),
       catalog_chart("veronese", {"r": 0.9}),
       perturbed_chart(61), perturbed_chart(62, base="torus")]
    + [bumped_hypersphere(m) for m in range(3, 7)]
)


def frame_riemann_loop(E, Rm, a, b, c, d):
    """R4f[a,b,c,d] summed term by term in (i, j, k, w) order from zero."""
    m = len(E)
    total = 0.0
    for i, j, k, w in itertools.product(range(m), repeat=4):
        total += E[a][i] * E[b][j] * E[c][k] * E[d][w] * Rm[i][j][k][w]
    return total


@pytest.mark.parametrize("spec", CURVATURE_CHARTS, ids=lambda s: s.name)
def test_scalar_curvature_exact(spec):
    # the reports read scalar_curvature; it must equal the full-tensor scalar
    # bit for bit, and the frame entries must follow the documented order
    for p in sample_points(spec, 3, 7):
        one = rows_of(spec, [p])
        assert scalar_curvature(one).tobytes() == intrinsic_curvature(one).scalar.tobytes()
        [Rm] = extrinsic._coord_riemann(one)
        m, [E], idx = one.m, one.frame_coeff, np.indices((one.m,) * 4)
        [R4f] = extrinsic._frame_riemann(one, *idx)
        if m <= 3:
            ref = [frame_riemann_loop(E.tolist(), Rm.tolist(), *abcd)
                   for abcd in zip(*(i.ravel() for i in idx))]
            assert np.array_equal(R4f.ravel(), ref)
        # numpy's own summation order is not part of the contract: a
        # rounding-level tolerance (entries that cancel to ~0 need atol)
        full = np.einsum("ai,bj,ck,dw,ijkw->abcd", E, E, E, E, Rm)
        np.testing.assert_allclose(R4f, full, rtol=1e-13,
                                   atol=1e-13 * np.abs(full).max())


def test_lemma_4_1_inequality_and_equality_cases():
    charts = [catalog_chart(t, p) for t, p in INVARIANT_CHARTS]
    charts += [perturbed_chart(s) for s in (51, 52)]
    charts += [perturbed_chart(s, base="torus") for s in (53,)]
    for spec in charts:
        for p in sample_points(spec, 4, 9):
            g = compute_geometry(spec, p)
            slack = g.H2 * g.B2 - g.AH2
            assert slack >= -1e-10
            if g.hypersurface:
                assert abs(slack) < 1e-8 * (1 + g.B2)


def test_lemma_4_1_equality_for_spanned_first_normal():
    # S^2(r) in S^3 padded into S^4: codimension 2 with B spanned by H
    r = 0.8
    base = catalog_chart("small-hypersphere", {"m": 2, "r": r})
    from bitension.expr import to_string
    doc = {
        "name": "padded-sphere", "m": 2, "n": 4,
        "expressions": [to_string(c) for c in base.components] + ["0.0"],
        "domain": [list(iv) for iv in base.domain],
        "params": base.params,
    }
    spec = chart.parse_chart(doc)
    for p in sample_points(spec, 4, 9):
        g = compute_geometry(spec, p)
        assert not g.hypersurface
        assert abs(g.H2 * g.B2 - g.AH2) < 1e-10
    # the flat torus is pseudo-umbilical but its first normal is not spanned
    # by H: strict inequality
    spec = catalog_chart("clifford-torus-b3", {"a": 0.5, "b": 0.5})
    g = compute_geometry(spec, sample_points(spec, 1, 0)[0])
    assert g.H2 * g.B2 - g.AH2 > 1.0


def test_b3_pseudo_umbilical():
    for tag, params in [("clifford-torus-b3", {"a": 0.5, "b": 0.5}),
                        ("veronese", {"r": ROOT2INV})]:
        _, geoms = geoms_of(tag, params)
        for g in geoms:
            np.testing.assert_allclose(g.A_H, g.H2 * np.eye(g.m), atol=1e-8)
            assert abs(g.H_norm - 1.0) < 1e-9


def test_b4_shape_operator_eigenvalues():
    _, geoms = geoms_of("generalized-clifford",
                        {"m1": 2, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV})
    ref = np.array([-1, -1, 1, 1, 1, 1]) / 3.0
    for g in geoms:
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(g.A_H)), ref,
                                   atol=1e-10)
        assert abs(g.H_norm - 1.0 / 3.0) < 1e-12


# ---------------------------------------------------------------------------
# finite-difference oracle agreement (unit-scale; the acceptance suite
# runs the full 5 x 8 matrix)
# ---------------------------------------------------------------------------


def test_fd_oracle_agreement():
    for spec in (catalog_chart("small-hypersphere", {"m": 2, "r": 0.8}),
                 perturbed_chart(61)):
        for p in sample_points(spec, 2, 13):
            g = compute_geometry(spec, p)
            assert np.max(np.abs(oracle.fd_mean_curvature(spec, p) - g.H)) < 1e-5
            assert np.max(np.abs(
                oracle.fd_second_fundamental_form(spec, p) - g.B_coord)) < 1e-5


@pytest.mark.parametrize("tag,params", [
    ("generalized-clifford", {"m1": 2, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV}),
    ("product-spheres", {"m1": 1, "m2": 4, "r1": ROOT2INV, "r2": ROOT2INV}),
])
def test_fd_oracle_agreement_high_dimension(tag, params):
    # m = 6 and m = 5: the oracle's generic metric inverse covers every m
    spec = catalog_chart(tag, params)
    for p in sample_points(spec, 3, 3):
        g = compute_geometry(spec, p)
        assert np.max(np.abs(oracle.fd_mean_curvature(spec, p) - g.H)) < 1e-6
        assert np.max(np.abs(
            oracle.fd_second_fundamental_form(spec, p) - g.B_coord)) < 1e-6


def test_fd_delta_f_agreement():
    spec = perturbed_chart(62)
    p = sample_points(spec, 1, 3)[0]
    g = compute_geometry(spec, p)
    assert abs(oracle.fd_delta_f(spec, p, eta_ref=g.eta) - g.delta_f) < 1e-8


def test_delta_perp_consistency_codim1():
    # in codimension one the normal Laplacian reduces to (Delta f) eta
    spec = perturbed_chart(63)
    g = compute_geometry(spec, sample_points(spec, 1, 5)[0])
    np.testing.assert_allclose(g.delta_perp_H, g.delta_f * g.eta, atol=1e-9)


# ---------------------------------------------------------------------------
# orientation covariance and failure modes
# ---------------------------------------------------------------------------


# the hypersurface fields that change sign with the unit normal eta
ORIENTATION_ODD = ("eta", "normal_frame", "B_frame", "A", "f", "grad_f", "delta_f")


def test_orientation_covariance():
    # the paper fixes no orientation; the program orients eta along H, and
    # every check must agree on the geometry with the opposite normal
    spec = perturbed_chart(64)
    pts = sample_points(spec, 1, 2)
    g1 = rows_of(spec, pts)
    assert g1.f[0] > 0.0
    g2 = extrinsic.GeometryBlock(g1.m, g1.n, {
        k: -getattr(g1, k) if k in ORIENTATION_ODD else getattr(g1, k)
        for k in point_fields(g1[0])}, g1.errors)
    assert abs(g1.f[0] + g2.f[0]) < 1e-13               # f flips sign
    np.testing.assert_allclose(g1.eta, -g2.eta, atol=1e-13)
    r1 = biharmonic.hypersurface_residuals(g1)
    r2 = biharmonic.hypersurface_residuals(g2)
    np.testing.assert_allclose(r1, r2, atol=1e-12)
    # grad A is odd in eta too
    S, trace_nabla_A = nabla_A(spec, pts)
    np.testing.assert_allclose(nabla_A_symmetry_check(g1, (S, trace_nabla_A)),
                               nabla_A_symmetry_check(g2, (-S, -trace_nabla_A)), atol=1e-12)
    assert np.max(np.abs(gauss_ricci_check(g1) - gauss_ricci_check(g2))) < 1e-12
    np.testing.assert_allclose(g1.delta_H, g2.delta_H, atol=1e-12)


def test_rank_deficient_chart_rejected():
    doc = {
        "name": "degenerate", "m": 2, "n": 3,
        "expressions": [
            f"{ROOT2INV!r} * cos(u1 + u2)", f"{ROOT2INV!r} * sin(u1 + u2)",
            f"{ROOT2INV!r}", "0.0",
        ],
        "domain": [[0.0, 6.28], [0.0, 6.28]],
    }
    spec = chart.parse_chart(doc)
    with pytest.raises(GeometryError, match="rank"):
        compute_geometry(spec, [1.0, 1.0])


def test_ill_conditioned_metric_guard():
    # nearly collapsed second coordinate: metric condition about 2.7e11, past
    # 1 / RANK_TOL, so the shipped tolerance rejects the point as rank-deficient
    eps = 2e-6
    doc = {
        "name": "squashed", "m": 2, "n": 3,
        "expressions": [
            f"0.8 * sin(u1) * cos({eps!r} * u2)",
            f"0.8 * sin(u1) * sin({eps!r} * u2)",
            "0.8 * cos(u1)",
            "0.6",
        ],
        "domain": [[0.0, 3.14], [0.0, 6.28]],
    }
    spec = chart.parse_chart(doc)
    point = [1.3, 3.0]
    stack, sp, _ = chart.eval_jet_stack(spec, [point])
    jac = stack[0][:, sp.var_pos].T
    eig = np.linalg.eigvalsh(jac @ jac.T)
    assert eig[-1] / eig[0] > 1.0 / extrinsic.RANK_TOL
    with pytest.raises(GeometryError, match="^rank-deficient differential"):
        compute_geometry(spec, point)


def test_off_sphere_chart_rejected():
    doc = {
        "name": "off-sphere", "m": 1, "n": 2,
        "expressions": ["1.1 * cos(u1)", "1.1 * sin(u1)", "0.0"],
        "domain": [[0.0, 6.28]],
    }
    spec = chart.parse_chart(doc)
    with pytest.raises(GeometryError, match="unit sphere"):
        compute_geometry(spec, [1.0])


@pytest.mark.parametrize("component", [
    "sin(u1) * 1e200 * 1e200 * cos(u2)",     # jets overflow to inf / NaN
    "1 / (1e-200 + (u1 - 1)^2)",             # the exact recip jet overflows a float
])
def test_non_finite_chart_rejected(component):
    doc = {
        "name": "overflow", "m": 2, "n": 3,
        "expressions": [component, "sin(u1) * sin(u2)", "cos(u1)", "0.5"],
        "domain": [[0.0, 3.14159], [0.0, 6.28318]],
        "normalize": True,
    }
    spec = chart.parse_chart(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError, match="non-finite"):
            compute_geometry(spec, [1.0, 2.0])


def test_tiny_sqrt_component_finite_in_block_and_alone():
    # sqrt(c0 + h) with c0 ~ 1e-120: the series at c0 has infinite degree-3
    # and degree-4 coefficients, so it is composed as sqrt(c0) sqrt(1 + h/c0);
    # the block and every one-point call give finite jets of the unit S^2
    doc = {
        "name": "tiny-sqrt", "m": 2, "n": 3,
        "expressions": ["sin(u1) * cos(u2)", "sin(u1) * sin(u2)", "cos(u1)",
                        "sqrt(1e-120 * (2 + sin(u2)))"],
        "domain": [[0.0, 3.14159], [0.0, 6.28318]],
        "normalize": True,
    }
    spec = chart.parse_chart(doc)
    pts = sample_points(spec, 5, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack, sp, _ = chart.eval_jet_stack(spec, pts)
    assert np.isfinite(stack).all()
    value = np.sqrt(1e-120 * (2.0 + np.sin(pts[:, 1])))
    np.testing.assert_allclose(stack[:, 3, 0], value, rtol=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = extrinsic.geometry_block(spec, pts)
        for p, g in zip(pts, block):
            alone = compute_geometry(spec, p)
            assert np.array_equal(alone.H, g.H)
            assert g.H_norm < 1e-12 and np.max(np.abs(g.B_coord)) < 1e-12
    report = biharmonic.evaluate_chart(spec, samples=8, seed=3)
    assert report.verdict == "minimal" and report.samples_used == 8


# ---------------------------------------------------------------------------
# the stacked normal projection keeps the per-index summation order
# ---------------------------------------------------------------------------


def _project_normal_per_index(sp, Phi, dPhi, ginvJ, V, order):
    """The projection of one ambient field, one (k, l) term per kernel call."""
    out = sp.cut(V, order) - sp.mul(sp.dot(V, Phi, order), Phi, order)
    for k in range(dPhi.shape[0]):
        c = sp.dot(V, dPhi[k], order)
        for l in range(dPhi.shape[0]):
            out = out - sp.mul(sp.mul(ginvJ[k, l], c, order), dPhi[l], order)
    return out


@pytest.mark.parametrize("m", range(1, jets.MAX_VARS + 1))
def test_project_normal_jets_stacked_equals_per_slice(m):
    # a block of two points, each with m ambient fields
    sp = jets.space(m)
    rng = np.random.default_rng(500 + m)
    n1 = m + 2
    Phi = rng.standard_normal((2, n1, sp.size))
    dPhi = rng.standard_normal((2, m, n1, sp.size))
    ginvJ = rng.standard_normal((2, m, m, sp.size))
    V = rng.standard_normal((2, m, n1, sp.size))
    for order in range(1, jets.ORDER + 1):
        stacked = extrinsic._project_normal_jets(sp, Phi, dPhi, ginvJ, V, order)
        per_slice = [extrinsic._project_normal_jets(sp, Phi, dPhi, ginvJ, V[:, f], order)
                     for f in range(m)]
        per_index = [[_project_normal_per_index(sp, Phi[p], dPhi[p], ginvJ[p], v, order)
                      for v in V[p]] for p in range(2)]
        assert np.array_equal(stacked, np.stack(per_slice, axis=1))
        assert np.array_equal(stacked, np.array(per_index))


# ---------------------------------------------------------------------------
# the point-block core: bit-identical to one-point evaluation
# ---------------------------------------------------------------------------

# S^2(1/2) x S^2(1/2) x {1/sqrt(2)} in S^6: proper biharmonic with |H| = 1
S2_S2_DOC = {
    "name": "S2(1/2) x S2(1/2) x {1/sqrt(2)}", "m": 4, "n": 6,
    "expressions": ["0.5 * sin(u1) * cos(u2)", "0.5 * sin(u1) * sin(u2)", "0.5 * cos(u1)",
                    "0.5 * sin(u3) * cos(u4)", "0.5 * sin(u3) * sin(u4)", "0.5 * cos(u3)",
                    repr(ROOT2INV)],
    "domain": [[0.0, math.pi], [0.0, 2.0 * math.pi]] * 2,
}

BLOCK_CHARTS = (
    [bumped_hypersphere(m) for m in range(1, 7)]
    + [catalog_chart("small-hypersphere", {"m": 3, "r": 0.7}),
       catalog_chart("clifford-torus-b3", {"a": 0.5, "b": 0.45}),
       catalog_chart("veronese", {"r": 0.8}),
       catalog_chart("product-spheres", {"m1": 2, "m2": 1, "r1": 0.8, "r2": 0.6}),
       catalog_chart("generalized-clifford", {"m1": 2, "m2": 4, "r1": 0.6, "r2": 0.8}),
       perturbed_chart(71), perturbed_chart(72, base="torus"),
       # m = 4 in codimension 2: the normal-frame pick, B_frame and PMC
       chart.parse_chart(S2_S2_DOC)]
)


def assert_same_geometry(g, ref):
    """Every field equal to the bit, arrays also in the same memory layout
    (per-point einsums over a field sum in a layout-dependent order)."""
    for f in dataclasses.fields(ref):
        a, b = getattr(g, f.name), getattr(ref, f.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
            long_axes = [(s, n) for s, n in zip(b.strides, b.shape) if n > 1]
            assert [(s, n) for s, n in zip(a.strides, a.shape) if n > 1] == long_axes, f.name
        elif b is None:
            assert a is None, f.name
        else:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


def assert_same_scalar_curvature(block, ref):
    """The scalar curvature of the rows of ``block``'s good points, bit for
    bit ``ref``, that of each point's one-point block."""
    good = [p for p, e in enumerate(block.errors) if e is None]
    if block.m >= 2 and good:
        got = scalar_curvature(block.rows(good))
        assert got.tobytes() == np.array([ref[p] for p in good]).tobytes()


def sampled(spec, pts):
    """Each point's entry of the blocks of ``sample_blocks``, in order."""
    return [g for block in extrinsic.sample_blocks(spec, pts) for g in block]


def antipodal(spec):
    """The chart -phi.  Its normal spaces, and so each point's unit normal,
    are those of phi, but H changes sign: the orientation rule takes its
    other branch at every hypersurface point where H does not vanish."""
    return chart.ChartSpec(name=spec.name, m=spec.m, n=spec.n,
                           components=[f"-({expr.to_string(c)})" for c in spec.components],
                           domain=spec.domain, params=spec.params, normalize=spec.normalize)


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("spec", BLOCK_CHARTS, ids=lambda s: s.name)
def test_geometry_block_equals_point_by_point(spec, mirror):
    # 37 points: one full block of 32 and a partial one at m <= 3
    if mirror:
        spec = antipodal(spec)
    pts = sample_points(spec, 37 if spec.m <= 3 else 3, 5)
    ones = [extrinsic.geometry_block(spec, [p]) for p in pts]
    ref = [one[0] for one in ones]
    ref_scalar = [scalar_curvature(one.rows([0]))[0] if spec.m >= 2 else None for one in ones]
    whole = extrinsic.geometry_block(spec, pts)
    parts = list(extrinsic.sample_blocks(spec, pts))
    for got in (whole, [g for block in parts for g in block]):
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_same_geometry(g, r)
    assert_same_scalar_curvature(whole, ref_scalar)
    start = 0
    for block in parts:
        assert_same_scalar_curvature(block, ref_scalar[start:start + len(block)])
        start += len(block)


@pytest.mark.parametrize("spec", [s for s in BLOCK_CHARTS if s.m <= 2], ids=lambda s: s.name)
def test_blocks_of_64_equal_point_by_point(spec):
    # 69 points at m <= 2: one full block of 64 and a partial one, from two
    # chart passes
    pts = sample_points(spec, 69, 5)
    parts = list(extrinsic.sample_blocks(spec, pts))
    assert [len(block) for block in parts] == [64, 5]
    for g, p in zip([g for block in parts for g in block], pts):
        assert_same_geometry(g, extrinsic.geometry_block(spec, [p])[0])


@pytest.mark.parametrize("spec", BLOCK_CHARTS, ids=lambda s: s.name)
def test_block_rows_equal_stacked_points(spec):
    # rows(idx) holds each field as its points' values stacked: the bytes,
    # dtype, shape and strides of np.array of their list, for all the good
    # points and for a subset of them
    pts = sample_points(spec, 37 if spec.m <= 3 else 3, 5)
    block = extrinsic.geometry_block(spec, pts)
    good = [p for p, e in enumerate(block.errors) if e is None]
    assert good == list(range(len(pts)))
    for index in (good, good[1::2]):
        rows, stacked = block.rows(index), stacked_block(block, index)
        assert len(rows) == len(index) and rows.errors == [None] * len(index)
        assert (rows.m, rows.n) == (spec.m, spec.n)
        for name in point_fields(block[good[0]]):
            got, ref = getattr(rows, name), getattr(stacked, name)
            assert (got.dtype, got.shape, got.strides) == (ref.dtype, ref.shape, ref.strides), name
            assert got.tobytes() == ref.tobytes(), name


def test_block_size_rule():
    assert [extrinsic.block_size(m) for m in range(1, 7)] == [64, 64, 32, 8, 8, 4]
    # one chart pass serves whole blocks
    assert all(extrinsic.CHART_RUN % extrinsic.block_size(m) == 0 for m in range(1, 7))


@pytest.mark.parametrize("spec", [bumped_hypersphere(4), bumped_hypersphere(5),
                                  chart.parse_chart(S2_S2_DOC)], ids=lambda s: s.name)
def test_sample_geometries_in_blocks_of_eight(spec):
    # 11 points at m = 4, 5: sample_blocks makes a full block of 8 and a
    # partial one, with a point outside the safe region (the box corner) in
    # the second block
    pts = sample_points(spec, 11, 5)
    pts[9] = [lo for lo, _ in spec.domain]
    refs = [one_point_outcome(spec, p) for p in pts]
    assert [i for i, r in enumerate(refs) if isinstance(r, Exception)] == [9]
    assert [len(block) for block in extrinsic.sample_blocks(spec, pts)] == [8, 3]
    got = sampled(spec, pts)
    assert len(got) == len(refs)
    for g, ref in zip(got, refs):
        assert_same_outcome(g, ref)


# ---------------------------------------------------------------------------
# order-trimmed jet stages: each equals its deeper, untrimmed version on
# every coefficient its readers use
# ---------------------------------------------------------------------------


def _hypersurface_jets_untrimmed(sp, Phi, dPhi, ginvJ, HJ, c_star):
    """``_hypersurface_jets`` at its untrimmed order: eta at 3."""
    P, n1 = Phi.shape[:2]
    E_c = sp.zeros(P, n1, order=3)
    E_c[np.arange(P), c_star, 0] = 1.0
    NJ = extrinsic._project_normal_jets(sp, Phi, dPhi, ginvJ, E_c, 3)
    nn = sp.mul(NJ, NJ, 3).sum(axis=-2)
    scale = jets.elementary(sp, "recip", jets.elementary(sp, "sqrt", nn, 3), 3)
    etaJ = sp.mul(NJ, scale[:, None], 3)
    fJ = sp.mul(HJ, sp.cut(etaJ, 2), 2).sum(axis=-2)
    flip = fJ[:, 0] < -1e-12
    etaJ = np.where(flip[:, None, None], -etaJ, etaJ)
    fJ = np.where(flip[:, None], -fJ, fJ)
    return etaJ, fJ


def recorded_stages(monkeypatch, spec, pts):
    """The calls one ``geometry_block`` makes to the jet-stage helpers and
    to the ``mul``/``dot`` kernels, as lists of (args, result)."""
    calls = {}

    def spy(owner, name):
        fn = getattr(owner, name)
        calls[name] = []

        def recording(*args):
            out = fn(*args)
            calls[name].append((args, out))
            return out
        monkeypatch.setattr(owner, name, recording)

    for name in ("_tau2_stage", "_jet_mat_inv", "_project_normal_jets", "_hypersurface_jets"):
        spy(extrinsic, name)
    spy(jets.JetSpace, "mul")
    spy(jets.JetSpace, "dot")
    extrinsic.geometry_block(spec, pts)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("spec", BLOCK_CHARTS, ids=lambda s: s.name)
def test_trimmed_stages_equal_untrimmed_where_read(spec, monkeypatch):
    calls = recorded_stages(monkeypatch, spec, sample_points(spec, 3 if spec.m <= 3 else 2, 9))
    [((sp, gJ, g0inv, _), ginvJ)] = calls["_jet_mat_inv"]

    def same(got, ref, k):
        # an order-k stage stores the degree <= k prefix of the deeper one
        assert got.shape == ref.shape[:-1] + (sp.sizes[k],)
        assert np.array_equal(got, sp.cut(ref, k))

    # ginvJ: the Christoffel symbols, H and eta read degree <= 2
    ginv3 = extrinsic._jet_mat_inv(sp, gJ, g0inv, 3)
    same(ginvJ, ginv3, 2)

    # H2J (grad_H2) and hdp (WJ) read degree <= 1: the one dot and the one
    # mul of views of the tau2 stage's HJ (and dPhi)
    [(_, (_, Phi, dPhi, _, _, _, HJ, *_))] = calls["_tau2_stage"]
    [(_, hdp)] = [c for c in calls["dot"] if c[0][1].base is HJ and c[0][2].base is dPhi]
    [(_, h2)] = [c for c in calls["mul"] if c[0][1].base is HJ and c[0][2].base is HJ]
    same(hdp, sp.dot(HJ[:, None], sp.cut(dPhi, 2), 2), 1)
    same(h2, sp.mul(HJ, HJ, 2), 1)
    same(h2.sum(axis=-2), sp.mul(HJ, HJ, 2).sum(axis=-2), 1)

    # eta and f read at degree <= 2 (f's Hessian)
    if spec.n - spec.m == 1:
        [((*_, c_star, _), (etaJ, fJ))] = calls["_hypersurface_jets"]
        ref_eta, ref_f = _hypersurface_jets_untrimmed(sp, Phi, dPhi, ginv3, HJ, c_star)
        same(etaJ, ref_eta, 2)
        same(fJ, ref_f, 2)
    else:
        assert not calls["_hypersurface_jets"]


def test_kernel_operands_have_the_calls_order(monkeypatch):
    # every mul and dot of the chart pass, the geometry stages and a scan
    # gets two operands cut to the call's order: bench/tracer.py costs a
    # call from the broadcast shape of its operands
    calls = []
    for name in ("mul", "dot"):
        def spy(self, a, b, order=jets.ORDER, fn=getattr(jets.JetSpace, name)):
            calls.append((self.sizes[order], a.shape[-1], b.shape[-1]))
            return fn(self, a, b, order)
        monkeypatch.setattr(jets.JetSpace, name, spy)
    for spec in BLOCK_CHARTS:
        extrinsic.geometry_block(spec, sample_points(spec, 2, 9))
    scan.sweep(scan.FamilySpec(tag="small-hypersphere", param_name="r", lo=0.5, hi=0.9,
                               steps=8, fixed={"m": 2}, samples_per_point=2))
    assert {n for n, _, _ in calls} == {s for m in range(1, 7) for s in jets.space(m).sizes[1:]}
    assert all(n == la == lb for n, la, lb in calls)


# ---------------------------------------------------------------------------
# the block frames: each point's pivots, bit-identical to one point's frames
# ---------------------------------------------------------------------------


def mgs(rows):
    """Modified Gram-Schmidt on the rows of one point, largest remaining row
    first, stopping at the first norm below 1e-13: the one-point reference
    of ``extrinsic._block_mgs``."""
    V = rows.astype(np.float64).copy()
    frame = []
    remaining = list(range(V.shape[0]))
    while remaining:
        norms = [np.linalg.norm(V[i]) for i in remaining]
        pick = int(np.argmax(norms))
        if norms[pick] < 1e-13:
            break
        i = remaining.pop(pick)
        e = V[i] / np.linalg.norm(V[i])
        frame.append(e)
        for j in remaining:
            V[j] = V[j] - np.dot(V[j], e) * e
    return np.array(frame)


def block_frame_inputs(spec, pts):
    """``_block_frames`` inputs from real jets, jac and ginv0 strided as in
    ``geometry_block``."""
    Phi, sp, _ = chart.eval_jet_stack(spec, pts)
    dPhi = np.stack([sp.deriv(Phi, i) for i in range(spec.m)], axis=1)
    phi0, jac = Phi[..., 0], dPhi[..., 0]
    phi_unit = phi0 / np.linalg.norm(phi0, axis=-1, keepdims=True)
    ginv = np.linalg.inv(jac @ jac.swapaxes(-1, -2))
    return phi_unit, jac, np.stack([ginv, ginv], axis=-1)[..., 0]   # strided like ginvJ's


@pytest.mark.parametrize("spec", BLOCK_CHARTS, ids=lambda s: s.name)
def test_block_frames_equal_one_point_frames(spec):
    # tangent frames against mgs, and all three against P = 1 calls, the
    # normal frames in codimension 1 to 3 (torus, S2 x S2: 2, veronese: 3)
    phi_unit, jac, ginv0 = block_frame_inputs(spec, sample_points(spec, 9, 3))
    assert not jac.flags.c_contiguous
    errors = [None] * len(jac)
    tangent, E, normal = extrinsic._block_frames(phi_unit, jac, ginv0, spec.n - spec.m, errors)
    assert errors == [None] * len(jac)
    for p in range(len(jac)):
        assert tangent[p].tobytes() == mgs(jac[p]).tobytes()
        assert E[p].tobytes() == ((tangent[p] @ jac[p].T) @ ginv0[p]).tobytes()
        one = extrinsic._block_frames(phi_unit[p:p + 1], jac[p:p + 1], ginv0[p:p + 1],
                                      spec.n - spec.m, [None])
        for got, ref in zip((tangent, E, normal), one):
            assert got[p].tobytes() == ref[0].tobytes()


def test_block_tangent_frames_pivot_per_point():
    # row norms ordered differently at each point, and a tie (rows 1 and 2)
    # at the last one; phi = e_4 is normal to every row
    jac = np.array([
        [[1.0, 0.2, 0.0, 0.1, 0.0], [0.3, 3.0, 0.0, 0.2, 0.0], [0.0, 0.4, 2.0, 0.0, 0.0]],
        [[3.0, 0.1, 0.0, 0.3, 0.0], [0.2, 1.0, 0.4, 0.0, 0.0], [0.0, 0.0, 0.1, 2.0, 0.0]],
        [[0.5, 0.5, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 2.0, 0.0]],
    ])
    phi_unit = np.tile([0.0, 0.0, 0.0, 0.0, 1.0], (3, 1))
    tangent, _, normal = extrinsic._block_frames(phi_unit, jac, np.tile(np.eye(3), (3, 1, 1)), 1,
                                                 [None] * 3)
    for p in range(3):
        assert tangent[p].tobytes() == mgs(jac[p]).tobytes()
    # first pivots: the largest row; the tie goes to the lower index
    assert [int(np.argmax(np.abs(tangent[p, 0]))) for p in range(3)] == [1, 0, 1]
    for p in range(3):
        np.testing.assert_allclose(tangent[p] @ tangent[p].T, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(normal[p] @ np.vstack([phi_unit[p], tangent[p]]).T, 0.0,
                                   atol=1e-15)
    # the rounding left in a picked row (3.5e-10) outweighs the last row
    # (3.7e-11, above the tolerance): a picked row is never picked again
    third = 1e6 / 3.0
    jac = np.array([[[third, 2 * third, 2 * third, 0.0, 0.0], [0.3, 0.2, 0.1, 0.0, 0.0],
                     [2e-11, -1e-11, 3e-11, 0.0, 0.0]]])
    tangent, _, _ = extrinsic._block_frames(phi_unit[:1], jac, np.eye(3)[None], 1, [None])
    assert tangent[0].tobytes() == mgs(jac[0]).tobytes()


TORUS = catalog_chart("clifford-torus-b3", {"a": 0.5, "b": 0.45})    # codimension 2


def test_block_frames_degenerate_point_fails():
    # the degenerate point gets the error, and the frames go on past it (the
    # geometry stage runs them under np.errstate, as here)
    phi_unit, jac, ginv0 = block_frame_inputs(TORUS, sample_points(TORUS, 4, 3))
    flat = jac.copy()
    flat[2, 1] = flat[2, 0]                 # point 2 spans a line only
    errors = [None] * 4
    with np.errstate(all="ignore"):
        tangent, _, _ = extrinsic._block_frames(phi_unit, flat, ginv0, 2, errors)
    assert [e is None for e in errors] == [True, True, False, True]
    assert isinstance(errors[2], GeometryError)
    assert re.search("^tangent frame construction failed$", str(errors[2]))
    ref = extrinsic._block_frames(phi_unit, jac, ginv0, 2, [None] * 4)[0]
    assert tangent[[0, 1, 3]].tobytes() == ref[[0, 1, 3]].tobytes()
    errors = [None] * 4
    with np.errstate(all="ignore"):
        extrinsic._block_frames(phi_unit, jac, ginv0, 3, errors)   # one normal too many
    assert all(isinstance(e, GeometryError) and "degenerate complement" in str(e)
               for e in errors)


def test_degenerate_frame_in_block_fails_that_point_alone(monkeypatch):
    spec = TORUS
    pts = sample_points(spec, 10, 4)
    refs = [compute_geometry(spec, p) for p in pts]
    bad_phi = refs[3].phi
    block_frames = extrinsic._block_frames

    def collapse_point_3(phi_unit, jac, ginv0, codim, errors):
        bad = np.linalg.norm(phi_unit - bad_phi, axis=-1) < 1e-6
        return block_frames(phi_unit, np.where(bad[:, None, None], 0.0, jac), ginv0, codim,
                            errors)

    monkeypatch.setattr(extrinsic, "_block_frames", collapse_point_3)
    for got in (extrinsic.geometry_block(spec, pts), sampled(spec, pts)):
        assert isinstance(got[3], GeometryError)
        assert str(got[3]) == "tangent frame construction failed"
        for p in (0, 1, 2, 4, 5, 6, 7, 8, 9):
            assert_same_geometry(got[p], refs[p])


def test_non_finite_field_checked_once_per_block(monkeypatch):
    # a NaN in one point's normal part of nabla H: that point's entry names
    # its first non-finite field in field order, and the others are healthy
    spec = TORUS
    pts = sample_points(spec, 10, 6)
    refs = [compute_geometry(spec, p) for p in pts]
    bad_phi = refs[6].phi
    project = extrinsic._project_normal_jets

    def poison_point_6(sp, Phi, dPhi, ginvJ, V, order):
        out = project(sp, Phi, dPhi, ginvJ, V, order)
        if order == 1:                      # U_j = P_N(d_j H), the last call
            out[np.linalg.norm(Phi[..., 0] - bad_phi, axis=-1) < 1e-6, 0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(extrinsic, "_project_normal_jets", poison_point_6)
    block = extrinsic.geometry_block(spec, pts)
    assert isinstance(block[6], GeometryError) and re.search("^non-finite", str(block[6]))
    with pytest.raises(GeometryError) as err:
        compute_geometry(spec, pts[6])
    # delta_perp_H, nabla_perp_H, nabla_perp_H_norm and trace_A_nablaH all
    # carry the NaN; delta_perp_H comes first among the fields
    assert str(err.value) == "non-finite delta_perp_H at the sample point"
    names = [f.name for f in dataclasses.fields(extrinsic.PointGeometry)]
    assert names.index("delta_perp_H") < min(
        names.index(k) for k in ("nabla_perp_H", "nabla_perp_H_norm", "trace_A_nablaH"))
    for got in (block, sampled(spec, pts)):
        assert str(got[6]) == str(err.value)
        for p in (0, 1, 2, 3, 4, 5, 7, 8, 9):
            assert_same_geometry(got[p], refs[p])


# a sphere chart whose polar angle u2 crosses the pole: at u2 = 0 the metric
# is rank-deficient (a geometry-stage failure), and u1 < c fails the sqrt
# during chart evaluation (a chart-stage failure)
POLE_DOC = {
    "name": "pole-crossing", "m": 2, "n": 3,
    "expressions": ["cos(u1) * sin(u2)", "sin(u1) * sin(u2)", "cos(u2)",
                    "sin(u2) * sqrt(u1 - c)"],
    "domain": [[0.0, 6.28], [-1.5, 1.5]],
    "params": {"c": 1.0},
    "normalize": True,
}
RANK_POINT, SQRT_POINT = (3.0, 0.0), (0.5, 0.7)


def pole_points(count=13):
    """Good points with a rank-deficient one at index 2 and a chart-stage
    failure at index 5."""
    pts = np.column_stack([np.linspace(1.5, 6.0, count), np.linspace(-1.2, 1.3, count)])
    pts[2], pts[5] = RANK_POINT, SQRT_POINT
    return pts


def test_failing_points_in_block_keep_their_errors(monkeypatch):
    spec = chart.parse_chart(POLE_DOC)
    pts = pole_points()
    expected = []
    for p in (RANK_POINT, SQRT_POINT):
        with pytest.raises((GeometryError, chart.ChartError)) as err:
            compute_geometry(spec, p)
        expected.append(str(err.value))
    assert "rank-deficient" in expected[0] and "sqrt" in expected[1]

    for got in (extrinsic.geometry_block(spec, pts[:8]), sampled(spec, pts)):
        assert [str(g) for g in got if isinstance(g, Exception)] == expected
        assert [i for i, g in enumerate(got) if isinstance(g, Exception)] == [2, 5]
        for g, p in zip(got, pts):
            if not isinstance(g, Exception):
                assert_same_geometry(g, compute_geometry(spec, p))

    # a report from blocks equals the point-by-point report, failures included
    monkeypatch.setattr(chart, "sample_points", lambda spec, count, seed: pole_points(count))
    blocked = biharmonic.evaluate_chart(spec, samples=13, seed=0)
    assert blocked.failures == expected
    monkeypatch.setattr(extrinsic, "block_size", lambda m: 1)
    single = biharmonic.evaluate_chart(spec, samples=13, seed=0)
    assert blocked.to_report_dict() == single.to_report_dict()


def one_point_outcome(spec, point):
    """``compute_geometry`` at one point, or the error it raises."""
    try:
        return compute_geometry(spec, point)
    except (GeometryError, chart.ChartError) as e:
        return e


def assert_same_outcome(got, ref):
    """The same error (type, message, named point) or the same geometry."""
    assert type(got) is type(ref)
    if isinstance(ref, Exception):
        assert str(got) == str(ref)
        if isinstance(ref, chart.ChartEvalError):
            assert np.array_equal(got.point, ref.point, equal_nan=True)
    else:
        assert_same_geometry(got, ref)


def test_block_outcomes_name_their_own_points():
    # a block with a chart-stage failure (index 5) and a rank-deficient point
    # (index 2) among 37: each entry, and each chart-stage error, is what the
    # point's own one-point call gives, never another point's message
    spec = chart.parse_chart(POLE_DOC)
    pts = pole_points(37)
    refs = [one_point_outcome(spec, p) for p in pts]
    assert [i for i, r in enumerate(refs) if isinstance(r, Exception)] == [2, 5]
    block = extrinsic.geometry_block(spec, pts)
    assert len(block) == len(pts)
    for got, ref in zip(block, refs):
        assert_same_outcome(got, ref)
    _, _, errors = chart.eval_jet_stack(spec, pts)
    for got, ref in zip(errors, refs):
        if isinstance(ref, chart.ChartError):
            assert_same_outcome(got, ref)
        else:
            assert got is None


def test_unknown_parameter_fails_every_point():
    # a parameter dropped from spec.params after validation: each point gets
    # the error of its one-point call, the margin error first where it has one
    spec = chart.parse_chart(POLE_DOC)
    spec.params.clear()
    pts = np.vstack([pole_points(6), [[0.0, 0.0]]])
    refs = [one_point_outcome(spec, p) for p in pts]
    assert all("unknown parameter 'c'" in str(r) for r in refs[:-1])
    assert "safe region" in str(refs[-1])
    for got, ref in zip(chart.eval_jet_stack(spec, pts)[2], refs):
        assert_same_outcome(got, ref)


def _planted_points(spec, count, seed):
    """``count`` sample points, a NaN point at index 1 and the box corner,
    outside the safe region, at index 3."""
    pts = sample_points(spec, count, seed)
    pts = np.insert(pts, 1, np.nan, axis=0)
    return np.insert(pts, 3, [lo for lo, _ in spec.domain], axis=0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(doc=chart_docs.chart_documents(), seed=st.integers(0, 1000))
def test_block_equals_its_points_one_by_one(doc, seed):
    # random charts fail at every stage; a block and its one-point calls agree
    # in every outcome, and so do the tau2 stage and its one-point calls
    spec = chart.parse_chart(doc)
    pts = _planted_points(spec, 6, seed)
    with np.errstate(all="ignore"):     # huge healthy fields overflow the curvature
        block = extrinsic.geometry_block(spec, pts)
        for got, p in zip(block, pts):
            assert_same_outcome(got, one_point_outcome(spec, p))
        if spec.m >= 2:
            assert_same_scalar_curvature(block, [
                None if e else scalar_curvature(rows_of(spec, [p]))[0]
                for p, e in zip(pts, block.errors)])
        tau2 = extrinsic.tau2_block(spec, pts)
        for p, got in enumerate(tau2.errors):
            ref = extrinsic.tau2_block(spec, pts[p:p + 1])
            assert type(got) is type(ref.errors[0]) and str(got) == str(ref.errors[0])
            if got is None:
                assert tau2.H[p].tobytes() == ref.H[0].tobytes()
                assert tau2.delta_H[p].tobytes() == ref.delta_H[0].tobytes()
                assert tau2.H_norm[p] == ref.H_norm[0]


def test_scan_row_reports_first_failing_point(monkeypatch):
    monkeypatch.setattr(chart, "sample_points", lambda spec, count, seed: pole_points(count))
    fam = scan.FamilySpec(doc=POLE_DOC, param_name="c", lo=0.9, hi=1.1, steps=8,
                          samples_per_point=8)
    stages, passes = [], []
    tau2_block, eval_jet_stack = extrinsic.tau2_block, chart.eval_jet_stack

    def counted_stage(spec, pts, *args):
        stages.append((spec.m, len(pts)))
        return tau2_block(spec, pts, *args)

    monkeypatch.setattr(extrinsic, "tau2_block", counted_stage)
    monkeypatch.setattr(chart, "eval_jet_stack", lambda spec, pts, params=None:
                        passes.append(len(pts)) or eval_jet_stack(spec, pts, params))
    grid = scan.sweep(fam).grid
    # the grid rows' points are stacked: 8 rows of 8 points make one chart
    # pass of 64 rows and one tau2 stage of 64
    assert passes == [64] and all(n <= extrinsic.CHART_RUN for n in passes)
    assert stages == [(2, 64)]
    assert all(n <= extrinsic.block_size(m) for m, n in stages)
    for row in grid:
        with pytest.raises(GeometryError) as err:
            compute_geometry(fam.chart_at(row.param), RANK_POINT)
        assert row.verdict == "error" and row.error == str(err.value)


# one 1-parameter chart family per check the tau2 stage keeps, with sample
# points that pass at index 0 and 1 and fail from index 2 or 4 on
def _curve(name, last):
    return {"name": name, "m": 1, "n": 2, "expressions": ["cos(u1)", "sin(u1)", last],
            "domain": [[0.0, 6.0]], "params": {"c": 1.0}}


def _swapped(pts, i, j):
    pts = pts.copy()
    pts[[i, j]] = pts[[j, i]]
    return pts


CURVE_POINTS = np.array([[0.1], [0.2], [3.0], [0.3], [4.0], [0.4], [0.5], [0.6]])
STAGE_CHECKS = {
    # c u1 > 34.7 overflows the power, and 0 * inf leaves a NaN in the jets
    "chart-jets": (_curve("overflow", "0 * (c * u1)^200"), 5.0, 30.0, CURVE_POINTS,
                   "^non-finite chart jets$"),
    # |phi| - 1 > 1e-8 where c u1^12 > 141
    "sphere": (_curve("lifted", "1e-6 * c * u1^12"), 0.5, 1.0, CURVE_POINTS,
               "^chart does not land on the unit sphere"),
    "domain": (POLE_DOC, 0.9, 1.1, _swapped(pole_points(8), 2, 5), "sqrt"),
    "rank": (POLE_DOC, 0.9, 1.1, pole_points(8), "^rank-deficient differential"),
}


@pytest.mark.parametrize("check", STAGE_CHECKS)
def test_scan_row_error_for_each_stage_check(check, monkeypatch):
    # a scan row fails with compute_geometry's error at the first sample
    # point that fails, for every check the tau2 stage keeps
    doc, lo, hi, pts, pattern = STAGE_CHECKS[check]
    monkeypatch.setattr(chart, "sample_points", lambda spec, count, seed: pts)
    fam = scan.FamilySpec(doc=doc, param_name="c", lo=lo, hi=hi, steps=8, samples_per_point=8)
    errors = [row for row in scan.sweep(fam).grid if row.verdict == "error"]
    assert errors
    for row in errors:
        spec = fam.chart_at(row.param)
        outcomes = []
        for p in pts:
            try:
                compute_geometry(spec, p)
            except (GeometryError, chart.ChartError) as e:
                outcomes.append(str(e))
            else:
                outcomes.append(None)
        assert outcomes[:2] == [None, None]
        assert row.error == next(o for o in outcomes if o is not None)
        assert re.search(pattern, row.error)


@pytest.mark.parametrize("spec", BLOCK_CHARTS, ids=lambda s: s.name)
def test_tau2_block_equals_geometry_block(spec):
    # m = 1..6, codimension 1..3, catalog, perturbed and document charts
    pts = sample_points(spec, 37 if spec.m <= 3 else 3, 5)
    got = extrinsic.tau2_block(spec, pts)
    ref = extrinsic.geometry_block(spec, pts)
    assert got.m == spec.m
    assert np.array_equal(got.H, [g.H for g in ref])
    assert np.array_equal(got.delta_H, [g.delta_H for g in ref])
    assert got.H.tobytes() == np.array([g.H for g in ref]).tobytes()
    assert got.delta_H.tobytes() == np.array([g.delta_H for g in ref]).tobytes()
    assert got.H_norm == [g.H_norm for g in ref]
    assert all(type(h) is float for h in got.H_norm)


def test_tau2_block_checks_its_fields(monkeypatch):
    # a NaN in one point's Delta H: the tau2 stage alone fails that point
    # with the message of the full package (field order: B2 and AH2, which
    # only the full package computes, come before delta_H and stay finite)
    lap = extrinsic._lap

    def poison_last_point(ginv0, Gam0, dd, V):
        out = lap(ginv0, Gam0, dd, V)
        out[-1, 0] = np.nan
        return out

    monkeypatch.setattr(extrinsic, "_lap", poison_last_point)
    pts = sample_points(TORUS, 4, 6)
    for errors in (extrinsic.tau2_block(TORUS, pts).errors,
                   extrinsic.geometry_block(TORUS, pts)):
        assert isinstance(errors[-1], GeometryError)
        assert re.search("^non-finite delta_H at the sample point$", str(errors[-1]))
        assert not any(isinstance(e, Exception) for e in errors[:-1])


# ---------------------------------------------------------------------------
# the block residual stage: per-sample records and PMC over the point axis,
# bit-identical to the per-point loop they replaced (kept here as reference)
# ---------------------------------------------------------------------------


def scalar_curvature_one_point(g):
    """The scalar curvature of one ``PointGeometry``, each contraction on
    the point's own field views."""
    Gam0 = g.christoffel
    dGam = g.christoffel_grad.transpose(0, 2, 3, 1)
    GG = np.einsum("sjk,lis->ijkl", Gam0, Gam0)
    opR = dGam - dGam.transpose(1, 0, 2, 3) + GG - GG.transpose(1, 0, 2, 3)
    Rm = np.einsum("ijkl,lw->ijkw", opR, g.metric)
    E, i = g.frame_coeff, np.arange(g.m)
    a, b, c, d = i[:, None], i, i, i[:, None]
    t = (E[a][..., :, None, None, None] * E[b][..., None, :, None, None]
         * E[c][..., None, None, :, None] * E[d][..., None, None, None, :] * Rm)
    R = np.add.accumulate(t.reshape(t.shape[:-4] + (-1,)), axis=-1)[..., -1] + 0.0
    ricci_diag = np.zeros(g.m)
    for row in R:
        ricci_diag += row
    return float(np.sum(ricci_diag))


def records_one_by_one(geoms):
    """The ``SampleRecord`` of each point from its own ``PointGeometry``."""
    records = []
    for g in geoms:
        tau = biharmonic.tau2_direct(g)
        normal, tangent = biharmonic.split_residuals(g)
        rec = biharmonic.SampleRecord(
            point=tuple(float(x) for x in g.point),
            tau2_norm=float(np.linalg.norm(tau)),
            split_normal_norm=float(np.linalg.norm(normal)),
            split_tangent_norm=float(np.linalg.norm(tangent)),
            split_gap=float(np.linalg.norm(tau + g.m * (normal + tangent))),
            H_norm=g.H_norm, B2=g.B2, nabla_perp_H_norm=g.nabla_perp_H_norm,
            scalar_curvature=scalar_curvature_one_point(g) if g.m >= 2 else None,
        )
        if g.hypersurface:
            rec.hyper_i = abs(g.delta_f - (g.m - g.A2) * g.f)
            a_gf = (g.A @ (g.tangent_frame @ g.grad_f)) @ g.tangent_frame
            rec.hyper_ii = float(np.linalg.norm(a_gf + 0.5 * g.m * g.f * g.grad_f))
            rec.A2, rec.f = g.A2, g.f
        records.append(rec)
    return records


def pmc_one_by_one(geoms, pass_tol=biharmonic.PASS_TOL):
    """``biharmonic.pmc_check`` as a loop over the samples, each completing
    H/|H| to its normal frame with ``mgs``."""
    parallel = eq4 = eq5a = eq5b = 0.0
    with_h = 0
    for g in geoms:
        parallel = max(parallel, g.nabla_perp_H_norm)
        if g.H_norm <= pass_tol:
            continue
        with_h += 1
        eq4 = max(eq4, float(np.linalg.norm(g.trace_B_AH - g.m * g.H)))
        eq5b = max(eq5b, abs(g.AH2 - g.m * g.H2))
        u0 = g.H / g.H_norm
        rest = g.normal_frame - np.outer(g.normal_frame @ u0, u0)
        for xi in mgs(rest):
            a_xi = np.einsum("x,xab->ab", g.normal_frame @ xi, g.B_frame)
            eq5a = max(eq5a, abs(float(np.sum(g.A_H * a_xi))))
    applicable = parallel < pass_tol
    equivalence = None
    if applicable and with_h:
        equivalence = (eq4 < pass_tol) == (eq5a < pass_tol and eq5b < pass_tol)
    return biharmonic.PMCBlock(parallel_norm=parallel, eq4_norm=eq4, eq5a=eq5a, eq5b=eq5b,
                               applicable=applicable, equivalence_ok=equivalence,
                               samples_with_H=with_h)


def assert_same_bits(got, ref):
    """Every dataclass field of the same type and, for floats and tuples of
    floats, the same bytes."""
    for f in dataclasses.fields(ref):
        a, b = getattr(got, f.name), getattr(ref, f.name)
        assert type(a) is type(b), f.name
        if isinstance(b, (float, tuple)):
            assert np.array(a).tobytes() == np.array(b).tobytes(), f.name
        else:
            assert a == b, f.name


@pytest.mark.parametrize("spec", BLOCK_CHARTS, ids=lambda s: s.name)
def test_pmc_check_reads_rows_with_h_everywhere_as_they_are(spec, monkeypatch):
    # rows whose every point has H are their own np.take copy: pmc_check
    # reads them without copying, and gives the PMCBlock of the copy
    rows = rows_of(spec, sample_points(spec, extrinsic.block_size(spec.m), 5))
    assert all(h > biharmonic.PASS_TOL for h in rows.H_norm)
    ref = biharmonic.pmc_check(rows.rows(range(len(rows))))
    copies = []
    take = extrinsic.GeometryBlock.rows
    monkeypatch.setattr(extrinsic.GeometryBlock, "rows",
                        lambda block, index: copies.append(len(index)) or take(block, index))
    assert_same_bits(biharmonic.pmc_check(rows), ref)
    assert copies == []


@pytest.mark.parametrize("full", [True, False])
@pytest.mark.parametrize("spec", BLOCK_CHARTS, ids=lambda s: s.name)
def test_block_residuals_equal_point_by_point(spec, full):
    # m = 1..6, codimension 1..3: one whole geometry block, or a full and a
    # partial one
    size = extrinsic.block_size(spec.m)
    count = size if full else size + 5
    rep = biharmonic.evaluate_chart(spec, samples=count, seed=5)
    pts = sample_points(spec, count, 5)
    geoms = [compute_geometry(spec, p) for p in pts]
    assert len(rep.per_sample) == count
    for got, ref in zip(rep.per_sample, records_one_by_one(geoms)):
        assert_same_bits(got, ref)
    assert_same_bits(rep.pmc, pmc_one_by_one(geoms))
    assert_same_bits(biharmonic.pmc_check(rows_of(spec, pts)), pmc_one_by_one(geoms))
    # the one-point forms are the block code at P = 1
    for p, ref in zip(pts, records_one_by_one(geoms)):
        one = rows_of(spec, [p])
        if spec.m >= 2:
            assert scalar_curvature(one).tolist() == [ref.scalar_curvature]
        if one.hypersurface:
            res_i, res_ii = biharmonic.hypersurface_residuals(one)
            assert (res_i.tolist(), res_ii.tolist()) == ([ref.hyper_i], [ref.hyper_ii])


def test_pmc_block_drops_steps_past_each_points_stop():
    # codimension 2 with |H| > 0 at every sample: each point completes H/|H|
    # with one xi; dropping H (the equator) leaves every sample out
    spec = perturbed_chart(5, base="torus")
    pts = sample_points(spec, 9, 3)
    pmc = biharmonic.pmc_check(rows_of(spec, pts))
    assert pmc.samples_with_H == 9 and pmc.eq5a > 0.0
    assert_same_bits(pmc, pmc_one_by_one([compute_geometry(spec, p) for p in pts]))
    equator = catalog_chart("small-hypersphere", {"m": 2, "r": 1.0})
    pts = sample_points(equator, 5, 3)
    assert_same_bits(biharmonic.pmc_check(rows_of(equator, pts)),
                     pmc_one_by_one([compute_geometry(equator, p) for p in pts]))
    # rows of rank 1, 2 and 3 in one block: each point keeps the steps of
    # its own one-point pass, up to its first norm below 1e-13
    rows = np.array([[[1.0, 2.0, 0.0, 0.5], [2.0, 4.0, 0.0, 1.0], [-1.0, -2.0, 0.0, -0.5]],
                     [[1.0, 0.0, 0.0, 0.0], [0.0, 3.0, 1.0, 0.0], [2.0, 6.0, 2.0, 0.0]],
                     [[1.0, 0.1, 0.0, 0.0], [0.0, 2.0, 0.3, 0.0], [0.2, 0.0, 0.5, 0.0]]])
    with np.errstate(divide="ignore", invalid="ignore"):
        frame, tops = extrinsic._block_mgs(rows)
    kept = np.logical_and.accumulate(~(tops < 1e-13), axis=-1)
    assert kept.sum(axis=-1).tolist() == [1, 2, 3]
    for p in range(3):
        assert frame[p, kept[p]].tobytes() == mgs(rows[p]).tobytes()


def test_residual_stage_sees_at_most_one_block(monkeypatch):
    # the memory guard: the curvature and PMC temporaries grow with the
    # points per call, so the residual stage follows block_size (64 points at
    # m <= 2, 32 at m = 3, 8 at m = 4, 5 and 4 at m = 6)
    seen = {}
    for name, owner in (("sample_records", biharmonic), ("pmc_check", biharmonic),
                        ("_frame_riemann", extrinsic)):
        fn = getattr(owner, name)

        def spy(g, *args, fn=fn, name=name):
            seen.setdefault(name, []).append(len(g))
            return fn(g, *args)
        monkeypatch.setattr(owner, name, spy)
    for m, samples, blocks in ((2, 69, [64, 5]), (3, 37, [32, 5]), (4, 11, [8, 3]),
                               (5, 11, [8, 3]), (6, 9, [4, 4, 1])):
        seen.clear()
        biharmonic.evaluate_chart(bumped_hypersphere(m), samples=samples, seed=5)
        assert seen["sample_records"] == seen["pmc_check"] == blocks
        assert seen["_frame_riemann"] and max(seen["_frame_riemann"]) <= extrinsic.block_size(m)


@pytest.mark.parametrize("m,samples", [(2, 37), (6, 6)])
def test_no_point_geometry_outlives_its_block(m, samples, monkeypatch):
    # the memory bound of evaluate_chart: a GeometryBlock pins its jet
    # arrays through its value views, so each block must be gone when the
    # next block starts
    earlier = []
    stage, rest = extrinsic._tau2_stage, extrinsic._geometry_rest

    def starting(*args):
        gc.collect()
        assert all(ref() is None for ref in earlier)
        return stage(*args)

    def finished(*args):
        block = rest(*args)
        earlier.append(weakref.ref(block))
        return block

    monkeypatch.setattr(extrinsic, "_tau2_stage", starting)
    monkeypatch.setattr(extrinsic, "_geometry_rest", finished)
    report = biharmonic.evaluate_chart(bumped_hypersphere(m), samples=samples, seed=5)
    assert report.samples_used == samples
    assert len(earlier) == -(-samples // extrinsic.block_size(m))
    gc.collect()
    assert all(ref() is None for ref in earlier)


def test_verify_builds_no_point_geometry(monkeypatch):
    # the residuals read each block's rows, never one point's PointGeometry
    def refuse(self, p):
        raise AssertionError("evaluate_chart read a geometry block point by point")

    monkeypatch.setattr(extrinsic.GeometryBlock, "__getitem__", refuse)
    for spec, count in ((bumped_hypersphere(4), 11), (chart.parse_chart(S2_S2_DOC), 3)):
        assert biharmonic.evaluate_chart(spec, samples=count, seed=5).samples_used == count
    # failed points among the good ones of a block
    monkeypatch.setattr(chart, "sample_points", lambda spec, count, seed: pole_points(count))
    report = biharmonic.evaluate_chart(chart.parse_chart(POLE_DOC), samples=13, seed=0)
    assert report.samples_used == 11 and len(report.failures) == 2


def test_chart_pass_sees_at_most_64_points(monkeypatch, tmp_path):
    # one chart-jet pass per 64 sample points keeps memory flat in --points
    seen = []
    eval_jet_stack = chart.eval_jet_stack
    monkeypatch.setattr(chart, "eval_jet_stack",
                        lambda spec, pts, params=None: seen.append(len(pts))
                        or eval_jet_stack(spec, pts, params))
    code = cli.main(["verify", "--catalog", "small-hypersphere", "--param", "m=2",
                     "--param", f"r={ROOT2INV!r}", "--points", "150",
                     "--output", str(tmp_path / "report.txt")])
    assert code == 0 and seen == [64, 64, 22]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(doc=chart_docs.perturbed_tori(), seed=st.integers(0, 1000))
def test_block_residuals_equal_point_by_point_random_charts(doc, seed):
    # random charts in codimension 1..3 with |H| > 0: the good points of a
    # block with failures among them
    spec = chart.parse_chart(doc)
    with np.errstate(all="ignore"):     # huge healthy fields overflow the residuals
        block = extrinsic.geometry_block(spec, _planted_points(spec, 6, seed))
        good = [p for p, e in enumerate(block.errors) if e is None]
        if not good:
            return
        rows, geoms = block.rows(good), [block[p] for p in good]
        for got, ref in zip(biharmonic.sample_records(rows), records_one_by_one(geoms)):
            assert_same_bits(got, ref)
        assert_same_bits(biharmonic.pmc_check(rows), pmc_one_by_one(geoms))
