"""Family sweeps: root location, determinism, stability, serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from bitension import biharmonic, chart, extrinsic, scan
from bitension.scan import FamilySpec, ScanError, sweep

ROOT2INV = 1.0 / math.sqrt(2.0)


@pytest.fixture(scope="module")
def sphere_scan():
    fam = FamilySpec(tag="small-hypersphere", param_name="r", lo=0.3, hi=0.99,
                     steps=200, fixed={"m": 2}, samples_per_point=6)
    return sweep(fam)


def test_sphere_family_root(sphere_scan):
    roots = sphere_scan.roots
    assert len(roots) == 1
    assert abs(roots[0].param - ROOT2INV) < 1e-11
    assert roots[0].classification == "proper-biharmonic"
    assert roots[0].residual < 1e-6
    assert abs(roots[0].H_norm - 1.0) < 1e-6


def test_sphere_family_grid(sphere_scan):
    rows = sphere_scan.grid
    assert len(rows) == 200
    assert rows[0].param == 0.3 and rows[-1].param == 0.99
    # profile matches the closed-form family residual everywhere
    for row in rows[::25]:
        r = row.param
        ref = 4.0 * (math.sqrt(1 - r * r) / r) * abs(1.0 / (r * r) - 2.0)
        assert abs(row.max_residual - ref) < 1e-9 * (1 + ref)


def test_sphere_family_boundary_label():
    fam = FamilySpec(tag="small-hypersphere", param_name="r", lo=0.75, hi=0.999,
                     steps=40, fixed={"m": 2}, samples_per_point=4)
    res = sweep(fam)
    sides = {b["side"] for b in res.boundary}
    assert "hi" in sides
    hi = [b for b in res.boundary if b["side"] == "hi"][0]
    assert "minimal limit" in hi["note"]
    # the boundary is never promoted to an interior root
    assert all(r.param < 0.998 for r in res.roots)


def test_torus_family_root():
    fam = FamilySpec(tag="clifford-torus-b3", param_name="t", lo=0.2, hi=0.69,
                     steps=200, samples_per_point=6)
    res = sweep(fam)
    assert len(res.roots) == 1
    assert abs(res.roots[0].param - 0.5) < 1e-11
    assert res.roots[0].classification == "proper-biharmonic"
    assert abs(res.roots[0].H_norm - 1.0) < 1e-6


def test_product_spheres_family_roots():
    # sweeping r binds r1 = r, r2 = sqrt(1 - r^2); the range contains both
    # the proper biharmonic locus at equal radii and the minimal product at
    # r = sqrt(m1/m), and the classifications must tell them apart
    fam = FamilySpec(tag="product-spheres", param_name="r", lo=0.5, hi=0.9,
                     steps=80, fixed={"m1": 2, "m2": 1}, samples_per_point=4)
    res = sweep(fam)
    assert len(res.roots) == 2
    proper, minimal = res.roots
    assert abs(proper.param - ROOT2INV) < 1e-11
    assert proper.classification == "proper-biharmonic"
    assert abs(proper.H_norm - 1.0 / 3.0) < 1e-6
    assert abs(minimal.param - math.sqrt(2.0 / 3.0)) < 1e-6
    assert minimal.classification == "minimal"


def veronese_radius_family(lo, hi, steps, **kwargs):
    return FamilySpec(tag="veronese", param_name="r", lo=lo, hi=hi,
                      steps=steps, **kwargs)


def test_veronese_radius_scan():
    res = sweep(veronese_radius_family(0.5, 0.99, 100, samples_per_point=4))
    assert len(res.roots) == 1
    assert abs(res.roots[0].param - ROOT2INV) < 1e-11
    assert res.roots[0].classification == "proper-biharmonic"
    assert abs(res.roots[0].H_norm - 1.0) < 1e-6


def test_veronese_minimal_endpoint():
    res = sweep(veronese_radius_family(0.9, 1.0, 12, samples_per_point=4))
    last = res.grid[-1]
    assert last.param == 1.0
    assert last.verdict == "minimal"
    with pytest.raises(ScanError, match="outside the admissible domain"):
        veronese_radius_family(0.0, 0.9, 12)


def test_scan_determinism():
    kw = dict(tag="small-hypersphere", param_name="r", lo=0.6, hi=0.8,
              steps=30, fixed={"m": 2}, samples_per_point=4, seed=5)
    a = dataclasses.asdict(sweep(FamilySpec(**kw)))
    b = dataclasses.asdict(sweep(FamilySpec(**kw)))
    assert a == b


def test_root_stability_under_sample_doubling():
    kw = dict(tag="small-hypersphere", param_name="r", lo=0.65, hi=0.78,
              steps=20, fixed={"m": 2})
    r1 = sweep(FamilySpec(samples_per_point=4, **kw)).roots[0].param
    r2 = sweep(FamilySpec(samples_per_point=8, **kw)).roots[0].param
    assert abs(r1 - r2) < 1e-7


def test_no_root_range():
    fam = FamilySpec(tag="small-hypersphere", param_name="r", lo=0.3, hi=0.55,
                     steps=20, fixed={"m": 2}, samples_per_point=4)
    res = sweep(fam)
    assert res.roots == []
    assert len(res.grid) == 20
    assert all(r.verdict == "not-biharmonic" for r in res.grid)


def test_family_validation():
    with pytest.raises(ScanError, match="steps"):
        FamilySpec(tag="small-hypersphere", param_name="r", lo=0.3, hi=0.9,
                   steps=4, fixed={"m": 2})
    with pytest.raises(ScanError, match="admissible"):
        FamilySpec(tag="clifford-torus-b3", param_name="t", lo=0.2, hi=0.9,
                   steps=20)
    with pytest.raises(ScanError, match="budget"):
        FamilySpec(tag="small-hypersphere", param_name="r", lo=0.3, hi=0.9,
                   steps=10_000, fixed={"m": 2}, samples_per_point=100)
    with pytest.raises(ScanError, match="exactly one"):
        FamilySpec(param_name="r", lo=0.3, hi=0.9, steps=20)
    with pytest.raises(ScanError):
        FamilySpec(tag="small-hypersphere", param_name="r", lo=0.9, hi=0.3,
                   steps=20, fixed={"m": 2})
    with pytest.raises(ScanError, match="pass_tol < fail_tol"):
        FamilySpec(tag="small-hypersphere", param_name="r", lo=0.3, hi=0.9,
                   steps=20, fixed={"m": 2}, pass_tol=1e-2, fail_tol=1e-4)


@pytest.mark.parametrize("tag,param,fixed,name", [
    ("clifford-torus-b3", "t", {"a": 0.3}, "a"),
    ("product-spheres", "r", {"m1": 2, "m2": 1, "r2": 0.1}, "r2"),
    ("small-hypersphere", "r", {"r": 0.5}, "r"),
])
def test_family_rejects_a_fixed_parameter_the_sweep_sets(tag, param, fixed, name):
    # the swept value, or its link, would overwrite it: it is never read
    with pytest.raises(ScanError, match=f"fixed parameter '{name}' is never read"):
        FamilySpec(tag=tag, param_name=param, lo=0.3, hi=0.6, steps=8, fixed=fixed)


def test_chart_document_family():
    doc = {
        "name": "scaled-circle", "m": 1, "n": 2,
        "expressions": ["rho * cos(u1)", "rho * sin(u1)",
                        "sqrt(1 - rho^2 + 1e-30)"],
        "domain": [[0.0, 2 * math.pi]],
        "params": {"rho": 0.5},
    }
    fam = FamilySpec(doc=doc, param_name="rho", lo=0.4, hi=0.95, steps=60,
                     samples_per_point=4)
    res = sweep(fam)
    assert len(res.roots) == 1
    assert abs(res.roots[0].param - ROOT2INV) < 1e-6


def test_grid_errors_flagged_not_fatal():
    # the chart builds for every rho but fails evaluation once 1 - rho^2 + c
    # goes negative inside sqrt: those grid points are flagged, the rest of
    # the profile survives
    doc = {
        "name": "overshoot", "m": 1, "n": 2,
        "expressions": ["rho * cos(u1)", "rho * sin(u1)",
                        "sqrt(1.21 - rho^2)"],
        "domain": [[0.0, 2 * math.pi]],
        "params": {"rho": 0.5},
        "normalize": True,
    }
    fam = FamilySpec(doc=doc, param_name="rho", lo=0.8, hi=1.15, steps=15,
                     samples_per_point=3)
    res = sweep(fam)
    errored = [r for r in res.grid if r.verdict == "error"]
    fine = [r for r in res.grid if r.verdict != "error"]
    assert errored and fine
    assert all(r.param > 1.1 for r in errored)
    assert all(r.error is not None for r in errored)
    csv = res.to_csv()
    assert ",,,,error" in csv


def test_csv_output(sphere_scan):
    csv = sphere_scan.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "param,max_residual,mean_residual,H_norm,verdict"
    assert len(lines) == 1 + 200 + len(sphere_scan.roots)
    root_lines = [l for l in lines if "root:" in l]
    assert len(root_lines) == 1
    param = float(root_lines[0].split(",")[0])
    assert abs(param - ROOT2INV) < 1e-6
    assert root_lines[0].endswith("root:proper-biharmonic")


def test_json_round_trip(sphere_scan):
    text = json.dumps(dataclasses.asdict(sphere_scan), indent=2, sort_keys=True,
                      allow_nan=False)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text


def test_all_roots_verified(sphere_scan):
    for root in sphere_scan.roots:
        assert root.residual < 1e-6
        assert root.classification in ("proper-biharmonic", "minimal")
        assert root.bisection_iterations > 0


# one family per root kind: proper roots at 1/sqrt(2) and 0.5, a minimal one
# at sqrt(2/3)
ROOT_FAMILIES = {
    "sphere": dict(tag="small-hypersphere", param_name="r", lo=0.3, hi=0.99),
    "torus": dict(tag="clifford-torus-b3", param_name="t", lo=0.2, hi=0.69),
    "product-2+1": dict(tag="product-spheres", param_name="r", lo=0.3, hi=0.95,
                        fixed={"m1": 2, "m2": 1}),
}


@pytest.mark.parametrize("name", ROOT_FAMILIES)
def test_roots_equal_full_evaluation_at_root(name):
    # the profile at a refined root reads the same sample points as a full
    # evaluation of the chart there: residual, |H| and verdict agree exactly
    family = FamilySpec(steps=40, seed=3, **ROOT_FAMILIES[name])
    roots = sweep(family).roots
    assert roots
    classes = {"proper-biharmonic": biharmonic.VERDICT_PROPER,
               "minimal": biharmonic.VERDICT_MINIMAL}
    for root in roots:
        report = biharmonic.evaluate_chart(family.chart_at(root.param),
                                           samples=family.samples_per_point,
                                           seed=family.seed)
        assert root.residual == report.max_of("tau2_norm")
        assert root.H_norm == report.max_of("H_norm")
        assert classes[root.classification] == report.verdict


def test_sweep_makes_no_full_evaluation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep called evaluate_chart")

    monkeypatch.setattr(biharmonic, "evaluate_chart", refuse)
    res = sweep(FamilySpec(steps=40, seed=3, **ROOT_FAMILIES["product-2+1"]))
    assert [r.classification for r in res.roots] == ["proper-biharmonic", "minimal"]


def test_sweep_builds_no_point_geometry(monkeypatch):
    # the profile reads the tau2 stage alone (extrinsic.tau2_block), as
    # attributes of its block
    def refuse(*args, **kwargs):
        raise AssertionError("sweep called geometry_block or read a block point by point")

    monkeypatch.setattr(extrinsic, "geometry_block", refuse)
    monkeypatch.setattr(extrinsic.GeometryBlock, "__getitem__", refuse)
    res = sweep(FamilySpec(steps=40, seed=3, **ROOT_FAMILIES["product-2+1"]))
    assert [r.classification for r in res.roots] == ["proper-biharmonic", "minimal"]
    assert all(row.verdict != "error" for row in res.grid)


@pytest.mark.parametrize("steps, samples", [(8, 2), (8, 8), (20, 4)])
def test_minimal_root_at_double_zero_not_proper(steps, samples):
    # S^1(1/2) x S^3(sqrt(3)/2) is minimal with |A|^2 = m = 4, so tau2 has a
    # double zero there that sinks into rounding noise while |H| is still
    # above pass_tol; on coarse grids the tau2 secant stalled in that noise
    # and the stall point was reported proper biharmonic
    fam = FamilySpec(tag="product-spheres", param_name="r", lo=0.3, hi=0.95, steps=steps,
                     fixed={"m1": 1, "m2": 3}, samples_per_point=samples, seed=3)
    roots = sweep(fam).roots
    near_half = [r for r in roots if abs(r.param - 0.5) < 1e-6]
    assert len(near_half) == 1
    assert near_half[0].classification == "minimal"
    assert abs(near_half[0].param - 0.5) < 1e-8
    assert near_half[0].H_norm < fam.pass_tol
    for r in roots:
        if r is not near_half[0]:
            assert r.classification == "proper-biharmonic"
            assert abs(r.param - ROOT2INV) < 1e-11


# ---------------------------------------------------------------------------
# _refine on synthetic profiles: T(t) stands for the stacked tau2 vector and
# f = ||T|| for the max over sample points


def synthetic(T, calls=None):
    """A memoized profile closure, as ``_profile`` builds; ``calls`` records
    the parameter values it evaluates, in order."""
    cache = {}

    def at(t):
        if t not in cache:
            if calls is not None:
                calls.append(t)
            v = np.asarray(T(t), dtype=float)
            f = float(np.linalg.norm(v))
            cache[t] = scan.Profile(f, f, 0.0, "minimal", v, 0.0 * v)
        return cache[t]
    return at


def test_refine_linear_zero():
    root = 0.61803
    calls = []
    at = synthetic(lambda t: [2.0 * (t - root) + (t - root) ** 2,
                              -(t - root) + 3.0 * (t - root) ** 2], calls)
    t, steps = scan._refine(at, 0.6, 0.615, 0.63)
    assert abs(t - root) < 1e-12
    assert 1 <= steps <= 5
    assert len(calls) == steps + 3          # the bracket, then one per step


def test_refine_double_zero():
    root = math.sqrt(2.0 / 3.0)
    at = synthetic(lambda t: [160.0 * (t - root) ** 2,
                              40.0 * (t - root) ** 2 + (t - root) ** 3])
    t, steps = scan._refine(at, 0.81, 0.816, 0.822)
    assert abs(t - root) < 1e-6
    assert steps < 60


def test_refine_positive_minimum_stays_in_bracket():
    # ||T|| >= 0.3 everywhere, smallest at t = 0.42: no root to find
    calls = []
    at = synthetic(lambda t: [t - 0.42, 0.3 + (t - 0.42) ** 2], calls)
    a, b = 0.4, 0.45
    t, steps = scan._refine(at, a, 0.41, b)
    assert a <= t <= b
    assert all(a <= c <= b for c in calls)
    assert abs(t - 0.42) < 1e-6
    assert at(t).tau_max >= 0.3


def test_refine_golden_fallback():
    # T is even around 0, so the secant through t0 = a and t1 = x is nearly
    # flat and its step lands beyond b; the golden-section point replaces it
    calls = []
    at = synthetic(lambda t: [t * t, 1.0], calls)
    a, x, b = -0.11, 0.1, 1.0
    secant = x - (x * x) * (x * x - a * a) * (x - a) / (x * x - a * a) ** 2
    assert secant > b
    t, steps = scan._refine(at, a, x, b)
    assert calls[3] == x + scan.GOLDEN * (b - x)
    assert a <= t <= b and abs(t) < 1e-6


def test_proper_root_refinement_cost(monkeypatch):
    """Profile evaluations spent in refinement, counted as the benchmark
    tracer counts them: calls of the profile closure that miss its cache
    while ``_refine`` runs."""
    count = {"refine_evals": 0}
    refining = [False]
    profile, refine = scan._profile, scan._refine

    def counted_profile(family, points, cache):
        at = profile(family, points, cache)

        def wrapped(t):
            if refining[0] and float(t) not in cache:
                count["refine_evals"] += 1
            return at(t)
        return wrapped

    def flagged_refine(*args, **kwargs):
        refining[0] = True
        try:
            return refine(*args, **kwargs)
        finally:
            refining[0] = False

    monkeypatch.setattr(scan, "_profile", counted_profile)
    monkeypatch.setattr(scan, "_refine", flagged_refine)
    res = sweep(FamilySpec(tag="small-hypersphere", param_name="r", lo=0.6,
                           hi=0.8, steps=30, fixed={"m": 2},
                           samples_per_point=4))
    assert len(res.roots) == 1
    assert abs(res.roots[0].param - ROOT2INV) < 1e-11
    assert count["refine_evals"] <= 8
    assert res.roots[0].bisection_iterations == count["refine_evals"]


# ---------------------------------------------------------------------------
# stacked members: the grid's parameter values share chart passes and tau2
# stages, and each value's Profile equals the one-value evaluation they
# replaced (kept here as the reference)


def profile_one_value(family, points, t):
    """The Profile at one parameter value, evaluated alone in blocks of
    ``extrinsic.block_size``; the first failing point's error is raised."""
    spec = family.chart_at(t)
    vecs, H_vecs, hs = [], [], []
    size = extrinsic.block_size(spec.m)
    for start in range(0, len(points), size):
        out = extrinsic.tau2_block(spec, points[start:start + size])
        error = next(filter(None, out.errors), None)
        if error is not None:
            raise error
        vecs.extend(biharmonic.tau2_direct(out))
        H_vecs.extend(out.H)
        hs.extend(out.H_norm)
    taus = [float(np.linalg.norm(v)) for v in vecs]
    verdict = biharmonic._verdict(max(taus), max(hs), min(hs),
                                  family.pass_tol, family.fail_tol)
    return scan.Profile(max(taus), float(np.mean(taus)), max(hs), verdict,
                        np.concatenate(vecs), np.concatenate(H_vecs))


SPHERE_FAMILY = {
    "name": "S2(r) x {sqrt(1 - r^2)}", "m": 2, "n": 3,
    "expressions": ["r * sin(u1) * cos(u2)", "r * sin(u1) * sin(u2)", "r * cos(u1)",
                    "sqrt(1 - r^2)"],
    "domain": [[0.0, math.pi], [0.0, 2.0 * math.pi]],
    "params": {"r": 0.5},
}
PRODUCT_REF = {"catalog": {"tag": "product-spheres", "params": {"m1": 2, "m2": 1}}}
# from c ~ 0.6 up some sample points fail the sqrt, so errors sit inside
# stacked runs
POLE_FAMILY = {
    "name": "pole-crossing", "m": 2, "n": 3,
    "expressions": ["cos(u1) * sin(u2)", "sin(u1) * sin(u2)", "cos(u2)",
                    "sin(u2) * sqrt(u1 - c)"],
    "domain": [[0.0, 6.28], [-1.5, 1.5]],
    "params": {"c": 1.0},
    "normalize": True,
}
STACKED_FAMILIES = {
    **ROOT_FAMILIES,
    "param-leaf": dict(doc=SPHERE_FAMILY, param_name="r", lo=0.3, hi=0.95),
    "catalog-ref": dict(doc=PRODUCT_REF, param_name="r", lo=0.3, hi=0.95),
    "pole-crossing": dict(doc=POLE_FAMILY, param_name="c", lo=0.0, hi=3.0),
    # points drawn at m = 3: m = 1, 2, 4, 5 fail the whole chart pass, and
    # the half-integer values fail to build
    "mixed-m": dict(tag="small-hypersphere", param_name="m", lo=1.0, hi=5.0,
                    fixed={"r": ROOT2INV}),
}


def assert_same_profile(got, ref):
    assert type(got) is type(ref)
    if isinstance(ref, Exception):
        assert str(got) == str(ref)
        return
    for a, b in zip(got[:3], ref[:3]):
        assert float.hex(a) == float.hex(b)
    assert got.verdict == ref.verdict
    assert got.tau2.tobytes() == ref.tau2.tobytes()
    assert got.H.tobytes() == ref.H.tobytes()


@pytest.mark.parametrize("samples", [1, 5, 8, 33, 40, 70])
@pytest.mark.parametrize("name", STACKED_FAMILIES)
def test_stacked_profiles_equal_one_value_profiles(name, samples):
    # 14 values of 5 points split a value across two chart passes; 33 and 40
    # cross tau2 blocks and passes; 70 points span two passes per value
    steps = 9 if name == "mixed-m" else 14
    family = FamilySpec(steps=steps, samples_per_point=samples, seed=3,
                        **STACKED_FAMILIES[name])
    mid = family.chart_at(0.5 * (family.lo + family.hi))
    points = chart.sample_points(mid, samples, family.seed)
    ts = [float(t) for t in np.linspace(family.lo, family.hi, steps)]
    refs = []
    for t in ts:
        try:
            refs.append(profile_one_value(family, points, t))
        except (chart.ChartError, extrinsic.GeometryError) as e:
            refs.append(e)
    for got, ref in zip(scan._profiles(family, points, ts), refs):
        assert_same_profile(got, ref)
    # a lone value, as refinement evaluates it
    at = scan._profile(family, points, {})
    for t, ref in zip(ts[::5], refs[::5]):
        try:
            got = at(t)
        except ValueError as e:
            got = e
        assert_same_profile(got, ref)
    if name == "mixed-m":
        assert [type(r).__name__ for r in refs] == ["ChartError"] * 4 + ["Profile"] + [
            "ChartError"] * 4
        assert "expected a point with 1 coordinates" in str(refs[0])
    if name == "pole-crossing":
        assert any(isinstance(r, Exception) for r in refs)
        assert any(isinstance(r, scan.Profile) for r in refs)


@pytest.mark.parametrize("samples", [5, 33])
@pytest.mark.parametrize("odd", [0, 6, 13])
def test_profiles_group_around_a_chart_with_other_trees(odd, samples, monkeypatch):
    # one value's chart has the same m and n but other trees: it is a group
    # of its own, the values on either side of it stack in their own groups,
    # and every value's profile is still the one it gives alone
    family = FamilySpec(doc=SPHERE_FAMILY, param_name="r", lo=0.3, hi=0.95, steps=14,
                        samples_per_point=samples, seed=3)
    ts = [float(t) for t in np.linspace(family.lo, family.hi, family.steps)]
    points = chart.sample_points(family.chart_at(0.5 * (family.lo + family.hi)), samples,
                                 family.seed)
    same = profile_one_value(family, points, ts[odd])
    exprs = SPHERE_FAMILY["expressions"]
    other = dict(SPHERE_FAMILY, expressions=[f"-({exprs[0]})", *exprs[1:]])
    chart_at = family.chart_at
    family.chart_at = lambda t: (chart.family_chart(other, "r", t, {}) if t == ts[odd]
                                 else chart_at(t))
    assert family.chart_at(ts[odd]).m == chart_at(ts[odd]).m
    refs = [profile_one_value(family, points, t) for t in ts]
    assert refs[odd].tau2.tobytes() != same.tau2.tobytes()
    groups = []
    chart_blocks = extrinsic.chart_blocks
    monkeypatch.setattr(extrinsic, "chart_blocks", lambda spec, pts, params=None: (
        groups.append(len(pts)) or chart_blocks(spec, pts, params)))
    for got, ref in zip(scan._profiles(family, points, ts), refs):
        assert_same_profile(got, ref)
    assert groups == [samples * k for k in (odd, 1, 13 - odd) if k]
