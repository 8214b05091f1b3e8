"""Residual profiles over 1-parameter chart families and root location.

The aggregate residual driving the root search is the maximum of ||tau2||
over a fixed set of sample points (the biharmonic locus needs the residual
to vanish everywhere, so the max is the conservative aggregate; the same
points are reused at every parameter value, which keeps the profile smooth
in the parameter).

Minima of the profile below the failure threshold are bracketed on the grid
and refined by secant steps on the signed, stacked tau2 vector of the sample
points, safeguarded by golden-section steps inside the bracket (see
``_refine``); parameter tolerance 1e-8, one order below the 1e-6 reporting
precision.  A proper biharmonic root is a simple zero of that vector and
takes a few steps; a minimal member is a double zero and takes about 25.
A refined root is judged on its profile at the refined parameter, as a grid
row is, and reported only if proper biharmonic or minimal below pass_tol.
Where |A|^2 = m at a minimal member, tau2 = m |H| (|A|^2 - m) eta vanishes
to second order, and the secant can stall in rounding noise near it while
|H| is still above pass_tol; a root that reads proper therefore takes one
secant step on the stacked mean curvature vector H, and is replaced by the
minimal member found there (``_minimal_member``).

The profile reads only tau2 and |H| (``extrinsic.tau2_block``), never the
full geometry package, so a parameter value fails only on the checks those
two depend on: a chart or domain error, non-finite chart jets, a point off
the sphere, a rank-deficient metric, a non-finite field of the tau2 stage or
tau2 norm, reported with the error of the first failing sample point.  The
tangent and normal frame checks, and the finiteness of the fields a scan
never reads, guard only the full package (``extrinsic.geometry_block``).

The grid's values are evaluated stacked (``_profiles``): every value's
chart ("member") is built first, and consecutive members whose charts
differ only in their parameter values (the catalog builders and chart
documents give every member of a family the same parsed trees) form one
group.  A group's sample points are rows of one point axis, member after
member, with each parameter one value per row, and its tau2 blocks read
the passes of ``extrinsic.chart_blocks``, the loop verify reads too: one
``chart.eval_jet_stack`` pass per ``extrinsic.CHART_RUN`` rows and one tau2
stage per ``extrinsic.block_size(m)`` rows of a pass, across member
boundaries (at m <= 2 the whole pass).  Rows never mix, so each member's
Profile, or its error, cut back out of the rows is bit for bit what the
member alone gives.  Refinement evaluates one value at a time through the
same code, and the errors are memoized with the profiles (``_profile``).

Grid endpoints are never reported as interior roots; an endpoint where the
profile is still falling is labeled separately as boundary behavior (the
small-hypersphere family ends in the minimal equator at r = 1 this way).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import biharmonic, chart as chart_mod, extrinsic

PARAM_TOL = 1e-8
GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0


class ScanError(ValueError):
    """Invalid family specification."""


@dataclass
class FamilySpec:
    """A catalog tag or chart document with one designated free parameter."""

    param_name: str
    lo: float
    hi: float
    steps: int
    tag: str | None = None
    doc: dict | None = None
    fixed: dict = field(default_factory=dict)
    samples_per_point: int = 8
    seed: int = 42
    pass_tol: float = biharmonic.PASS_TOL
    fail_tol: float = biharmonic.FAIL_TOL

    def __post_init__(self):
        if (self.tag is None) == (self.doc is None):
            raise ScanError("exactly one of tag/doc must be given")
        if self.steps < 8:
            raise ScanError(f"steps must be >= 8, got {self.steps}")
        if not self.lo < self.hi:
            raise ScanError(f"empty parameter range [{self.lo}, {self.hi}]")
        if math.isinf(self.hi - self.lo) and math.isfinite(self.lo) and math.isfinite(self.hi):
            raise ScanError(f"parameter range [{self.lo}, {self.hi}] is wider than the largest float")
        if self.samples_per_point < 1:
            raise ScanError("samples_per_point must be positive")
        if not 0 < self.pass_tol < self.fail_tol:
            raise ScanError("tolerances must satisfy 0 < pass_tol < fail_tol")
        if self.steps * self.samples_per_point > biharmonic.BUDGET:
            raise ScanError(
                f"steps * samples_per_point exceeds the budget {biharmonic.BUDGET}"
            )
        # the chart must read every parameter given, and the range must sit
        # inside the admissible parameter domain
        for t in (self.lo, self.hi):
            try:
                self.chart_at(t)
            except chart_mod.UnreadParamError as e:
                raise ScanError(str(e)) from e
            except chart_mod.ChartError as e:
                raise ScanError(
                    f"parameter value {t} outside the admissible domain: {e}"
                ) from e
        mid = self.midpoint
        try:
            self.chart_at(mid)
        except chart_mod.ChartError as e:
            raise ScanError(f"the sample points are drawn at the range midpoint {mid}, "
                            f"where no chart builds: {e}") from e

    @property
    def midpoint(self) -> float:
        """The parameter value the sample points are drawn at.  The halves
        are added, so ends whose sum overflows have a finite midpoint."""
        return 0.5 * self.lo + 0.5 * self.hi

    def chart_at(self, t: float) -> chart_mod.ChartSpec:
        doc = self.doc if self.tag is None else chart_mod.chart_document(self.tag)
        return chart_mod.family_chart(doc, self.param_name, float(t), self.fixed)

    def describe(self) -> dict:
        d = {
            "param": self.param_name,
            "range": [self.lo, self.hi],
            "steps": self.steps,
            "samples_per_point": self.samples_per_point,
            "seed": self.seed,
            "thresholds": {"pass_tol": self.pass_tol, "fail_tol": self.fail_tol},
        }
        if self.tag is not None:
            d["catalog"] = self.tag
            if self.fixed:
                d["fixed_params"] = dict(self.fixed)
        else:
            d["chart"] = self.doc.get("name", "custom")
        return d


@dataclass
class GridRow:
    param: float
    max_residual: float | None
    mean_residual: float | None
    H_norm: float | None
    verdict: str
    error: str | None = None


@dataclass
class Root:
    param: float
    residual: float
    classification: str  # 'proper-biharmonic' | 'minimal'
    bisection_iterations: int
    H_norm: float


@dataclass
class ScanResult:
    family: dict
    grid: list[GridRow]
    roots: list[Root]
    boundary: list[dict]

    def to_csv(self) -> str:
        lines = ["param,max_residual,mean_residual,H_norm,verdict"]
        for r in self.grid:
            if r.error is not None:
                lines.append(f"{r.param!r},,,,{r.verdict}")
            else:
                lines.append(
                    f"{r.param!r},{r.max_residual!r},{r.mean_residual!r},"
                    f"{r.H_norm!r},{r.verdict}"
                )
        for root in self.roots:
            lines.append(
                f"{root.param!r},{root.residual!r},{root.residual!r},"
                f"{root.H_norm!r},root:{root.classification}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------


class Profile(NamedTuple):
    """The residual profile at one parameter value."""

    tau_max: float          # max ||tau2|| over the sample points
    tau_mean: float
    h_max: float
    verdict: str            # biharmonic._verdict of these samples
    tau2: np.ndarray        # every point's tau2_direct vector, concatenated
    H: np.ndarray           # every point's mean curvature vector, concatenated


def _profile(family: FamilySpec, points: np.ndarray, cache: dict):
    """The Profile at one parameter value, memoized with the errors: ``at(t)``
    returns ``cache[t]`` (``sweep`` fills it with the grid), or evaluates
    the one value through ``_profiles``; a stored error is raised."""

    def at(t: float) -> Profile:
        key = float(t)
        out = cache.get(key)
        if out is None:
            out = cache[key] = _profiles(family, points, [key])[0]
        if isinstance(out, Profile):
            return out
        raise out

    return at


def _profiles(family: FamilySpec, points: np.ndarray, ts) -> list:
    """The Profile at each parameter value of ``ts``, or the error of its
    first failing sample point (a ``ChartError`` or ``GeometryError``).

    Every value's chart is built first.  Consecutive members whose charts
    differ only in their parameter values (``_chart_shape``) form a group,
    whose members' sample points are stacked, member after member, as rows
    of one point axis, each parameter one value per row; the group's tau2
    blocks read the passes of ``extrinsic.chart_blocks`` over those rows,
    across member boundaries, and every row gets the bits of its point's
    one-point block.  A pass that raises (sample points with the wrong
    number of coordinates) fails every member of its group.
    """
    outcomes: list = []
    for t in ts:
        try:
            outcomes.append(family.chart_at(t))
        except chart_mod.ChartError as e:
            outcomes.append(e)
    members = [(i, s) for i, s in enumerate(outcomes) if isinstance(s, chart_mod.ChartSpec)]
    P = len(points)
    for _, group in itertools.groupby(members, key=lambda member: _chart_shape(member[1])):
        group = list(group)
        spec = group[0][1]
        params = {k: np.repeat([s.params[k] for _, s in group], P) for k in spec.params}
        tau2, H = np.empty((2, len(group) * P, spec.n + 1))
        hs: list = []
        errors: list = []
        try:
            for block, chart_jets in extrinsic.chart_blocks(
                    spec, np.tile(points, (len(group), 1)), params):
                out = extrinsic.tau2_block(spec, block, chart_jets)
                rows = slice(len(hs), len(hs) + len(block))
                tau2[rows] = biharmonic.tau2_direct(out)
                H[rows] = out.H
                hs += out.H_norm.tolist()
                errors += out.errors
        except chart_mod.ChartError as e:
            for i, _ in group:
                outcomes[i] = e
            continue
        norms = biharmonic._norms(tau2)
        extrinsic._fail(errors, ~np.isfinite(norms), "non-finite tau2 norm at the sample point")
        for j, (i, _) in enumerate(group):
            rows = slice(j * P, (j + 1) * P)
            error = next(filter(None, errors[rows]), None)
            if error is not None:
                outcomes[i] = error
                continue
            taus, h = norms[rows].tolist(), hs[rows]
            verdict = biharmonic._verdict(max(taus), max(h), min(h),
                                          family.pass_tol, family.fail_tol)
            outcomes[i] = Profile(max(taus), float(np.mean(taus)), max(h), verdict,
                                  tau2[rows].ravel(), H[rows].ravel())
    return outcomes


def _chart_shape(spec: chart_mod.ChartSpec) -> tuple:
    """Equal for two charts that differ only in their parameter values."""
    return (spec.m, spec.n, spec.domain, spec.normalize, spec.components,
            tuple(spec.params))


def _refine(profile_at, a: float, x: float, b: float):
    """Locate the minimum of the residual profile in the bracket a < x < b,
    where f = max ||tau2|| satisfies f(x) <= f(a), f(b).

    Each step is one profile evaluation.  It is a secant step on the stacked
    tau2 vector T of the last two iterates t0, t1: the zero of the linear
    model through T(t0), T(t1) in the least-squares sense,
    t1 - <T1, T1 - T0> (t1 - t0) / ||T1 - T0||^2.  T is smooth through a
    simple root, where the secant converges superlinearly, and through the
    double zero of a minimal member, where it converges linearly; f itself
    has a kink at a simple root.  A step that leaves the bracket is replaced
    by a golden-section step into the larger side, and the bracket shrinks
    on f as in golden-section search.  Refinement stops when a secant step
    is shorter than PARAM_TOL / 2, returning that step's end point, or when
    the bracket is no wider than PARAM_TOL, returning its best point.

    Returns (t, steps): the located parameter and the evaluations spent.
    """
    fx = profile_at(x).tau_max
    t0 = a if profile_at(a).tau_max <= profile_at(b).tau_max else b
    t1 = x
    steps = 0
    while b - a > PARAM_TOL and steps < 200:
        T0, T1 = profile_at(t0).tau2, profile_at(t1).tau2
        d = T1 - T0
        dd = float(d @ d)
        t = t1 - float(T1 @ d) * (t1 - t0) / dd if dd > 0.0 else math.nan
        if not a < t < b:                   # NaN included
            t = x + GOLDEN * (b - x) if x - a < b - x else x - GOLDEN * (x - a)
        elif abs(t - t1) < 0.5 * PARAM_TOL:
            return t, steps
        ft = profile_at(t).tau_max
        steps += 1
        if ft <= fx:
            a, b = (a, x) if t < x else (x, b)
            x, fx = t, ft
        elif t < x:
            a = t
        else:
            b = t
        t0, t1 = t1, t
    return x, steps


def _minimal_member(profile_at, t: float, t_grid: float):
    """(t, profile) of the minimal member next to a proper-looking root, or
    of the root itself.

    At a minimal member where |A|^2 = m, tau2 = m |H| (|A|^2 - m) eta has a
    double zero that sinks into rounding noise about 1e-6 away from it,
    where |H| is still above pass_tol; the secant on tau2 stalls there, and
    the stall point reads as proper.  One secant step on the stacked H
    vector through t and the cached grid point t_grid,
    t - <H_t, H_t - H_g> (t - t_grid) / ||H_t - H_g||^2, finds where H
    vanishes; it is taken when it moves t by less than 1e-6 and the profile
    there is minimal.  A genuine proper root, with |H| of order 1, sends the
    step far away and costs no evaluation.
    """
    p = profile_at(t)
    H, d = p.H, p.H - profile_at(t_grid).H
    dd = float(d @ d)
    if dd > 0.0:
        t_H = t - float(H @ d) * (t - t_grid) / dd
        if abs(t_H - t) < 1e-6:
            q = profile_at(t_H)
            if q.verdict == biharmonic.VERDICT_MINIMAL:
                return t_H, q
    return t, p


_ROOT_CLASS = {biharmonic.VERDICT_PROPER: "proper-biharmonic",
               biharmonic.VERDICT_MINIMAL: "minimal"}


@np.errstate(all="ignore")
def sweep(family: FamilySpec) -> ScanResult:
    """Residual profile over the uniform grid plus the refined roots it passes.
    Overflow does not warn: a failed row's values mean nothing, a row whose
    tau2 norm is not finite fails, and ``_refine`` takes a golden-section
    step where a secant step is not finite."""
    ts = np.linspace(family.lo, family.hi, family.steps)
    mid_chart = family.chart_at(family.midpoint)
    points = chart_mod.sample_points(mid_chart, family.samples_per_point,
                                     family.seed)
    cache: dict = {}
    profile_at = _profile(family, points, cache)
    ts_float = [float(t) for t in ts]
    outcomes = _profiles(family, points, ts_float)
    cache.update(zip(ts_float, outcomes))

    grid: list[GridRow] = []
    values: list[float | None] = []
    for t, p in zip(ts_float, outcomes):
        if not isinstance(p, Profile):
            grid.append(GridRow(param=t, max_residual=None, mean_residual=None,
                                H_norm=None, verdict="error", error=str(p)))
            values.append(None)
            continue
        grid.append(GridRow(param=t, max_residual=p.tau_max,
                            mean_residual=p.tau_mean, H_norm=p.h_max,
                            verdict=p.verdict))
        values.append(p.tau_max)

    roots: list[Root] = []
    for i in range(1, family.steps - 1):
        v = values[i]
        if v is None or values[i - 1] is None or values[i + 1] is None:
            continue
        if not (v <= values[i - 1] and v <= values[i + 1]):
            continue
        # a zero crossed by the grid leaves a local minimum no larger than
        # one grid step of slope; a smooth positive minimum sits far above it
        slope_step = max(abs(v - values[i - 1]), abs(values[i + 1] - v))
        if not (v < family.fail_tol or v <= 0.75 * slope_step):
            continue
        try:
            t_root, iters = _refine(profile_at, float(ts[i - 1]), float(ts[i]),
                                    float(ts[i + 1]))
            p = profile_at(t_root)
            if p.verdict == biharmonic.VERDICT_PROPER:
                t_root, p = _minimal_member(profile_at, t_root, float(ts[i]))
        except (chart_mod.ChartError, extrinsic.GeometryError):
            continue
        cls = _ROOT_CLASS.get(p.verdict)
        if p.tau_max >= family.pass_tol or cls is None:
            continue
        if roots and abs(roots[-1].param - t_root) < 1e-6:
            continue
        roots.append(Root(param=float(t_root), residual=p.tau_max,
                          classification=cls, bisection_iterations=iters,
                          H_norm=p.h_max))
    roots.sort(key=lambda r: r.param)

    boundary: list[dict] = []
    for idx, side, edge in ((0, "lo", values[:3]), (-1, "hi", values[:-4:-1])):
        if None not in edge and edge[0] < edge[1] < edge[2]:
            boundary.append(_boundary_entry(grid, idx, side))

    return ScanResult(family=family.describe(), grid=grid, roots=roots,
                      boundary=boundary)


def _boundary_entry(grid: list[GridRow], idx: int, side: str) -> dict:
    row = grid[idx]
    prev = grid[idx - 1] if idx == -1 else grid[idx + 1]
    h_trend = (row.H_norm is not None and prev.H_norm is not None
               and row.H_norm < prev.H_norm)
    note = "residual still decreasing at the range boundary"
    if h_trend:
        note += "; |H| decreasing as well (minimal limit candidate)"
    return {"param": row.param, "side": side, "residual": row.max_residual,
            "H_norm": row.H_norm, "note": note}

