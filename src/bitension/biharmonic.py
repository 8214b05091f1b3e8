"""Biharmonicity residuals, verdicts and quantity audits.

Every characterization is evaluated as a numeric residual that is zero
exactly when the corresponding equation holds:

* direct bitension   tau2 = -m (Delta H - m H), using the constant-curvature
  contraction trace R^S(dphi ., H) dphi . = -m H of the unit sphere;
* normal/tangent split of tau2,
      normal  = Delta-perp H + trace B(., A_H .) - m H,
      tangent = 2 trace A_{nabla-perp H}(.) + (m/2) grad |H|^2,
  with tau2 = -m (normal + tangent) as an internal cross-check;
* the hypersurface system
      (i)  Delta f = (m - |A|^2) f,
      (ii) A(grad f) = -(m/2) f grad f;
* the PMC system  trace B(A_H ., .) = m H  and its equivalent pair
      <A_H, A_xi> = 0 for xi normal to H,   |A_H|^2 = m |H|^2.

Verdicts: ``minimal`` when H vanishes at every sample, ``biharmonic-proper``
when tau2 vanishes and H does not, ``not-biharmonic`` when tau2 is clearly
nonzero, ``inconclusive`` in the gap between the two thresholds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import chart as chart_mod
from . import extrinsic
from .extrinsic import GeometryError, GeometryStack, PointGeometry

PASS_TOL = 1e-6
FAIL_TOL = 1e-3

VERDICT_PROPER = "biharmonic-proper"
VERDICT_MINIMAL = "minimal"
VERDICT_NOT = "not-biharmonic"
VERDICT_INCONCLUSIVE = "inconclusive"


class AllSamplesFailed(RuntimeError):
    """Every sample point failed to evaluate; no verdict is possible."""


# ---------------------------------------------------------------------------
# per-sample residuals
# ---------------------------------------------------------------------------


def tau2_direct(geom: PointGeometry) -> np.ndarray:
    """Bitension field at the point, as an ambient vector; on an
    ``extrinsic.Tau2Block`` or a ``GeometryStack`` the same formula gives
    one row per point."""
    return -geom.m * (geom.delta_H - geom.m * geom.H)


def split_residuals(geom: PointGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Normal and tangent residual vectors of the split characterization
    (one row per point of a ``GeometryStack``)."""
    normal = geom.delta_perp_H + geom.trace_B_AH - geom.m * geom.H
    tangent = 2.0 * geom.trace_A_nablaH + 0.5 * geom.m * geom.grad_H2
    return normal, tangent


def hypersurface_residuals(geom: PointGeometry | GeometryStack):
    """(|Delta f - (m - |A|^2) f|, ||A(grad f) + (m/2) f grad f||): two floats
    at a ``PointGeometry``, two arrays of one value per point of a
    ``GeometryStack``."""
    if isinstance(geom, PointGeometry):
        res_i, res_ii = hypersurface_residuals(GeometryStack([geom]))
        return float(res_i[0]), float(res_ii[0])
    if not geom.hypersurface:
        raise GeometryError("hypersurface residuals require n = m + 1")
    res_i = np.abs(geom.delta_f - (geom.m - geom.A2) * geom.f)
    gf_frame = geom.tangent_frame @ geom.grad_f[..., None]         # [p, a, 1]
    a_gf = ((geom.A @ gf_frame).swapaxes(-1, -2) @ geom.tangent_frame)[:, 0]
    res_ii = _norms(a_gf + (0.5 * geom.m * geom.f)[:, None] * geom.grad_f)
    return res_i, res_ii


def _norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a (P, n) block: sqrt(<v, v>) of a
    contiguous row."""
    rows = np.ascontiguousarray(rows)
    return np.sqrt(extrinsic._dot(rows, rows))


# ---------------------------------------------------------------------------
# PMC block
# ---------------------------------------------------------------------------


@dataclass
class PMCBlock:
    parallel_norm: float          # max ||nabla-perp H|| over samples
    eq4_norm: float               # max ||trace B(A_H ., .) - m H||
    eq5a: float                   # max |<A_H, A_xi>| over xi normal to H
    eq5b: float                   # max | |A_H|^2 - m |H|^2 |
    applicable: bool              # parallel_norm < pass_tol
    equivalence_ok: bool | None   # eq4 and eq5 verdicts agree (when applicable)
    samples_with_H: int


def pmc_check(geoms: list[PointGeometry], pass_tol: float = PASS_TOL) -> PMCBlock:
    """Evaluate the parallel-mean-curvature characterization over samples.

    Samples where H vanishes contribute only to the minimality side: the
    normal-frame completion of H/|H| is undefined there.

    One block pass over the samples with H (``extrinsic.GeometryStack``):
    each point completes H/|H| to its normal frame with the pivoted block
    Gram-Schmidt of the tangent frames (``extrinsic._block_mgs``), and a
    point's xi from its first step below 1e-13 on are dropped, where a lone
    point's pass stops.  Each value is the one that point's own pass gives.
    Only the maxima stay per point: Python's ``max`` over the values in
    sample order, which keeps the first of equal values and passes over NaN
    as a sample-by-sample loop does, so the block is that loop to the bit.
    """
    if not geoms:
        raise GeometryError("pmc_check needs at least one sample")
    parallel = max([0.0] + [g.nabla_perp_H_norm for g in geoms])
    eq4 = eq5a = eq5b = 0.0
    with_h = [g for g in geoms if g.H_norm > pass_tol]
    if with_h:
        g = GeometryStack(with_h)
        eq4 = max([0.0] + _norms(g.trace_B_AH - g.m * g.H).tolist())
        eq5b = max([0.0] + np.abs(g.AH2 - g.m * g.H2).tolist())
        # complete H/|H| to an orthonormal normal frame and test the spanning set
        u0 = g.H / g.H_norm[:, None]
        N = g.normal_frame                                          # [p, x, c]
        rest = N - (N @ u0[..., None]) * u0[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):       # the dropped steps
            xi, tops = extrinsic._block_mgs(rest)                   # [p, y, c]
        kept = np.logical_and.accumulate(~(tops < 1e-13), axis=-1)
        coeffs = (N[:, None] @ xi[..., None])[..., 0]               # [p, y, x]
        a_xi = np.einsum("pyx,pxab->pyab", coeffs, g.B_frame)
        dots = (g.A_H[:, None] * a_xi).reshape(kept.shape + (-1,)).sum(axis=-1)
        eq5a = max([0.0] + np.abs(dots[kept]).tolist())
    applicable = parallel < pass_tol
    equivalence: bool | None = None
    if applicable and with_h:
        equivalence = (eq4 < pass_tol) == (eq5a < pass_tol and eq5b < pass_tol)
    return PMCBlock(
        parallel_norm=parallel, eq4_norm=eq4, eq5a=eq5a, eq5b=eq5b,
        applicable=applicable, equivalence_ok=equivalence, samples_with_H=len(with_h),
    )


# ---------------------------------------------------------------------------
# whole-chart evaluation
# ---------------------------------------------------------------------------


@dataclass
class SampleRecord:
    point: tuple
    tau2_norm: float
    split_normal_norm: float
    split_tangent_norm: float
    split_gap: float
    H_norm: float
    B2: float
    nabla_perp_H_norm: float
    scalar_curvature: float | None
    hyper_i: float | None = None
    hyper_ii: float | None = None
    A2: float | None = None
    f: float | None = None


@dataclass
class AuditEntry:
    name: str
    measured: float
    predicted: float | None
    deviation: float
    ok: bool
    note: str = ""


@dataclass
class ResidualReport:
    chart: dict
    samples_used: int
    samples_requested: int
    seed: int
    pass_tol: float
    fail_tol: float
    per_sample: list[SampleRecord]
    pmc: PMCBlock
    verdict: str
    failures: list[str] = field(default_factory=list)
    audit: list[AuditEntry] = field(default_factory=list)

    # aggregate helpers ----------------------------------------------------

    def _values(self, attr: str) -> list:
        return [getattr(s, attr) for s in self.per_sample if getattr(s, attr) is not None]

    def max_of(self, attr: str) -> float:
        return max(self._values(attr), default=0.0)

    def min_of(self, attr: str) -> float:
        return min(self._values(attr), default=0.0)

    def mean_of(self, attr: str) -> float:
        vals = self._values(attr)
        return float(sum(vals) / len(vals)) if vals else 0.0

    def _stats(self, attr: str) -> dict:
        return {"min": self.min_of(attr), "max": self.max_of(attr),
                "mean": self.mean_of(attr)}

    @property
    def hypersurface(self) -> bool:
        return self.chart["n"] == self.chart["m"] + 1

    def quantities(self) -> dict:
        h = self._stats("H_norm")
        out = {
            "H_norm": h,
            "B2": self._stats("B2"),
            "cmc": (h["max"] - h["min"]) <= 1e-6 * (1.0 + h["max"]),
            "minimal": h["max"] < self.pass_tol,
        }
        names = ["scalar_curvature"] if self.chart["m"] >= 2 else []
        if self.hypersurface:
            names += ["A2", "f"]
        for name in names:
            out[name] = self._stats(name)
        return out

    def residual_summary(self) -> dict:
        m = self.chart["m"]

        def norm_block(attr: str) -> dict:
            return {
                "max": self.max_of(attr),
                "mean": self.mean_of(attr),
                "max_normalized": max(
                    (getattr(s, attr) / (m * (1.0 + s.H_norm ** 2))
                     for s in self.per_sample),
                    default=0.0,
                ),
            }

        out = {
            "tau2_direct_norm": norm_block("tau2_norm"),
            "split_normal_norm": norm_block("split_normal_norm"),
            "split_tangent_norm": norm_block("split_tangent_norm"),
            "split_direct_gap": {"max": self.max_of("split_gap")},
            "pmc": asdict(self.pmc),
        }
        if self.hypersurface:
            for attr in ("hyper_i", "hyper_ii"):
                out[f"{attr}_residual"] = {"max": self.max_of(attr),
                                           "mean": self.mean_of(attr)}
        return out

    def to_report_dict(self, config_echo: dict | None = None, tool_version: str = "") -> dict:
        return {
            "tool_version": tool_version,
            "config_echo": config_echo or {},
            "chart": self.chart,
            "samples": self.samples_used,
            "seed": self.seed,
            "thresholds": {"pass_tol": self.pass_tol, "fail_tol": self.fail_tol},
            "residuals": self.residual_summary(),
            "quantities": self.quantities(),
            "per_sample": [dict(vars(s)) for s in self.per_sample],
            "failures": list(self.failures),
            "audit": [asdict(a) for a in self.audit],
            "verdict": self.verdict,
        }


def sample_records(geoms: list[PointGeometry]) -> list[SampleRecord]:
    """The ``SampleRecord`` of each point of one block: every residual norm,
    the scalar curvature and the hypersurface residuals in one pass over the
    point axis (``extrinsic.GeometryStack``), each value the one that point
    alone gives."""
    g = GeometryStack(geoms)
    tau = tau2_direct(g)
    normal, tangent = split_residuals(g)
    columns = dict(
        point=[tuple(p) for p in g.point.tolist()],
        tau2_norm=_norms(tau),
        split_normal_norm=_norms(normal),
        split_tangent_norm=_norms(tangent),
        split_gap=_norms(tau + g.m * (normal + tangent)),
        H_norm=g.H_norm, B2=g.B2, nabla_perp_H_norm=g.nabla_perp_H_norm,
        scalar_curvature=extrinsic.scalar_curvature(g) if g.m >= 2 else [None] * len(g),
    )
    if g.hypersurface:
        columns["hyper_i"], columns["hyper_ii"] = hypersurface_residuals(g)
        columns["A2"], columns["f"] = g.A2, g.f
    values = [v.tolist() if isinstance(v, np.ndarray) else v for v in columns.values()]
    return [SampleRecord(**dict(zip(columns, row))) for row in zip(*values)]


def _verdict(tau_max: float, h_max: float, h_min: float,
             pass_tol: float, fail_tol: float) -> str:
    if h_max < pass_tol:
        return VERDICT_MINIMAL
    if tau_max < pass_tol and h_min > pass_tol:
        return VERDICT_PROPER
    if tau_max > fail_tol:
        return VERDICT_NOT
    return VERDICT_INCONCLUSIVE


def evaluate_chart(
    spec: chart_mod.ChartSpec,
    samples: int = 64,
    seed: int = 42,
    pass_tol: float = PASS_TOL,
    fail_tol: float = FAIL_TOL,
) -> ResidualReport:
    """Evaluate every characterization over deterministic samples.

    A sample point whose geometry fails (off the sphere, rank-deficient
    (metric condition >= 1e8), outside the domain, non-finite) is skipped and its
    message kept in ``failures``.  The samples are evaluated in geometry
    blocks (``extrinsic.sample_blocks``), and the records of each block's
    good points in one residual pass over the point axis
    (``sample_records``), so the residual stage never holds more points than
    ``extrinsic.block_size``; ``pmc_check`` then makes one pass over all good
    samples, whose temporaries are small.  Only the ``SampleRecord`` objects
    and the maxima over samples are per point, in sample order.  Results and
    messages are those of one-point evaluation, to the bit.  Only a proper
    verdict is audited (``quantity_audit``).
    """
    if not 0 < pass_tol < fail_tol:
        raise ValueError("tolerances must satisfy 0 < pass_tol < fail_tol")
    good: list[PointGeometry] = []
    failures: list[str] = []
    records: list[SampleRecord] = []
    points = chart_mod.sample_points(spec, samples, seed)
    for block in extrinsic.sample_blocks(spec, points):
        geoms = [g for g in block if isinstance(g, PointGeometry)]
        failures += [str(g) for g in block if not isinstance(g, PointGeometry)]
        if geoms:
            records += sample_records(geoms)
            good += geoms
    if not good:
        raise AllSamplesFailed(
            f"all {samples} samples failed; first failure: {failures[0]}"
        )

    pmc = pmc_check(good, pass_tol)
    report = ResidualReport(
        chart=spec.describe(),
        samples_used=len(good),
        samples_requested=samples,
        seed=seed,
        pass_tol=pass_tol,
        fail_tol=fail_tol,
        per_sample=records,
        pmc=pmc,
        verdict=_verdict(
            max(r.tau2_norm for r in records),
            max(r.H_norm for r in records),
            min(r.H_norm for r in records),
            pass_tol,
            fail_tol,
        ),
        failures=failures,
    )
    if report.verdict == VERDICT_PROPER:
        report.audit = quantity_audit(report)
    return report


# ---------------------------------------------------------------------------
# quantity audit (proper biharmonic charts only)
# ---------------------------------------------------------------------------

_SPECIAL_B2 = {"flat-torus value": 6.0, "Veronese value": 14.0 / 3.0}
_AUDIT_TOL = 1e-6


def quantity_audit(report: ResidualReport) -> list[AuditEntry]:
    """Check the reported invariants of a proper biharmonic chart against the
    constant-mean-curvature, hypersurface and PMC predictions."""
    if report.verdict != VERDICT_PROPER:
        raise ValueError("quantity_audit applies to biharmonic-proper reports")
    m = report.chart["m"]
    q = report.quantities()
    entries: list[AuditEntry] = []
    h = q["H_norm"]["mean"]

    if q["cmc"]:
        dev = max(0.0, h - 1.0)
        entries.append(AuditEntry(
            name="cmc-mean-curvature-range", measured=h, predicted=None,
            deviation=dev, ok=(0.0 < h <= 1.0 + _AUDIT_TOL),
            note="CMC proper biharmonic requires |H| in (0, 1]",
        ))
        if abs(h - 1.0) <= _AUDIT_TOL:
            entries.append(AuditEntry(
                name="mean-curvature-composition-locus", measured=h, predicted=1.0,
                deviation=abs(h - 1.0), ok=True,
                note="|H| = 1: induces a minimal immersion into a small "
                     "hypersphere of radius 1/sqrt(2)",
            ))

    if report.hypersurface:
        a2 = q["A2"]["mean"]
        entries.append(AuditEntry(
            name="shape-operator-norm", measured=a2, predicted=float(m),
            deviation=abs(a2 - m), ok=abs(a2 - m) <= _AUDIT_TOL,
            note="CMC proper biharmonic hypersurfaces have |A|^2 = m",
        ))
        if m >= 2:    # a curve has no scalar curvature
            s_meas = q["scalar_curvature"]["mean"]
            s_pred = m * m * (1.0 + h * h) - 2.0 * m
            entries.append(AuditEntry(
                name="scalar-curvature", measured=s_meas, predicted=s_pred,
                deviation=abs(s_meas - s_pred), ok=abs(s_meas - s_pred) <= 1e-5,
                note="s = m^2 (1 + |H|^2) - 2m, constant and positive",
            ))
        if m > 2 and q["cmc"]:
            bound = (m - 2.0) / m
            in_low = h <= bound + _AUDIT_TOL
            at_one = abs(h - 1.0) <= _AUDIT_TOL
            note = "|H| must lie in (0, (m-2)/m] or equal 1"
            if abs(h - bound) <= _AUDIT_TOL:
                note += "; boundary case |H| = (m-2)/m: locus of the standard "
                note += "product S^{m-1} x S^1 of radii 1/sqrt(2)"
            if at_one:
                note += "; |H| = 1: small-hypersphere locus"
            entries.append(AuditEntry(
                name="mean-curvature-dichotomy", measured=h, predicted=bound,
                deviation=0.0 if (in_low or at_one) else min(abs(h - 1.0), h - bound),
                ok=in_low or at_one, note=note,
            ))

    if report.pmc.applicable:
        b2 = q["B2"]["mean"]
        entries.append(AuditEntry(
            name="second-fundamental-form-lower-bound", measured=b2,
            predicted=float(m), deviation=max(0.0, m - b2),
            ok=b2 >= m - _AUDIT_TOL,
            note="PMC proper biharmonic requires m <= |B|^2"
                 + ("; equality: reduces to a CMC hypersurface of a totally "
                    "geodesic subsphere" if abs(b2 - m) <= _AUDIT_TOL else ""),
        ))
        if m == 2:
            for label, value in _SPECIAL_B2.items():
                if abs(b2 - value) <= 1e-4:
                    entries.append(AuditEntry(
                        name="b-norm-special-value", measured=b2, predicted=value,
                        deviation=abs(b2 - value), ok=True,
                        note=f"|B|^2 matches the parallel-surface {label}",
                    ))
        if m > 2 and abs(b2 - 3.0 * m) <= 1e-4:
            entries.append(AuditEntry(
                name="b-norm-special-value", measured=b2, predicted=3.0 * m,
                deviation=abs(b2 - 3.0 * m), ok=True,
                note="|B|^2 = 3m: product-of-spheres value in codimension 2",
            ))
    return entries
