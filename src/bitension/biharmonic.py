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
from .extrinsic import GeometryError, PointGeometry

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
    ``extrinsic.Tau2Block`` the same formula gives one row per point."""
    return -geom.m * (geom.delta_H - geom.m * geom.H)


def split_residuals(geom: PointGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Normal and tangent residual vectors of the split characterization."""
    normal = geom.delta_perp_H + geom.trace_B_AH - geom.m * geom.H
    tangent = 2.0 * geom.trace_A_nablaH + 0.5 * geom.m * geom.grad_H2
    return normal, tangent


def hypersurface_residuals(geom: PointGeometry) -> tuple[float, float]:
    """(|Delta f - (m - |A|^2) f|, ||A(grad f) + (m/2) f grad f||)."""
    if not geom.hypersurface:
        raise GeometryError("hypersurface residuals require n = m + 1")
    res_i = abs(geom.delta_f - (geom.m - geom.A2) * geom.f)
    gf_frame = geom.tangent_frame @ geom.grad_f
    a_gf = (geom.A @ gf_frame) @ geom.tangent_frame
    res_ii = float(np.linalg.norm(a_gf + 0.5 * geom.m * geom.f * geom.grad_f))
    return res_i, res_ii


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
    """
    if not geoms:
        raise GeometryError("pmc_check needs at least one sample")
    parallel = 0.0
    eq4 = 0.0
    eq5a = 0.0
    eq5b = 0.0
    with_h = 0
    for g in geoms:
        parallel = max(parallel, g.nabla_perp_H_norm)
        if g.H_norm <= pass_tol:
            continue
        with_h += 1
        eq4 = max(eq4, float(np.linalg.norm(g.trace_B_AH - g.m * g.H)))
        eq5b = max(eq5b, abs(g.AH2 - g.m * g.H2))
        # complete H/|H| to an orthonormal normal frame and test the spanning set
        u0 = g.H / g.H_norm
        rest = g.normal_frame - np.outer(g.normal_frame @ u0, u0)
        for xi in extrinsic._mgs(rest):
            coeffs = g.normal_frame @ xi
            a_xi = np.einsum("x,xab->ab", coeffs, g.B_frame)
            eq5a = max(eq5a, abs(float(np.sum(g.A_H * a_xi))))
    applicable = parallel < pass_tol
    equivalence: bool | None = None
    if applicable and with_h:
        equivalence = (eq4 < pass_tol) == (eq5a < pass_tol and eq5b < pass_tol)
    return PMCBlock(
        parallel_norm=parallel, eq4_norm=eq4, eq5a=eq5a, eq5b=eq5b,
        applicable=applicable, equivalence_ok=equivalence, samples_with_H=with_h,
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
    message kept in ``failures``.  The samples are evaluated in blocks
    (``extrinsic.sample_geometries``); results and messages are those of
    one-point evaluation.  Only a proper verdict is audited (``quantity_audit``).
    """
    if not 0 < pass_tol < fail_tol:
        raise ValueError("tolerances must satisfy 0 < pass_tol < fail_tol")
    good: list[PointGeometry] = []
    failures: list[str] = []
    points = chart_mod.sample_points(spec, samples, seed)
    for g in extrinsic.sample_geometries(spec, points):
        if isinstance(g, PointGeometry):
            good.append(g)
        else:
            failures.append(str(g))
    if not good:
        raise AllSamplesFailed(
            f"all {samples} samples failed; first failure: {failures[0]}"
        )

    records = []
    for g in good:
        tau = tau2_direct(g)
        normal, tangent = split_residuals(g)
        tau_norm = float(np.linalg.norm(tau))
        gap = float(np.linalg.norm(tau + g.m * (normal + tangent)))
        rec = SampleRecord(
            point=tuple(float(x) for x in g.point),
            tau2_norm=tau_norm,
            split_normal_norm=float(np.linalg.norm(normal)),
            split_tangent_norm=float(np.linalg.norm(tangent)),
            split_gap=gap,
            H_norm=g.H_norm,
            B2=g.B2,
            nabla_perp_H_norm=g.nabla_perp_H_norm,
            scalar_curvature=extrinsic.scalar_curvature(g) if g.m >= 2 else None,
        )
        if g.hypersurface:
            rec.hyper_i, rec.hyper_ii = hypersurface_residuals(g)
            rec.A2 = g.A2
            rec.f = g.f
        records.append(rec)

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
