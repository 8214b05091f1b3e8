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
from .extrinsic import GeometryBlock, GeometryError

PASS_TOL = 1e-6
FAIL_TOL = 1e-3
BUDGET = 200_000    # sample points of one verify call, or of one scan's grid

VERDICT_PROPER = "biharmonic-proper"
VERDICT_MINIMAL = "minimal"
VERDICT_NOT = "not-biharmonic"
VERDICT_INCONCLUSIVE = "inconclusive"


class AllSamplesFailed(RuntimeError):
    """Every sample point failed to evaluate; no verdict is possible."""


# ---------------------------------------------------------------------------
# per-sample residuals
# ---------------------------------------------------------------------------


def tau2_direct(geom: GeometryBlock) -> np.ndarray:
    """Bitension field as an ambient vector, one row per point of a
    ``GeometryBlock``."""
    return -geom.m * (geom.delta_H - geom.m * geom.H)


def split_residuals(geom: GeometryBlock) -> tuple[np.ndarray, np.ndarray]:
    """Normal and tangent residual vectors of the split characterization
    (one row per point of a ``GeometryBlock``)."""
    normal = geom.delta_perp_H + geom.trace_B_AH - geom.m * geom.H
    tangent = 2.0 * geom.trace_A_nablaH + 0.5 * geom.m * geom.grad_H2
    return normal, tangent


def hypersurface_residuals(geom: GeometryBlock) -> tuple[np.ndarray, np.ndarray]:
    """(|Delta f - (m - |A|^2) f|, ||A(grad f) + (m/2) f grad f||) at each
    point of a block: two arrays of one value per point."""
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


@np.errstate(all="ignore")      # the failed points and the dropped steps
def pmc_check(g: GeometryBlock, pass_tol: float = PASS_TOL) -> PMCBlock:
    """Evaluate the parallel-mean-curvature characterization over the good
    points of a block.

    Samples where H vanishes contribute only to the minimality side: the
    normal-frame completion of H/|H| is undefined there.

    One pass over the whole block, failed points included: each point
    completes H/|H| to its normal frame with the pivoted block Gram-Schmidt
    of the tangent frames (``extrinsic._block_mgs``), and a point's xi from
    its first step below 1e-13 on are dropped, where a lone point's pass
    stops.  Each value is the one that point's own pass gives.
    Only the good points' maxima stay: Python's ``max`` over the values in
    sample order, which keeps the first of equal values and passes over NaN
    as a sample-by-sample loop does, so the block is that loop to the bit.
    ``evaluate_chart`` checks each geometry block on its own and merges the
    blocks (``_merge_pmc``).
    """
    good = np.array([e is None for e in g.errors], dtype=bool)
    if not good.any():
        raise GeometryError("pmc_check needs at least one good sample")
    with_h = good & (g.H_norm > pass_tol)
    # complete H/|H| to an orthonormal normal frame and test the spanning set
    u0 = g.H / g.H_norm[:, None]
    N = g.normal_frame                                              # [p, x, c]
    rest = N - (N @ u0[..., None]) * u0[:, None]
    xi, tops = extrinsic._block_mgs(rest)                           # [p, y, c]
    kept = np.logical_and.accumulate(~(tops < 1e-13), axis=-1) & with_h[:, None]
    coeffs = (N[:, None] @ xi[..., None])[..., 0]                   # [p, y, x]
    a_xi = np.einsum("pyx,pxab->pyab", coeffs, g.B_frame)
    dots = (g.A_H[:, None] * a_xi).reshape(kept.shape + (-1,)).sum(axis=-1)
    return _pmc_block(max([0.0] + g.nabla_perp_H_norm[good].tolist()),
                      max([0.0] + _norms(g.trace_B_AH - g.m * g.H)[with_h].tolist()),
                      max([0.0] + np.abs(dots[kept]).tolist()),
                      max([0.0] + np.abs(g.AH2 - g.m * g.H2)[with_h].tolist()),
                      int(with_h.sum()), pass_tol)


def _merge_pmc(blocks: list[PMCBlock], pass_tol: float) -> PMCBlock:
    """The ``pmc_check`` of the samples of all ``blocks`` (the checks of
    consecutive runs of samples, in sample order), to the bit: each maximum
    is the max over the blocks, and the sample counts add up.

    A block's maximum starts from 0.0, so it is never NaN, and Python's
    ``max`` over those maxima keeps the first of equal values, as one pass
    over all samples does; equal values are equal floats, except 0.0 and
    -0.0, where the leading 0.0 wins in both.
    """
    def top(name: str) -> float:
        return max([0.0] + [getattr(b, name) for b in blocks])

    return _pmc_block(top("parallel_norm"), top("eq4_norm"), top("eq5a"), top("eq5b"),
                      sum(b.samples_with_H for b in blocks), pass_tol)


def _pmc_block(parallel: float, eq4: float, eq5a: float, eq5b: float,
               samples_with_H: int, pass_tol: float) -> PMCBlock:
    """The ``PMCBlock`` of the maxima over samples, with its verdicts."""
    applicable = parallel < pass_tol
    equivalence: bool | None = None
    if applicable and samples_with_H:
        equivalence = (eq4 < pass_tol) == (eq5a < pass_tol and eq5b < pass_tol)
    return PMCBlock(
        parallel_norm=parallel, eq4_norm=eq4, eq5a=eq5a, eq5b=eq5b,
        applicable=applicable, equivalence_ok=equivalence, samples_with_H=samples_with_H,
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


@np.errstate(all="ignore")      # the failed points' values mean nothing
def sample_records(g: GeometryBlock) -> list[SampleRecord]:
    """The ``SampleRecord`` of each good point of a block: every residual
    norm, the scalar curvature and the hypersurface residuals in one pass
    over the whole block, each value the one that point alone gives."""
    tau = tau2_direct(g)
    normal, tangent = split_residuals(g)
    columns = dict(
        point=g.point,
        tau2_norm=_norms(tau),
        split_normal_norm=_norms(normal),
        split_tangent_norm=_norms(tangent),
        split_gap=_norms(tau + g.m * (normal + tangent)),
        H_norm=g.H_norm, B2=g.B2, nabla_perp_H_norm=g.nabla_perp_H_norm,
        scalar_curvature=extrinsic.scalar_curvature(g) if g.m >= 2 else np.full(len(g), None),
    )
    if g.hypersurface:
        columns["hyper_i"], columns["hyper_ii"] = hypersurface_residuals(g)
        columns["A2"], columns["f"] = g.A2, g.f
    good = np.array([e is None for e in g.errors], dtype=bool)
    rows = zip(*(v[good].tolist() for v in columns.values()))
    return [SampleRecord(**dict(zip(columns, row), point=tuple(row[0]))) for row in rows]


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
    blocks (``extrinsic.sample_blocks``), each read in one residual pass
    over the point axis (``sample_records``) and one ``pmc_check``, which
    keep its good points; ``_merge_pmc`` combines the PMC results.  So the
    residual stage never holds more points than ``extrinsic.block_size``,
    and a block holds only its own fields, no jets.  Only the
    ``SampleRecord`` objects and the maxima over samples are per point.
    Results and messages are those of one-point evaluation, to the bit.
    Only a proper verdict is audited (``quantity_audit``).
    """
    if not 0 < pass_tol < fail_tol:
        raise ValueError("tolerances must satisfy 0 < pass_tol < fail_tol")
    if samples > BUDGET:
        raise ValueError(f"sample count exceeds the budget {BUDGET}, got {samples}")
    failures: list[str] = []
    records: list[SampleRecord] = []
    pmc_blocks: list[PMCBlock] = []
    points = chart_mod.sample_points(spec, samples, seed)
    for block in extrinsic.sample_blocks(spec, points):
        failures += [str(e) for e in block.errors if e is not None]
        records += sample_records(block)
        if None in block.errors:
            pmc_blocks.append(pmc_check(block, pass_tol))
    if not records:
        raise AllSamplesFailed(
            f"all {samples} samples failed; first failure: {failures[0]}"
        )

    report = ResidualReport(
        chart=spec.describe(),
        samples_used=len(records),
        samples_requested=samples,
        seed=seed,
        pass_tol=pass_tol,
        fail_tol=fail_tol,
        per_sample=records,
        pmc=_merge_pmc(pmc_blocks, pass_tol),
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
