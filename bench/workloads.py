"""Workload definitions and the correctness gate.

A workload is a list of operations, each one ``bitension`` command line
(``cli.main`` argv) with the answer geometry says it must give, derived from
the seed.  The timed loop, the traced rounds and the set-up probe all run
these same command lines.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

ROOT2INV = 1.0 / math.sqrt(2.0)
ROOT_TOL = 1e-6

PROPER = "biharmonic-proper"
MINIMAL = "minimal"
NOT = "not-biharmonic"

VERIFY_POINTS = 64
SCAN_SAMPLES = 8


@dataclass
class Op:
    """One CLI call and its expected outcome."""

    label: str                 # chart or family, as listed in failure reports
    argv: list[str]            # without --output
    kind: str                  # "verify" | "scan"
    samples: int               # sample points requested (scan: per grid value)
    expect_verdict: str | None = None
    expect_roots: list[tuple[float, str]] = field(default_factory=list)
    steps: int = 0
    probe_argv: list[str] = field(default_factory=list)   # 1-point set-up call
    direct_tau2_defect: bool = False   # see known_defect()

    @property
    def grid_samples(self) -> int:
        """Sample points the call's configuration asks for in total."""
        return self.samples * self.steps if self.kind == "scan" else self.samples

    @property
    def expect_exit(self) -> int:
        if self.kind == "scan":
            return 0
        return 0 if self.expect_verdict in (PROPER, MINIMAL) else 1


def _params(**kw) -> list[str]:
    out = []
    for k, v in kw.items():
        out += ["--param", f"{k}={v!r}"]
    return out


def _verify(label, source, expect, seed, points) -> Op:
    argv = ["verify", *source, "--seed", str(seed), "--format", "json"]
    return Op(label=label, kind="verify", samples=points, expect_verdict=expect,
              argv=argv + ["--points", str(points)],
              probe_argv=argv + ["--points", "1"])


def _catalog(tag, **params) -> list[str]:
    return ["--catalog", tag, *_params(**params)]


def perturbed_doc(seed: int, base: str) -> dict:
    """Chart document for ``chart.perturbed_chart(seed, base)``; imports the
    package lazily, after the harness has set up the environment."""
    from bitension import chart, expr

    spec = chart.perturbed_chart(seed, base)
    return {
        "name": spec.name, "m": spec.m, "n": spec.n,
        "expressions": [expr.to_string(c) for c in spec.components],
        "domain": [list(iv) for iv in spec.domain],
        "params": dict(spec.params), "normalize": spec.normalize,
    }


def verify_lowdim(seed: int, chart_dir: str, points: int = VERIFY_POINTS) -> list[Op]:
    """Writes the perturbed chart documents into ``chart_dir``."""
    r = ROOT2INV
    ops = [
        _verify("small-hypersphere(m=2,r=1/sqrt2)",
                _catalog("small-hypersphere", m=2, r=r), PROPER, seed, points),
        _verify("small-hypersphere(m=3,r=1/sqrt2)",
                _catalog("small-hypersphere", m=3, r=r), PROPER, seed, points),
        _verify("product-spheres(2+1)",
                _catalog("product-spheres", m1=2, m2=1, r1=r, r2=r), PROPER, seed, points),
        _verify("clifford-torus-b3(a=b=0.5)",
                _catalog("clifford-torus-b3", a=0.5, b=0.5), PROPER, seed, points),
        _verify("veronese(r=1/sqrt2)", _catalog("veronese", r=r), PROPER, seed, points),
        _verify("small-hypersphere(m=2,r=0.5)",
                _catalog("small-hypersphere", m=2, r=0.5), NOT, seed, points),
        _verify("small-hypersphere(m=2,r=0.9)",
                _catalog("small-hypersphere", m=2, r=0.9), NOT, seed, points),
        _verify("equator(m=2,r=1)",
                _catalog("small-hypersphere", m=2, r=1.0), MINIMAL, seed, points),
    ]
    # generic perturbations are never biharmonic; passing them as documents
    # exercises chart-document parsing and the jet-level normalize.  Eleven
    # charts in all: with an odd count the median call falls inside one
    # chart's calls, not in the gap between two charts.
    for base, chart_seed in (("sphere", seed), ("sphere", seed + 1), ("torus", seed)):
        path = os.path.join(chart_dir, f"perturbed-{base}-{chart_seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(perturbed_doc(chart_seed, base), fh, indent=2)
        ops.append(_verify(f"perturbed-{base}-{chart_seed}", ["--chart", path],
                           NOT, seed, points))
    return ops


def verify_highdim(seed: int, points: int = VERIFY_POINTS) -> list[Op]:
    """Every chart here is open to the direct-τ₂ rounding defect."""
    r = ROOT2INV
    ops = [
        _verify("generalized-clifford(2+4)",
                _catalog("generalized-clifford", m1=2, m2=4, r1=r, r2=r),
                PROPER, seed, points),
        _verify("product-spheres(1+4)",
                _catalog("product-spheres", m1=1, m2=4, r1=r, r2=r),
                PROPER, seed, points),
        _verify("small-hypersphere(m=6,r=1/sqrt2)",
                _catalog("small-hypersphere", m=6, r=r), PROPER, seed, points),
    ]
    for op in ops:
        op.direct_tau2_defect = True
    return ops


def _scan(label, tag, fixed, param, lo, hi, steps, roots, probe, seed, samples) -> Op:
    argv = ["scan", "--family", tag, *fixed, "--param", param,
            "--range", f"{lo!r}:{hi!r}", "--steps", str(steps),
            "--samples", str(samples), "--format", "csv", "--seed", str(seed)]
    probe_argv = ["verify", "--catalog", tag, *probe, "--points", "1",
                  "--seed", str(seed), "--format", "json"]
    return Op(label=label, kind="scan", samples=samples, steps=steps, argv=argv,
              expect_roots=roots, probe_argv=probe_argv)


def scan_family(seed: int, scale: int = 1, samples: int = SCAN_SAMPLES) -> list[Op]:
    """``scale`` divides the grid sizes (the smoke check uses a coarse grid)."""
    r_mid = 0.625
    return [
        _scan("small-hypersphere(r 0.3:0.99)", "small-hypersphere", [], "r",
              0.3, 0.99, 200 // scale, [(ROOT2INV, "proper-biharmonic")],
              _params(m=2, r=0.645), seed, samples),
        _scan("clifford-torus-b3(t 0.2:0.69)", "clifford-torus-b3", [], "t",
              0.2, 0.69, 200 // scale, [(0.5, "proper-biharmonic")],
              _params(a=0.445, b=0.445), seed, samples),
        _scan("product-spheres(2+1, r 0.3:0.95)", "product-spheres",
              _params(m1=2, m2=1), "r", 0.3, 0.95, 100 // scale,
              [(ROOT2INV, "proper-biharmonic"), (math.sqrt(2.0 / 3.0), "minimal")],
              _params(m1=2, m2=1, r1=r_mid, r2=math.sqrt(1.0 - r_mid * r_mid)),
              seed, samples),
    ]


WORKLOADS = ("verify-lowdim", "verify-highdim", "scan-family")


def build(name: str, seed: int, chart_dir: str, smoke: bool = False) -> list[Op]:
    """Operations of one workload; ``smoke`` shrinks every call to a minimum."""
    if name == "verify-lowdim":
        return verify_lowdim(seed, chart_dir, points=2 if smoke else VERIFY_POINTS)
    if name == "verify-highdim":
        return verify_highdim(seed, points=2 if smoke else VERIFY_POINTS)
    if name == "scan-family":
        return scan_family(seed, scale=5 if smoke else 1, samples=2 if smoke else SCAN_SAMPLES)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def check(op: Op, exit_code: int, text: str) -> tuple[list[str], str | None]:
    """Problems with one call's outcome, and the verdict it reported."""
    problems = []
    if exit_code != op.expect_exit:
        problems.append(f"exit code {exit_code}, expected {op.expect_exit}")
    if op.kind == "verify":
        try:
            verdict = json.loads(text)["verdict"]
        except (ValueError, KeyError, TypeError) as e:
            return problems + [f"unreadable report: {e}"], None
        if verdict != op.expect_verdict:
            problems.append(f"verdict {verdict}, expected {op.expect_verdict}")
        return problems, verdict
    return problems + _check_scan(op, text), None


def known_defect(op: Op, exit_code: int, text: str) -> str | None:
    """Whether a proper chart's wrong verdict is the known direct-τ₂ defect.

    At m >= 5 the direct formula for τ₂ loses accuracy at samples near the
    coordinate poles: its maximum lands above ``pass_tol`` (1e-6 to 5e-4 over
    random seeds) while the split form of the same equations, computed from
    the same jets, stays orders of magnitude below it.  The verdict, which
    reads the direct form, is then ``inconclusive`` (``not-biharmonic`` past
    ``fail_tol``).  A call counts as this defect only on a
    chart marked for it, with exit code 1, and with a report in which the
    split normal and tangent parts (and, on a hypersurface, both Jiang
    equations) hold to ``pass_tol`` while the direct form does not.  It is
    still a wrong verdict and is listed by chart and seed; any other miss
    fails the call.  Returns a description of the miss, or None.
    """
    if not (op.direct_tau2_defect and op.expect_verdict == PROPER and exit_code == 1):
        return None
    try:
        report = json.loads(text)
        verdict = report["verdict"]
        pass_tol = report["thresholds"]["pass_tol"]
        res = report["residuals"]
        direct = res["tau2_direct_norm"]["max"]
        split = max(res["split_normal_norm"]["max"], res["split_tangent_norm"]["max"])
        jiang = [res[k]["max"] for k in ("hyper_i_residual", "hyper_ii_residual")
                 if k in res]
    except (ValueError, KeyError, TypeError):
        return None
    if verdict not in ("inconclusive", NOT):
        return None
    if not (split < pass_tol and all(j < pass_tol for j in jiang) and direct >= pass_tol):
        return None
    return (f"verdict {verdict}, expected {op.expect_verdict}: direct max |tau2| "
            f"{direct:.3g} >= pass_tol {pass_tol:g}, split form {split:.3g}")


def _check_scan(op: Op, text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["param", "max_residual", "mean_residual", "H_norm", "verdict"]:
        return ["unreadable scan table"]
    body = rows[1:]
    grid = [r for r in body if not r[-1].startswith("root:")]
    roots = [(float(r[0]), r[-1][len("root:"):]) for r in body if r[-1].startswith("root:")]
    problems = []
    if len(grid) != op.steps:
        problems.append(f"{len(grid)} grid rows, expected {op.steps}")
    if len(roots) != len(op.expect_roots):
        problems.append(f"{len(roots)} roots {roots}, expected {op.expect_roots}")
        return problems
    for (t, cls), (t_want, cls_want) in zip(roots, op.expect_roots):
        if abs(t - t_want) > ROOT_TOL:
            problems.append(f"root at {t!r}, expected {t_want!r} (tolerance {ROOT_TOL})")
        if cls != cls_want:
            problems.append(f"root at {t!r} classified {cls}, expected {cls_want}")
    return problems
