"""Command-line front end: catalog listing, chart verification, family scans.

Exit status contract (scripts gate on biharmonicity with it):

* 0 - verdict is biharmonic-proper or minimal, or the subcommand is
      informational (catalog, scan);
* 1 - verdict is not-biharmonic or inconclusive;
* 2 - configuration, parsing or chart-validation error;
* 3 - numerical failure at every sample point.

``--param NAME=VALUE`` sets a catalog parameter or overrides one in the
``--chart`` document: a catalog reference's params or an expression chart's;
a name that the chart does not read, or a value that is not a finite
number, exits 2.  ``scan --chart`` on a catalog reference links parameters
the same way as ``scan --family`` on its tag (r1 = r, r2 = sqrt(1 - r^2);
a = b = t), and a fixed ``--param`` that the swept one sets exits 2.

Verification report schema (JSON, keys sorted, 2-space indent)::

    {
      "tool_version": "...",
      "config_echo":  { the resolved command-line configuration },
      "chart":        { "name", "m", "n", "normalize", "catalog"?, "params"? },
      "samples":      <int>,         "seed": <int>,
      "thresholds":   { "pass_tol", "fail_tol" },
      "residuals": {
        "tau2_direct_norm":   { "max", "mean", "max_normalized" },
        "split_normal_norm":  { "max", "mean", "max_normalized" },
        "split_tangent_norm": { "max", "mean", "max_normalized" },
        "split_direct_gap":   { "max" },
        "hyper_i_residual"?:  { "max", "mean" },    # hypersurfaces only
        "hyper_ii_residual"?: { "max", "mean" },
        "pmc": { "parallel_norm", "eq4_norm", "eq5a", "eq5b",
                 "applicable", "equivalence_ok", "samples_with_H" }
      },
      "quantities": { "H_norm", "B2", "scalar_curvature"?,   # m >= 2
                      "A2"?, "f"?,                            # hypersurfaces
                      "cmc", "minimal" },
      "per_sample": [ { "point", "tau2_norm", "split_normal_norm",
                        "split_tangent_norm", "split_gap", "H_norm", "B2",
                        "nabla_perp_H_norm", "scalar_curvature", "hyper_i",
                        "hyper_ii", "A2", "f" } ],    # null where undefined
      "failures":   [ skipped-sample diagnostics ],
      "audit":      [ { "name", "measured", "predicted", "deviation",
                        "ok", "note" } ],
      "verdict":    "biharmonic-proper" | "minimal" | "not-biharmonic"
                    | "inconclusive"
    }

"max_normalized" divides by m (1 + |H|^2) so charts of different dimension
are comparable; verdicts always use the raw absolute norms.

Scan report schema (JSON, same conventions)::

    {
      "tool_version": "...",
      "family":   { "param", "range", "steps", "samples_per_point", "seed",
                    "thresholds", "catalog"?, "fixed_params"?, "chart"? },
      "grid":     [ { "param", "max_residual", "mean_residual", "H_norm",
                      "verdict", "error" } ],
      "roots":    [ { "param", "residual", "classification",
                      "bisection_iterations", "H_norm" } ],
      "boundary": [ { "param", "side", "residual", "H_norm", "note" } ]
    }

or the CSV table ``param,max_residual,mean_residual,H_norm,verdict`` with
refined roots appended as ``root:<classification>`` rows.
``bisection_iterations`` counts the refinement steps a root took, one
profile evaluation each; the key keeps its name for schema stability.

A sample point whose geometry cannot be evaluated (off the sphere,
rank-deficient (metric condition >= 1e8), outside the domain, or with
non-finite jets or results, e.g. from floating-point overflow) is skipped
and listed under "failures"; if every sample fails the exit status is 3.
JSON output is strict: it never contains NaN or Infinity tokens.

Reports contain no timestamps and all randomness is seed-controlled, so a
fixed command line always produces byte-identical output; files are written
atomically (temp file + rename), and an ``--output`` path that cannot be
written exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import asdict

from . import __version__, biharmonic, chart as chart_mod, scan as scan_mod


def _parse_params(raw: list[str] | None) -> tuple[dict, list[str]]:
    """Split repeated --param flags into name=value pairs and bare names."""
    fixed: dict = {}
    bare: list[str] = []
    for item in raw or []:
        if "=" in item:
            name, _, value = item.partition("=")
            name = name.strip()
            try:
                fixed[name] = float(value)
            except ValueError:
                raise ValueError(f"--param {item!r}: value is not a number")
            if not math.isfinite(fixed[name]):
                raise ValueError(f"--param {item!r}: value is not a finite number")
        else:
            bare.append(item.strip())
    return fixed, bare


def _emit(text: str, path: str | None):
    """Write to stdout, or atomically to ``path``; a path that cannot be
    written raises ValueError (exit 2) and leaves no temp file behind."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bitension-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise ValueError(f"cannot write report to {path!r}: {e.strerror or e}") from e
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _audit_lines(audit: list[biharmonic.AuditEntry], indent: str) -> list[str]:
    lines = []
    for a in audit:
        mark = "ok " if a.ok else "FAIL"
        pred = "" if a.predicted is None else f" predicted {a.predicted:.9g}"
        lines.append(f"{indent}[{mark}] {a.name}: measured {a.measured:.9g}{pred}"
                     f" (deviation {a.deviation:.2e})")
        if a.note:
            lines.append(f"{indent}       {a.note}")
    return lines


def _human_verify(report: biharmonic.ResidualReport) -> str:
    q = report.quantities()
    res = report.residual_summary()
    lines = [
        f"chart     {report.chart['name']}",
        f"samples   {report.samples_used} (seed {report.seed})",
        "",
        "residuals (max over samples)",
        f"  ||tau2||            {res['tau2_direct_norm']['max']:.3e}"
        f"   (normalized {res['tau2_direct_norm']['max_normalized']:.3e})",
        f"  split normal/tangent  {res['split_normal_norm']['max']:.3e} / "
        f"{res['split_tangent_norm']['max']:.3e}",
        f"  split-direct gap    {res['split_direct_gap']['max']:.3e}",
    ]
    if report.hypersurface:
        lines.append(
            f"  hypersurface (i)/(ii)  {res['hyper_i_residual']['max']:.3e} / "
            f"{res['hyper_ii_residual']['max']:.3e}"
        )
    pmc = res["pmc"]
    lines.append(
        f"  ||nabla-perp H||    {pmc['parallel_norm']:.3e}"
        f"   (PMC {'holds' if pmc['applicable'] else 'fails'})"
    )
    if pmc["applicable"]:
        lines.append(
            f"  PMC eq(4)/eq(5)     {pmc['eq4_norm']:.3e} / "
            f"max({pmc['eq5a']:.3e}, {pmc['eq5b']:.3e})"
        )
    lines += ["", "quantities (mean over samples)"]

    def row(label, stats):
        return f"  {label:8s} {stats['mean']: .9f}   [{stats['min']:.9f}, {stats['max']:.9f}]"

    for label, key in (("|H|", "H_norm"), ("|A|^2", "A2"), ("|B|^2", "B2"),
                       ("f", "f"), ("s", "scalar_curvature")):
        if key in q:
            lines.append(row(label, q[key]))
    lines.append(f"  CMC      {q['cmc']}    minimal  {q['minimal']}")
    if report.audit:
        lines += ["", "audit", *_audit_lines(report.audit, "  ")]
    if report.failures:
        lines += ["", f"failed samples: {len(report.failures)} "
                      f"(first: {report.failures[0]})"]
    lines += ["", f"verdict   {report.verdict}"]
    return "\n".join(lines) + "\n"


def _human_audit(report: biharmonic.ResidualReport) -> str:
    lines = [f"chart     {report.chart['name']}",
             f"verdict   {report.verdict}", ""]
    if report.verdict != biharmonic.VERDICT_PROPER:
        lines.append("quantity audit applies to proper biharmonic charts only;")
        lines.append("no audit entries for this verdict.")
        return "\n".join(lines) + "\n"
    lines += _audit_lines(report.audit, "")
    return "\n".join(lines) + "\n"


def _human_scan(result: scan_mod.ScanResult) -> str:
    lines = [f"family    {result.family}", ""]
    lines.append(f"{'param':>14s} {'max residual':>14s} {'|H|':>10s}  verdict")
    for row in result.grid:
        if row.error is not None:
            lines.append(f"{row.param:14.8f} {'-':>14s} {'-':>10s}  error: {row.error}")
        else:
            lines.append(
                f"{row.param:14.8f} {row.max_residual:14.3e} "
                f"{row.H_norm:10.6f}  {row.verdict}"
            )
    lines.append("")
    if result.roots:
        for r in result.roots:
            lines.append(
                f"root at {r.param:.9f}: {r.classification} "
                f"(residual {r.residual:.2e}, |H| {r.H_norm:.6f}, "
                f"{r.bisection_iterations} refinement steps)"
            )
    else:
        lines.append("no roots located")
    for b in result.boundary:
        lines.append(f"boundary {b['side']} at {b['param']:.8f}: {b['note']}")
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` fills a
    new namespace on every call and leaves the parser as it was."""
    p = argparse.ArgumentParser(
        prog="bitension",
        description="numerical verification of biharmonic submanifolds of the unit sphere",
    )
    sub = p.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="list built-in chart families")
    cat.add_argument("action", nargs="?", default="list", choices=["list"])

    def common(sp, scan_mode=False):
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--catalog" if not scan_mode else "--family",
                         dest="catalog", metavar="TAG",
                         help="catalog chart tag")
        src.add_argument("--chart", metavar="FILE",
                         help="chart document (JSON file)")
        sp.add_argument("--param", action="append", metavar="NAME[=VALUE]",
                        help="chart parameter (repeatable)")
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--pass-tol", type=float, default=biharmonic.PASS_TOL)
        sp.add_argument("--fail-tol", type=float, default=biharmonic.FAIL_TOL)
        sp.add_argument("--output", metavar="PATH",
                        help="write the report to PATH (atomic)")

    for name, help_text in (("verify", "evaluate all biharmonicity residuals"),
                            ("audit", "quantity audit of a chart")):
        cmd = sub.add_parser(name, help=help_text)
        common(cmd)
        cmd.add_argument("--points", type=int, default=64)
        cmd.add_argument("--format", choices=["human", "json"], default="human")

    sc = sub.add_parser("scan", help="sweep a 1-parameter chart family")
    common(sc, scan_mode=True)
    sc.add_argument("--range", required=True, metavar="LO:HI")
    sc.add_argument("--steps", type=int, default=100)
    sc.add_argument("--samples", type=int, default=8,
                    help="sample points per parameter value")
    sc.add_argument("--format", choices=["human", "json", "csv"],
                    default="human")
    return p


def _run_catalog() -> int:
    for entry in chart_mod.catalog_entries():
        sys.stdout.write(f"{entry['tag']}\n")
        sys.stdout.write(f"    parameters: {entry['params']}\n")
        sys.stdout.write(f"    family sweep parameter: {entry['family_param']}\n")
        sys.stdout.write(f"    {entry['describe']}\n")
    return 0


def _run_verify(args, audit_only: bool) -> int:
    fixed, bare = _parse_params(args.param)
    if bare:
        raise ValueError(
            f"--param {bare[0]!r} has no value; verify takes name=value pairs"
        )
    spec = chart_mod.parse_chart(
        chart_mod.chart_document(args.catalog, args.chart), fixed)
    report = biharmonic.evaluate_chart(
        spec, samples=args.points, seed=args.seed,
        pass_tol=args.pass_tol, fail_tol=args.fail_tol,
    )
    echo = {
        "subcommand": "audit" if audit_only else "verify",
        "catalog": args.catalog,
        "chart_file": args.chart,
        "params": fixed,
        "points": args.points,
        "seed": args.seed,
        "pass_tol": args.pass_tol,
        "fail_tol": args.fail_tol,
        "format": args.format,
    }
    if args.format == "json":
        text = _json(report.to_report_dict(config_echo=echo,
                                           tool_version=__version__))
    elif audit_only:
        text = _human_audit(report)
    else:
        text = _human_verify(report)
    _emit(text, args.output)
    return 0 if report.verdict in (biharmonic.VERDICT_PROPER,
                                   biharmonic.VERDICT_MINIMAL) else 1


def _run_scan(args) -> int:
    fixed, bare = _parse_params(args.param)
    if len(bare) != 1:
        raise ValueError(
            "scan needs exactly one bare --param NAME naming the swept parameter"
        )
    try:
        lo_s, _, hi_s = args.range.partition(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise ValueError(f"--range must be LO:HI, got {args.range!r}")
    doc = None if args.chart is None else chart_mod.chart_document(path=args.chart)
    fam = scan_mod.FamilySpec(
        tag=args.catalog, doc=doc, param_name=bare[0], lo=lo, hi=hi,
        steps=args.steps, fixed=fixed, samples_per_point=args.samples,
        seed=args.seed, pass_tol=args.pass_tol, fail_tol=args.fail_tol,
    )
    result = scan_mod.sweep(fam)
    if args.format == "json":
        text = _json({**asdict(result), "tool_version": __version__})
    elif args.format == "csv":
        text = result.to_csv()
    else:
        text = _human_scan(result)
    _emit(text, args.output)
    return 0


def _join_range(argv: list[str]) -> list[str]:
    """``argv`` with ``--range -LO:HI`` as ``--range=-LO:HI``: argparse takes
    a token such as ``-0.5:0.5``, not a plain negative number, for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--range" and re.match(r"-[\d.]", arg):
            out[-1] = f"--range={arg}"
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_range(sys.argv[1:] if argv is None else argv))
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        if args.command == "catalog":
            return _run_catalog()
        if args.command == "verify":
            return _run_verify(args, audit_only=False)
        if args.command == "audit":
            return _run_verify(args, audit_only=True)
        if args.command == "scan":
            return _run_scan(args)
        raise ValueError(f"unknown command {args.command!r}")
    except biharmonic.AllSamplesFailed as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except (chart_mod.ChartError, scan_mod.ScanError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
