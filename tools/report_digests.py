"""Print a sha256 of the output of a fixed set of ``bitension`` commands.

Run it against two source trees and compare: any difference in the printed
lines means a change moved report bytes.

    python3 tools/report_digests.py                  # the package in ./src
    python3 tools/report_digests.py --src OTHER/src  # another checkout's src
    python3 tools/report_digests.py --fields         # geometry fields per point

Each line reads ``<sha256>  exit=<code>  <command line>``.  The commands run
in-process through ``cli.main`` inside a temporary directory, so the chart
document path echoed in a report is the same relative name on every run.

``--fields`` prints one line per chart instead: a sha256 over every
geometry field of each sample (bytes, dtype, shape, the writeable flag; a
field the block lacks as None) in the order of ``FIELDS``, and its
``scalar_curvature``, from a ``geometry_block`` call, the blocks of
``sample_blocks`` and one-point ``geometry_block`` calls, in the one normal
orientation the program computes (eta along H), with each failure's
message.  It guards the fields a report does not print.  It reads each
point's values by name as the row views ``getattr(block, name)[p]``
(a numpy scalar hashed as its Python float) and its error as
``block.errors[p]``, and takes the scalar curvature of the one-point
``GeometryBlock`` it builds from ``np.take`` of each field at p.  So it
reads no method of a block, and a tree whose fields are lists of floats
or views into the jets gives the same lines as one whose fields are
C-contiguous arrays.  Strides are left out for the same reason: a view's
strides follow how many coefficients its jets store, not its value (the
tests check the layouts).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

# the geometry fields --fields hashes per point, in the order of the frozen
# per-point record older trees built; m and n are the block's
FIELDS = (
    "point", "m", "n", "phi", "jac", "metric", "metric_inv", "christoffel",
    "christoffel_grad", "tangent_frame", "frame_coeff", "normal_frame", "B_coord", "B_frame",
    "A_H", "H", "H_norm", "H2", "B2", "AH2", "delta_H", "delta_perp_H", "nabla_perp_H",
    "nabla_perp_H_norm", "grad_H2", "trace_B_AH", "trace_A_nablaH",
    "f", "eta", "A", "A2", "grad_f", "delta_f",
)
R = repr(1.0 / math.sqrt(2.0))
SEED = "3"
CHART_DOC = "perturbed-sphere-5.json"
# codimension 2 with |H| > 0 at every sample: PMC completes H/|H| everywhere
TORUS_DOC = "perturbed-torus-5.json"
# S^2(1/2) x S^2(1/2) x {1/sqrt(2)} in S^6: m = 4 in codimension 2, proper
# biharmonic with |H| = 1, so the normal frame, B_frame and PMC all show
S2_S2_DOC = "s2-s2-point.json"
S2_S2 = {
    "name": "S2(1/2) x S2(1/2) x {1/sqrt(2)}", "m": 4, "n": 6,
    "expressions": ["0.5 * sin(u1) * cos(u2)", "0.5 * sin(u1) * sin(u2)", "0.5 * cos(u1)",
                    "0.5 * sin(u3) * cos(u4)", "0.5 * sin(u3) * sin(u4)", "0.5 * cos(u3)", R],
    "domain": [[0.0, math.pi], [0.0, 2.0 * math.pi]] * 2,
}
# the same product at the point (1/2, 1/2, 0) in S^8: n = 8, the widest
# ambient dimension, so jet contractions over the ambient axis sum 9 terms
S2_S2_S8_DOC = "s2-s2-s8.json"
S2_S2_S8 = {
    "name": "S2(1/2) x S2(1/2) x (1/2, 1/2, 0)", "m": 4, "n": 8,
    "expressions": S2_S2["expressions"][:6] + ["0.5", "0.5", "0"],
    "domain": S2_S2["domain"],
}
# scan --chart: an expression family that reads a declared r, and a catalog
# reference whose r1 = r, r2 = sqrt(1 - r^2) the sweep links
SPHERE_FAMILY_DOC = "sphere-family.json"
SPHERE_FAMILY = {
    "name": "S2(r) x {sqrt(1 - r^2)}", "m": 2, "n": 3,
    "expressions": ["r * sin(u1) * cos(u2)", "r * sin(u1) * sin(u2)", "r * cos(u1)",
                    "sqrt(1 - r^2)"],
    "domain": [[0.0, math.pi], [0.0, 2.0 * math.pi]],
    "params": {"r": 0.5},
}
PRODUCT_REF_DOC = "product-ref.json"
PRODUCT_REF = {"catalog": {"tag": "product-spheres", "params": {"m1": 2, "m2": 1}}}
# the --fields pole-crossing chart (below) swept over c: from c ~ 0.6 up a
# sample point fails, and each such row carries that point's error
POLE_DOC_FILE = "pole-crossing.json"
COMMANDS = [
    ["verify", "--catalog", "small-hypersphere", "--param", "m=2", "--param", f"r={R}"],
    ["verify", "--catalog", "clifford-torus-b3", "--param", "a=0.5", "--param", "b=0.5"],
    ["verify", "--catalog", "product-spheres", "--param", "m1=2", "--param", "m2=1",
     "--param", f"r1={R}", "--param", f"r2={R}"],
    ["verify", "--catalog", "generalized-clifford", "--param", "m1=2", "--param", "m2=4",
     "--param", f"r1={R}", "--param", f"r2={R}"],
    ["verify", "--catalog", "product-spheres", "--param", "m1=1", "--param", "m2=4",
     "--param", f"r1={R}", "--param", f"r2={R}"],
    ["verify", "--catalog", "small-hypersphere", "--param", "m=6", "--param", f"r={R}"],
    ["verify", "--chart", CHART_DOC],
    ["verify", "--chart", S2_S2_DOC],
    ["verify", "--chart", S2_S2_S8_DOC],
]
COMMANDS = [c + ["--points", "16", "--seed", SEED, "--format", "json"] for c in COMMANDS]
# sample counts that leave a partial point block at m <= 3 (13 and 21 with
# blocks of 8; 37, one full block of 32 and a partial one, with blocks of 32)
COMMANDS += [
    ["verify", "--catalog", "veronese", "--param", f"r={R}",
     "--points", "13", "--seed", SEED, "--format", "json"],
    ["verify", "--catalog", "small-hypersphere", "--param", "m=3", "--param", f"r={R}",
     "--points", "21", "--seed", SEED, "--format", "json"],
    ["verify", "--catalog", "veronese", "--param", f"r={R}",
     "--points", "37", "--seed", SEED, "--format", "json"],
    ["verify", "--catalog", "small-hypersphere", "--param", "m=3", "--param", f"r={R}",
     "--points", "37", "--seed", SEED, "--format", "json"],
    # m = 6: two blocks of 4 and a partial block of 2
    ["verify", "--catalog", "small-hypersphere", "--param", "m=6", "--param", f"r={R}",
     "--points", "10", "--seed", SEED, "--format", "json"],
]
SCANS = [
    ["--family", "small-hypersphere", "--param", "r", "--range", "0.3:0.99"],
    ["--family", "clifford-torus-b3", "--param", "t", "--range", "0.2:0.69"],
    ["--family", "product-spheres", "--param", "r", "--param", "m1=2", "--param", "m2=1",
     "--range", "0.3:0.95"],
    # a range without a root, and one whose upper end is the minimal member
    ["--family", "small-hypersphere", "--param", "r", "--range", "0.3:0.55"],
    ["--family", "veronese", "--param", "r", "--range", "0.5:1.0"],
    ["--chart", SPHERE_FAMILY_DOC, "--param", "r", "--range", "0.3:0.95"],
    ["--chart", PRODUCT_REF_DOC, "--param", "r", "--range", "0.3:0.95"],
    # m = 4: a minimal root at r = 1/2, a proper one at 1/sqrt(2)
    ["--family", "product-spheres", "--param", "r", "--param", "m1=1", "--param", "m2=3",
     "--range", "0.3:0.95"],
    ["--chart", POLE_DOC_FILE, "--param", "c", "--range", "0.0:3.0"],
]
# scans stack the sample points of consecutive grid values into chart passes
# of 64 rows and tau2 stages of block_size(m) rows: 5 points a value split
# a value across two passes (at m = 3 also across blocks of 32), 33 cross
# the passes of 64 (at m <= 2 one block each), and 70 points make more than
# one pass a value; the pole-crossing family has failing points inside a pass
SCANS += [
    [*SCANS[0], "--samples", "5"],
    [*SCANS[2], "--samples", "5"],
    [*SCANS[1], "--samples", "33"],
    [*SCANS[0], "--samples", "70"],
    [*SCANS[8], "--samples", "5"],
]
COMMANDS += [["scan", *s, "--steps", "40", "--seed", SEED, "--format", "json"] for s in SCANS]
# sample points drawn at m = 3: the values m = 1, 2, 4, 5 fail their whole
# chart pass, and the half-integer ones fail to build
COMMANDS += [["scan", "--family", "small-hypersphere", "--param", "m", "--param", f"r={R}",
              "--range", "1:5", "--steps", "9", "--samples", "5", "--seed", SEED,
              "--format", "json"]]
# the text renderers: human verify and audit, CSV scan
COMMANDS += [
    [cmd, "--chart", S2_S2_DOC, "--points", "16", "--seed", SEED] for cmd in ("verify", "audit")
]
COMMANDS += [["scan", *SCANS[2], "--steps", "40", "--seed", SEED, "--format", "csv"]]
# a report with failures: 5 of 37 pole-crossing samples fail the sqrt (c = 1)
COMMANDS += [["verify", "--chart", POLE_DOC_FILE, "--points", "37", "--seed", SEED, *fmt]
             for fmt in (["--format", "json"], [])]
# both PMC branches at every sample: the normal-frame completion of H/|H|
# (perturbed torus), and none at all (the equator, where H vanishes)
COMMANDS += [
    ["verify", "--chart", TORUS_DOC, "--points", "37", "--seed", SEED, "--format", "json"],
    ["verify", "--catalog", "small-hypersphere", "--param", "m=2", "--param", "r=1",
     "--points", "37", "--seed", SEED, "--format", "json"],
]


def chart_doc(chart, expr, base) -> dict:
    spec = chart.perturbed_chart(5, base)
    return {
        "name": spec.name, "m": spec.m, "n": spec.n,
        "expressions": [expr.to_string(c) for c in spec.components],
        "domain": [list(iv) for iv in spec.domain],
        "params": dict(spec.params), "normalize": spec.normalize,
    }


# the --fields charts: m = 1..6, codimension 1..4, catalog, perturbed and
# document charts; a sphere chart crossing its pole adds a rank-deficient
# point and a chart-stage failure to a block
POLE_DOC = {
    "name": "pole-crossing", "m": 2, "n": 3,
    "expressions": ["cos(u1) * sin(u2)", "sin(u1) * sin(u2)", "cos(u2)",
                    "sin(u2) * sqrt(u1 - c)"],
    "domain": [[0.0, 6.28], [-1.5, 1.5]],
    "params": {"c": 1.0},
    "normalize": True,
}


def field_charts(chart, expr) -> list:
    def bumped(m):
        base = chart.catalog_chart("small-hypersphere", {"m": m, "r": 0.8})
        comps = [f"{expr.to_string(c)} + {0.03 * (1 + 0.3 * k)!r} * sin(u{k % m + 1}"
                 f" + 2.0 * u{(k + 1) % m + 1} + {0.7 * k!r})"
                 for k, c in enumerate(base.components)]
        return chart.ChartSpec(name=f"bumped-hypersphere-{m}", m=m, n=m + 1,
                               components=comps, domain=base.domain, params=base.params,
                               normalize=True)

    return [bumped(m) for m in range(1, 7)] + [
        chart.catalog_chart("small-hypersphere", {"m": 3, "r": 0.7}),
        chart.catalog_chart("clifford-torus-b3", {"a": 0.5, "b": 0.45}),
        chart.catalog_chart("veronese", {"r": 0.8}),
        chart.catalog_chart("product-spheres", {"m1": 2, "m2": 1, "r1": 0.8, "r2": 0.6}),
        chart.catalog_chart("generalized-clifford",
                            {"m1": 2, "m2": 4, "r1": 0.6, "r2": 0.8}),
        chart.perturbed_chart(71), chart.perturbed_chart(72, base="torus"),
        chart.parse_chart(S2_S2), chart.parse_chart(S2_S2_S8), chart.parse_chart(POLE_DOC),
    ]


def field_digests(chart, expr, extrinsic) -> None:
    def outcome(fn, *args):
        try:
            return fn(*args)
        except ValueError as e:         # GeometryError, ChartError
            return e

    def entries(block):
        """(error or field values, scalar curvature) of each point of a
        geometry block, or the error the whole call raised."""
        if isinstance(block, ValueError):
            return [(block, None)]
        out = []
        for p, error in enumerate(block.errors):
            if error is not None:
                out.append((error, None))
                continue
            values = [block.point[p], block.m, block.n] + [
                getattr(block, k)[p] if hasattr(block, k) else None for k in FIELDS[3:]]
            one = extrinsic.GeometryBlock(block.m, block.n, {
                k: np.take(getattr(block, k), [p], axis=0)
                for k in ("point",) + FIELDS[3:] if hasattr(block, k)}, [None])
            out.append((values, float(extrinsic.scalar_curvature(one)[0])
                        if block.m >= 2 else None))
        return out

    for spec in field_charts(chart, expr):
        count = 37 if spec.m <= 3 else 11    # full blocks and a partial one at m >= 3
        if spec.name == POLE_DOC["name"]:
            pts = np.column_stack([np.linspace(1.5, 6.0, count), np.linspace(-1.2, 1.3, count)])
            pts[2], pts[5] = (3.0, 0.0), (0.5, 0.7)
        else:
            pts = chart.sample_points(spec, count, 5)
        h = hashlib.sha256()
        nfields = ngeoms = 0
        blocks = itertools.chain(
            [outcome(extrinsic.geometry_block, spec, pts)],
            extrinsic.sample_blocks(spec, pts),
            [outcome(extrinsic.geometry_block, spec, [p]) for p in pts])
        for values, scalar in itertools.chain.from_iterable(map(entries, blocks)):
            if isinstance(values, ValueError):
                h.update(f"{type(values).__name__}: {values}".encode())
                continue
            if scalar is not None:
                values.append(scalar)
            for v in values:
                if isinstance(v, np.generic):
                    v = v.item()
                if isinstance(v, np.ndarray):
                    h.update(repr((v.dtype.str, v.shape, v.flags.writeable)).encode())
                    h.update(v.tobytes())
                else:
                    h.update(repr(v).encode())
            nfields += len(values)
            ngeoms += 1
        print(f"{h.hexdigest()}  fields={nfields} geometries={ngeoms}  {spec.name}",
              flush=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory holding the bitension package (default: ./src)")
    ap.add_argument("--fields", action="store_true",
                    help="digest the geometry fields per chart instead of reports")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from bitension import chart, cli, expr, extrinsic

    if args.fields:
        field_digests(chart, expr, extrinsic)
        return 0

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name, doc in ((CHART_DOC, chart_doc(chart, expr, "sphere")),
                          (TORUS_DOC, chart_doc(chart, expr, "torus")), (S2_S2_DOC, S2_S2),
                          (S2_S2_S8_DOC, S2_S2_S8),
                          (SPHERE_FAMILY_DOC, SPHERE_FAMILY), (PRODUCT_REF_DOC, PRODUCT_REF),
                          (POLE_DOC_FILE, POLE_DOC)):
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
        for argv in COMMANDS:
            code = cli.main(argv + ["--output", "out.txt"])
            text = b""
            if os.path.exists("out.txt"):           # a failed command writes none
                with open("out.txt", "rb") as fh:
                    text = fh.read()
                os.unlink("out.txt")
            digest = hashlib.sha256(text).hexdigest()
            print(f"{digest}  exit={code}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
