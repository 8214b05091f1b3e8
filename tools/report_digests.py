"""Print a sha256 of the output of a fixed set of ``bitension`` commands.

Run it against two source trees and compare: any difference in the printed
lines means a change moved report bytes.

    python3 tools/report_digests.py                  # the package in ./src
    python3 tools/report_digests.py --src OTHER/src  # another checkout's src

Each line reads ``<sha256>  exit=<code>  <command line>``.  The commands run
in-process through ``cli.main`` inside a temporary directory, so the chart
document path echoed in a report is the same relative name on every run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile

R = repr(1.0 / math.sqrt(2.0))
SEED = "3"
CHART_DOC = "perturbed-sphere-5.json"
# S^2(1/2) x S^2(1/2) x {1/sqrt(2)} in S^6: m = 4 in codimension 2, proper
# biharmonic with |H| = 1, so the normal frame, B_frame and PMC all show
S2_S2_DOC = "s2-s2-point.json"
S2_S2 = {
    "name": "S2(1/2) x S2(1/2) x {1/sqrt(2)}", "m": 4, "n": 6,
    "expressions": ["0.5 * sin(u1) * cos(u2)", "0.5 * sin(u1) * sin(u2)", "0.5 * cos(u1)",
                    "0.5 * sin(u3) * cos(u4)", "0.5 * sin(u3) * sin(u4)", "0.5 * cos(u3)", R],
    "domain": [[0.0, math.pi], [0.0, 2.0 * math.pi]] * 2,
}
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
]
COMMANDS = [c + ["--points", "16", "--seed", SEED, "--format", "json"] for c in COMMANDS]
# sample counts that leave a partial point block (blocks of 8 at m <= 3)
COMMANDS += [
    ["verify", "--catalog", "veronese", "--param", f"r={R}",
     "--points", "13", "--seed", SEED, "--format", "json"],
    ["verify", "--catalog", "small-hypersphere", "--param", "m=3", "--param", f"r={R}",
     "--points", "21", "--seed", SEED, "--format", "json"],
]
SCANS = [
    ["--family", "small-hypersphere", "--param", "r", "--range", "0.3:0.99"],
    ["--family", "clifford-torus-b3", "--param", "t", "--range", "0.2:0.69"],
    ["--family", "product-spheres", "--param", "r", "--param", "m1=2", "--param", "m2=1",
     "--range", "0.3:0.95"],
    # a range without a root, and one whose upper end is the minimal member
    ["--family", "small-hypersphere", "--param", "r", "--range", "0.3:0.55"],
    ["--family", "veronese", "--param", "r", "--range", "0.5:1.0"],
]
COMMANDS += [["scan", *s, "--steps", "40", "--seed", SEED, "--format", "json"] for s in SCANS]
# the text renderers: human verify and audit, CSV scan
COMMANDS += [
    [cmd, "--chart", S2_S2_DOC, "--points", "16", "--seed", SEED] for cmd in ("verify", "audit")
]
COMMANDS += [["scan", *SCANS[2], "--steps", "40", "--seed", SEED, "--format", "csv"]]


def chart_doc(chart, expr) -> dict:
    spec = chart.perturbed_chart(5, "sphere")
    return {
        "name": spec.name, "m": spec.m, "n": spec.n,
        "expressions": [expr.to_string(c) for c in spec.components],
        "domain": [list(iv) for iv in spec.domain],
        "params": dict(spec.params), "normalize": spec.normalize,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    here = os.path.dirname(os.path.abspath(__file__))
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory holding the bitension package (default: ./src)")
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from bitension import chart, cli, expr

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for name, doc in ((CHART_DOC, chart_doc(chart, expr)), (S2_S2_DOC, S2_S2)):
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
