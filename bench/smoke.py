"""Smoke check of the benchmark harness at the smallest size.

    python3 bench/smoke.py

For every workload, runs the end-to-end and the traced measurement on
2-point verifies and coarse scans, and asserts that exactly the metrics
BENCHMARK.json declares are emitted.  Then feeds the correctness gate a wrong
expected verdict and a wrong expected root, and asserts that each counts as a
failed operation, and checks that only the signature of the known direct-τ₂
defect is exempted from failing.  Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run
import workloads

SEED = 7


def check_metric_names(pkg) -> list[str]:
    errors = []
    with open(os.path.join(run.HERE, "metric_map.json"), encoding="utf-8") as fh:
        mapped = {m["layer_metric"] for m in json.load(fh)["layer_metrics"]}
    declared = {m["name"] for m in run.declared_metrics(trace=True)}
    if mapped != declared:
        errors.append(f"metric_map.json and BENCHMARK.json per_layer differ: "
                      f"{sorted(mapped ^ declared)}")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            h = run.Harness(pkg, name, SEED, smoke=True)
            if trace:
                computed, _ = run.per_layer(h, seconds=0)
            else:
                computed, _ = run.end_to_end(h, seconds=0, probes=1)
            try:
                result = run.result_line(h, computed, trace)
            except RuntimeError as e:
                errors.append(f"{name} trace={int(trace)}: {e}")
                continue
            for metric, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    errors.append(f"{name}: {metric} is not a number")
            print(f"ok  {name} trace={int(trace)}: {len(result['metrics'])} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")
    return errors


def check_gate(pkg) -> list[str]:
    """A right expectation passes and a wrong one fails, for both kinds."""
    errors = []
    h = run.Harness(pkg, "verify-lowdim", SEED, smoke=True)
    torus = next(op for op in h.ops if op.label.startswith("clifford-torus"))
    scan = workloads.build("scan-family", SEED, "", smoke=True)[0]
    wrong_root = [(t + 1e-3, cls) for t, cls in scan.expect_roots]
    cases = [
        (torus, dataclasses.replace(torus, expect_verdict=workloads.NOT)),
        (scan, dataclasses.replace(scan, expect_roots=wrong_root)),
    ]
    for right, wrong in cases:
        before = len(h.failures)
        h.call(right)
        if len(h.failures) != before:
            errors.append(f"gate rejected a right answer for {right.label}: {h.failures[-1]}")
            continue
        h.call(wrong)
        if len(h.failures) != before + 1:
            errors.append(f"gate accepted a wrong expectation for {wrong.label}")
        else:
            print(f"ok  gate rejects {wrong.label}: {h.failures[-1]['problems'][0]}")
    if h.wrong_verdicts != 1:
        errors.append(f"expected 1 wrong verdict, counted {h.wrong_verdicts}")
    return errors


def check_known_defect() -> list[str]:
    """Only the direct-τ₂ signature, on a chart marked for it, is the known
    defect; the same report on another chart, or with the split form also
    failing, is not."""
    errors = []
    marked = workloads.build("verify-highdim", SEED, "", smoke=True)[-1]
    unmarked = dataclasses.replace(marked, direct_tau2_defect=False)
    report = {"verdict": "inconclusive", "thresholds": {"pass_tol": 1e-6},
              "residuals": {"tau2_direct_norm": {"max": 2.4e-5},
                            "split_normal_norm": {"max": 5e-11},
                            "split_tangent_norm": {"max": 7e-13},
                            "hyper_i_residual": {"max": 7e-10},
                            "hyper_ii_residual": {"max": 5e-13}}}
    split_fails = json.loads(json.dumps(report))
    split_fails["residuals"]["split_normal_norm"]["max"] = 2e-5
    cases = [(marked, report, True), (unmarked, report, False),
             (marked, split_fails, False)]
    for op, rep, want in cases:
        got = workloads.known_defect(op, 1, json.dumps(rep)) is not None
        if got != want:
            errors.append(f"known_defect gave {got} for {op.label} "
                          f"(marked={op.direct_tau2_defect}), expected {want}")
    if not errors:
        print("ok  known direct-tau2 defect matched only on its signature")
    return errors


def main() -> int:
    run.prepare_environment()
    pkg = run.import_package()
    errors = check_metric_names(pkg) + check_gate(pkg) + check_known_defect()
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
