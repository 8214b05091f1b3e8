"""bitension benchmark: time-to-verdict, time-to-locus, and where the time goes.

Run from the repository root:

    python3 bench/run.py --workload verify-lowdim --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: a closed loop
with one client in one process calls ``cli.main`` over the workload's charts
for about ``--seconds`` seconds (whole rounds only), and fresh interpreters
time the set-up.  ``--trace 1`` makes untraced rounds, then as many traced
rounds over the same calls, and reports the per-layer metrics per round and
the tracing overhead.  Every call's output is checked against geometry.
The metric names and units are those of BENCHMARK.json; bench/metric_map.json
says which end-to-end metric each layer metric should move, and where.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_environment() -> dict:
    """Serial path: one BLAS thread and no BITENSION_THREADS.  Must run
    before numpy is imported; set-up probes inherit the environment."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    was_set = os.environ.pop("BITENSION_THREADS", None)
    return {"blas_threads": "1 (" + ", ".join(BLAS_THREAD_VARS) + ")",
            "BITENSION_THREADS": "unset" if was_set is None
            else f"unset (was {was_set!r})"}


def import_package():
    sys.path.insert(0, SRC)
    import bitension
    import bitension.cli  # noqa: F401  (the package does not import it)
    if not os.path.abspath(bitension.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported bitension from {bitension.__file__}, not {SRC}")
    return bitension


def provenance(env: dict) -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, **env}


def sloc() -> dict[str, int]:
    """Non-blank, non-comment lines per src/bitension module."""
    pkg_dir = os.path.join(SRC, "bitension")
    counts = {}
    for fname in sorted(os.listdir(pkg_dir)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg_dir, fname), encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh]
            name = "init" if fname == "__init__.py" else fname[:-3]
            counts[name] = sum(1 for ln in lines if ln and not ln.startswith("#"))
    return counts


class Harness:
    """Runs operations through ``cli.main`` and gates every output."""

    def __init__(self, pkg, workload: str, seed: int, smoke: bool = False):
        self.pkg = pkg
        self.workload = workload
        self.seed = seed
        chart_dir = os.path.join(OUT, "charts")
        self.report_dir = os.path.join(OUT, "reports")
        os.makedirs(chart_dir, exist_ok=True)
        os.makedirs(self.report_dir, exist_ok=True)
        self.ops = workloads.build(workload, seed, chart_dir, smoke=smoke)
        # digests persist across runs in one checkout, so a repeated
        # configuration is compared with every earlier call, not only this run's
        self.digest_path = os.path.join(OUT, "digests.json")
        try:
            with open(self.digest_path, encoding="utf-8") as fh:
                self.digests = json.load(fh)
        except (OSError, ValueError):
            self.digests = {}
        self.attempted = 0
        self.wrong_verdicts = 0
        self.failures: list[dict] = []
        self.known_defects: list[dict] = []   # see workloads.known_defect

    def warm_up(self):
        """One 1-point call per chart, as the set-up probe makes, so lazy
        tables and imports are done before anything is timed."""
        out = os.path.join(self.report_dir, "warmup.out")
        for op in self.ops:
            code = self.pkg.cli.main(op.probe_argv + ["--output", out])
            if code not in (0, 1):
                raise RuntimeError(f"set-up call for {op.label} exited {code}")

    def call(self, op: workloads.Op) -> tuple[float, int]:
        """Run and check one operation; return its wall time and report size."""
        out = os.path.join(self.report_dir, "report.out")
        if os.path.exists(out):
            os.unlink(out)
        argv = op.argv + ["--output", out]
        problems = []
        t0 = time.perf_counter()
        try:
            code = self.pkg.cli.main(argv)
        except Exception as e:   # a raise is a failed operation, not a crash
            code = None
            problems.append(f"raised {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        text = ""
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
        found, verdict = workloads.check(op, code, text)
        if verdict is not None and verdict != op.expect_verdict:
            self.wrong_verdicts += 1
        defect = workloads.known_defect(op, code, text) if found else None
        if defect:
            # listed, and counted in biharmonic.wrong_verdicts, but not failed
            self.known_defects.append({"op": op.label, "seed": self.seed,
                                       "miss": defect})
        else:
            problems += found
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(json.dumps(op.argv), digest) != digest:
            problems.append("report bytes differ from an earlier call with "
                            "the same configuration")
        if problems:
            self.failures.append({"op": op.label, "seed": self.seed,
                                  "problems": problems})
        return elapsed, len(text.encode())

    def save_digests(self):
        tmp = self.digest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.digests, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.digest_path)


# ---------------------------------------------------------------------------
# end-to-end run (tracing off)
# ---------------------------------------------------------------------------


def setup_seconds(h: Harness, probes: int = SETUP_PROBES) -> list[float]:
    """Wall time of fresh interpreters that import the package, build the
    jet tables and make one 1-point call per chart of the workload."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
           os.path.join(h.report_dir, "probe.out"),
           json.dumps([op.probe_argv for op in h.ops])]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=PROBE_TIMEOUT_S, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr}")
    return times


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten calls beyond it, and that
    percentile.  With twenty calls or fewer that percentile is not above the
    median, so the maximum (p100) is reported instead; otherwise a run of 12
    calls would report its second fastest."""
    s = sorted(times)
    n = len(s)
    if n <= 20:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(h: Harness, seconds: float,
               probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    probe_times = setup_seconds(h, probes)
    h.warm_up()
    times: list[float] = []
    by_op: dict[str, list[float]] = {op.label: [] for op in h.ops}
    grid_samples = 0

    def one_round():
        nonlocal grid_samples
        for op in h.ops:
            elapsed, _ = h.call(op)
            times.append(elapsed)
            by_op[op.label].append(elapsed)
            grid_samples += op.grid_samples

    # whole rounds, so every chart weighs the same in the statistics; as
    # many as fit --seconds best, judged by the first round
    t_start = time.perf_counter()
    one_round()
    for _ in range(max(1, round(seconds / (time.perf_counter() - t_start))) - 1):
        one_round()
    tail_s, tail_pct = tail(times)
    metrics = {
        "call_p50_s": statistics.median(times),
        "call_tail_s": tail_s,
        "samples_per_s": grid_samples / sum(times),
        "setup_s": statistics.median(probe_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "calls": len(times), "rounds": len(times) // len(h.ops),
        "tail_percentile": tail_pct, "setup_probe_s": probe_times,
        "per_op_median_s": {k: statistics.median(v) for k, v in by_op.items()},
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def table_build_seconds(jets, dims) -> float:
    """Time to build fresh multiplication and derivative tables for each
    number of variables the traced round used."""
    order = getattr(jets, "ORDER", 4)
    t0 = time.perf_counter()
    for m in dims:
        sp = jets.JetSpace(m)
        for o in range(1, order + 1):
            sp.mul_table(o)
        for v in range(m):
            sp.deriv_table(v)
    return time.perf_counter() - t0


def per_layer(h: Harness, seconds: float) -> tuple[dict, dict]:
    """Untraced rounds for about half of --seconds, then as many traced
    rounds; counts and self times are per round, so they repeat exactly."""
    from tracer import Tracer

    h.warm_up()
    t_start = time.perf_counter()
    untraced = [h.call(op) for op in h.ops]
    rounds = max(1, round(seconds / 2 / (time.perf_counter() - t_start)))
    untraced += [h.call(op) for _ in range(rounds - 1) for op in h.ops]
    wrong_before = h.wrong_verdicts
    tr = Tracer(h.pkg)
    tr.install()
    try:
        traced = [h.call(op) for _ in range(rounds) for op in h.ops]
    finally:
        tr.uninstall()
    untraced_wall = sum(t for t, _ in untraced)
    traced_wall = sum(t for t, _ in traced)
    os.makedirs(OUT, exist_ok=True)
    tr.save(os.path.join(OUT, f"spans-{h.workload}.npz"))

    spans = tr.layer_times()
    counts = defaultdict(int, {k: v / rounds for k, v in tr.counts.items()})

    def span(name):
        return spans.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def per_call(name, scale):
        s = span(name)
        return scale * s["incl_s"] / s["calls"] if s["calls"] else 0.0

    metrics: dict[str, float] = {}
    for name in ("jets.mul", "jets.dot", "jets.deriv", "jets.compose",
                 "expr.parse", "expr.eval_jet", "chart.catalog_chart",
                 "chart.parse_chart", "chart.eval_jet_stack",
                 "extrinsic.compute_geometry", "extrinsic.intrinsic_curvature",
                 "scan.sweep", "cli.main"):
        metrics[f"{name}.calls"] = span(name)["calls"] / rounds
        metrics[f"{name}.self_s"] = span(name)["self_s"] / rounds
    for name in ("chart.sample_points", "biharmonic.evaluate_chart",
                 "biharmonic.tau2_direct", "biharmonic.split_residuals",
                 "biharmonic.hypersurface_residuals", "biharmonic.pmc_check",
                 "biharmonic.quantity_audit"):
        metrics[f"{name}.self_s"] = span(name)["self_s"] / rounds
    metrics["jets.mul.us_per_call"] = per_call("jets.mul", 1e6)
    metrics["jets.mul.flops"] = counts["jets.mul.flops"]
    metrics["jets.mul.bytes"] = counts["jets.mul.bytes"]
    metrics["jets.dot.flops"] = counts["jets.dot.flops"]
    dims = sorted(tr.dims)
    metrics["jets.tables.build_s"] = table_build_seconds(h.pkg.jets, dims)
    metrics["extrinsic.compute_geometry.ms_per_call"] = per_call(
        "extrinsic.compute_geometry", 1e3)
    metrics["extrinsic.geometry_errors"] = counts["extrinsic.geometry_errors"]
    requested = counts["biharmonic.samples_requested"]
    metrics["biharmonic.samples_used_ratio"] = (
        counts["biharmonic.samples_used"] / requested if requested else 0.0)
    metrics["biharmonic.wrong_verdicts"] = (h.wrong_verdicts - wrong_before) / rounds
    for key in ("profile_evals", "refine_evals", "refine_iterations",
                "reverify_calls", "roots_found"):
        metrics[f"scan.{key}"] = counts[f"scan.{key}"]
    evals = counts["scan.profile_evals"]
    metrics["scan.refine_share"] = counts["scan.refine_evals"] / evals if evals else 0.0
    metrics["cli.report_bytes"] = statistics.mean(size for _, size in traced)
    metrics["trace.untraced_wall_s"] = untraced_wall / rounds
    metrics["trace.traced_wall_s"] = traced_wall / rounds
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    # modules added or removed later still count in src.sloc, so the
    # declared metric set never changes with the package layout
    lines = sloc()
    for m in declared_metrics(trace=True):
        if m["name"].endswith(".sloc"):
            metrics[m["name"]] = lines.get(m["name"][:-len(".sloc")], 0)
    metrics["src.sloc"] = sum(lines.values())
    detail = {"rounds": rounds, "spans": len(tr.start), "missing_layers": tr.missing,
              "table_dims": dims,
              "self_s_by_span": {k: v["self_s"] for k, v in sorted(spans.items())}}
    return metrics, detail


# ---------------------------------------------------------------------------


def declared_metrics(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def result_line(h: Harness, computed: dict, trace: bool) -> dict:
    declared = declared_metrics(trace)
    names = {m["name"] for m in declared}
    if set(computed) != names:
        raise RuntimeError(
            f"computed metrics differ from BENCHMARK.json: missing "
            f"{sorted(names - set(computed))}, extra {sorted(set(computed) - names)}")
    return {"correct": not h.failures, "attempted": h.attempted,
            "failed": len(h.failures),
            "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def print_report(h: Harness, prov: dict, result: dict, detail: dict, trace: bool):
    print(f"bitension benchmark  workload={h.workload} seed={h.seed} "
          f"trace={int(trace)}")
    print("host  " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print("load  closed loop, 1 client, 1 process; wait_s 0 "
          "(each call starts when the previous one returns, so nothing queues)")
    with open(os.path.join(HERE, "metric_map.json"), encoding="utf-8") as fh:
        aliases = json.load(fh)["end_to_end_names"]
    for name, m in result["metrics"].items():
        alias = "" if trace else aliases.get(name, {}).get(h.workload, "")
        if alias:
            alias = f"  ({alias})"
        label = " (computed)" if name.endswith((".flops", ".bytes")) else ""
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}{label}{alias}")
    if not trace:
        print(f"  calls {detail['calls']} in {detail['rounds']} rounds; tail is "
              f"p{detail['tail_percentile']:.1f}; setup_s is the median of "
              f"{len(detail['setup_probe_s'])} fresh interpreters")
    ratio = result["failed"] / result["attempted"]
    print(f"  failed_ratio {result['failed']}/{result['attempted']} = {ratio:.4g}")
    by_op: dict[str, list[str]] = {}
    for f in h.failures:
        by_op.setdefault(f["op"], []).extend(f["problems"])
    for op, problems in by_op.items():
        print(f"  FAILED {op} (seed {h.seed}): " + "; ".join(dict.fromkeys(problems)))
    known: dict[str, list[str]] = {}
    for k in h.known_defects:
        known.setdefault(k["op"], []).append(k["miss"])
    for op, misses in known.items():
        print(f"  WRONG VERDICT, known direct-tau2 defect, {op} (seed {h.seed}), "
              f"{len(misses)} calls: " + "; ".join(dict.fromkeys(misses)))
    if trace and detail["missing_layers"]:
        print("  layers not found: " + ", ".join(detail["missing_layers"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bitension", "__init__.py")):
        print(f"error: no bitension sources under {SRC}", file=sys.stderr)
        return 2
    env = prepare_environment()
    pkg = import_package()
    prov = provenance(env)
    h = Harness(pkg, args.workload, args.seed)
    trace = bool(args.trace)
    computed, detail = per_layer(h, args.seconds) if trace else end_to_end(h, args.seconds)
    h.save_digests()
    result = result_line(h, computed, trace)
    with open(os.path.join(OUT, f"result-{h.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"seed": h.seed, "provenance": prov, "detail": detail,
                   "failures": h.failures, "known_defects": h.known_defects,
                   **result}, fh, indent=2)
    print_report(h, prov, result, detail, trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
