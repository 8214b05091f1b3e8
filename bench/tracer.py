"""Span tracer around the public entry points of each bitension layer.

Wrappers replace module attributes and ``JetSpace`` methods, so calls made
from inside the package are caught as well as the harness's own.  Spans
(name, start, end, parent) are kept in flat in-memory arrays and written out
when the run ends; self time is a span's duration minus the durations of its
direct children.  Names missing from the package under test are skipped and
reported, so the harness still runs after a layer is renamed.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute) pairs traced as plain spans; the span name is
# "<module>.<attribute>".  JetSpace kernels are patched on the class.
JET_KERNELS = ("mul", "dot", "deriv", "compose")
MODULE_FUNCTIONS = (
    ("expr", "parse"),
    ("expr", "eval_jet"),
    ("chart", "catalog_chart"),
    ("chart", "parse_chart"),
    ("chart", "eval_jet_stack"),
    ("chart", "sample_points"),
    ("extrinsic", "compute_geometry"),
    ("extrinsic", "intrinsic_curvature"),
    ("biharmonic", "evaluate_chart"),
    ("biharmonic", "tau2_direct"),
    ("biharmonic", "split_residuals"),
    ("biharmonic", "hypersurface_residuals"),
    ("biharmonic", "pmc_check"),
    ("biharmonic", "quantity_audit"),
    ("scan", "sweep"),
    ("scan", "_refine"),
    ("cli", "main"),
)
# recursive functions: only the outermost call is a span
OUTERMOST_ONLY = {"expr.eval_jet"}


class Tracer:
    def __init__(self, package):
        self.pkg = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._open: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.dims: set[int] = set()      # numbers of variables the kernels saw

    # -- span recording ----------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, on_error=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        outermost = name in OUTERMOST_ONLY
        stack, opened = self._stack, self._open
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if outermost and opened[name]:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            opened[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error()
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                opened[name] -= 1
                stack.pop()
            if after is not None:
                after(args, kwargs, result, idx)
            return result

        return wrapper

    def _patch(self, owner, attr, name, **hooks):
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(name, fn, **hooks))

    def install(self):
        pkg = self.pkg
        jets = pkg.jets
        for kernel in JET_KERNELS:
            hooks = {}
            if kernel in ("mul", "dot"):
                hooks["before"] = self._kernel_cost(jets, kernel)
            self._patch(jets.JetSpace, kernel, f"jets.{kernel}", **hooks)
        for module, attr in MODULE_FUNCTIONS:
            name = f"{module}.{attr}"
            hooks = {}
            if name == "extrinsic.compute_geometry":
                hooks["on_error"] = lambda: self._count("extrinsic.geometry_errors")
            elif name == "biharmonic.evaluate_chart":
                hooks["before"] = self._before_evaluate
                hooks["after"] = self._after_evaluate
            elif name == "scan.sweep":
                hooks["after"] = self._after_sweep
            elif name == "scan._refine":
                name = "scan.refine"
            self._patch(getattr(pkg, module), attr, name, **hooks)
        scan = pkg.scan
        profile = getattr(scan, "_profile", None)
        if profile is None:
            self.missing.append("scan.profile")
        else:
            self._patches.append((scan, "_profile", profile))
            scan._profile = self._wrap_profile(profile)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- counters at layer boundaries --------------------------------------

    def _count(self, key, amount=1):
        self.counts[key] += amount

    def _kernel_cost(self, jets, kernel):
        """Computed (not measured) flops and bytes of one mul/dot call, from
        the operand shapes and the number of multiplication-table pairs."""
        cost: dict[tuple, tuple[int, int]] = {}
        counts = self.counts
        flops_key = f"jets.{kernel}.flops"

        def before(args, kwargs):
            sp, a, b = args[0], args[1], args[2]
            order = args[3] if len(args) > 3 else kwargs.get("order", jets.ORDER)
            key = (sp.num_vars, order, np.shape(a), np.shape(b))
            hit = cost.get(key)
            if hit is None:
                npairs = len(sp.mul_table(order)[0])
                shape = np.broadcast_shapes(key[2], key[3])
                rows = math.prod(shape[:-1])
                # mul: read both operands and write the result (3 L), gather
                # two operands and scatter one product per pair (3 pairs)
                moved = 8 * rows * (3 * shape[-1] + 3 * npairs) if kernel == "mul" else 0
                hit = cost[key] = (2 * rows * npairs, moved)
                self.dims.add(sp.num_vars)
            counts[flops_key] += hit[0]
            if hit[1]:
                counts["jets.mul.bytes"] += hit[1]

        return before

    def _before_evaluate(self, args, kwargs):
        if self._open["scan.sweep"]:
            self._count("scan.reverify_calls")

    def _after_evaluate(self, args, kwargs, report, idx):
        self._count("biharmonic.samples_used", getattr(report, "samples_used", 0))
        self._count("biharmonic.samples_requested",
                    getattr(report, "samples_requested", 0))

    def _after_sweep(self, args, kwargs, result, idx):
        self._count("scan.roots_found", len(result.roots))
        for root in result.roots:
            self._count("scan.refine_iterations",
                        getattr(root, "bisection_iterations", 0))

    def _wrap_profile(self, profile):
        """Trace the closure ``_profile`` returns; a call that opened child
        spans evaluated the chart, a call without children was a cache hit."""
        tracer = self

        def after(args, kwargs, result, idx):
            if len(tracer.start) > idx + 1:
                tracer._count("scan.profile_evals")
                if tracer._open["scan.refine"]:
                    tracer._count("scan.refine_evals")

        def wrapped_profile(*args, **kwargs):
            return tracer._wrap("scan.profile", profile(*args, **kwargs), after=after)

        return wrapped_profile

    # -- aggregation -------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = par >= 0
        child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def save(self, path: str):
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
