"""The benchmark's tracer patches package attributes by name and skips the
names it cannot find, so a rename would silently drop a layer from the
per-layer counts.  Every name it wraps must exist in the package."""

import importlib
import importlib.util
from pathlib import Path

from bitension import jets, scan

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_names", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = _load_tracer()
    for name in tracer.JET_KERNELS:
        assert callable(jets.JetSpace.__dict__.get(name)), f"jets.JetSpace.{name}"
    for module, attr in tracer.MODULE_FUNCTIONS:
        mod = importlib.import_module(f"bitension.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
    assert callable(getattr(scan, "_profile", None)), "scan._profile"
