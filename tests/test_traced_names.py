"""Every name the benchmark's tracer wraps (perfbench/layers.py) still
resolves in speclab, so that deleting or renaming a traced function or
method fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layers, tracing = _load("layers"), _load("tracing")
    modules = {m: importlib.import_module(f"speclab.{m}") for m, *_ in layers.TARGETS}
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = tracing.Tracer()
    try:
        # raises if a module, class, function or method it names is gone
        tracer.install("speclab", layers.TARGETS)
        assert len(tracer._patches) >= len(layers.TARGETS)
    finally:
        tracer.uninstall()
    assert {name: dict(vars(mod)) for name, mod in modules.items()} == before
