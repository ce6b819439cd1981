"""The benchmark's tracer replaces functions by (module, attribute) name in
the package's modules. A binding that no longer exists breaks the traced
benchmark run, so every name it lists must stay importable. The tracer is
loaded from its file and never installed: installing would patch the
package for the rest of the test run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists_in_the_package():
    tracing = _tracing()
    bindings = [pair for pairs in tracing._SPANS.values() for pair in pairs]
    bindings += tracing._SAMPLERS
    assert len(bindings) > 20
    missing = [
        f"{mod}.{attr}" for mod, attr in bindings
        if not hasattr(importlib.import_module(f"ostrocube.{mod}"), attr)
    ]
    assert missing == []


def test_sampler_bindings_are_the_quadrature_samplers():
    # the tracer counts samples by wrapping the quadrature functions and
    # setting the wrapper in every listed module
    tracing = _tracing()
    quadrature = importlib.import_module("ostrocube.quadrature")
    for mod, attr in tracing._SAMPLERS:
        bound = getattr(importlib.import_module(f"ostrocube.{mod}"), attr)
        assert bound is getattr(quadrature, attr), f"{mod}.{attr}"
