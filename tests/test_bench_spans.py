"""The functions the benchmark tracer wraps exist under the names it uses,
and every layer a workload reports is a span the tracer records, so
renaming one fails the package's own tests, not only the benchmark's."""

import importlib
import runpy
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _spanned() -> tuple:
    # run_path compiles the file without writing bytecode next to it
    return runpy.run_path(str(BENCH / "tracer.py"))["SPANNED"]


def test_every_spanned_function_resolves():
    spanned = _spanned()
    assert spanned
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in spanned
        if not callable(
            getattr(importlib.import_module(f"redeiberge.{module}"), attr, None)
        )
    ]
    assert not missing


def test_every_workload_layer_is_a_span():
    recorded = {name for _, _, names, *_ in _spanned() for name in names}
    workloads = runpy.run_path(str(BENCH / "workloads.py"))["WORKLOADS"]
    assert workloads
    unknown = [
        f"{w.name}: {layer}"
        for w in workloads.values()
        for layer in w.layers
        if layer not in recorded
    ]
    assert all(w.layers for w in workloads.values())
    assert not unknown
