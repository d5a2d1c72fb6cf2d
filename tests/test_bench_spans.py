"""The functions the benchmark tracer wraps exist under the names it uses,
so renaming one fails the package's own tests, not only the benchmark's."""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_spanned_function_resolves():
    # run_path compiles the file without writing bytecode next to it
    spanned = runpy.run_path(str(TRACER))["SPANNED"]
    assert spanned
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in spanned
        if not callable(
            getattr(importlib.import_module(f"redeiberge.{module}"), attr, None)
        )
    ]
    assert not missing
