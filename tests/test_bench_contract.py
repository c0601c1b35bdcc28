"""The benchmark's tracer names package functions by module and attribute;
every name it traces must exist, or ``bench/run.py --trace 1`` and
``bench/selfcheck.py`` break.  The tracer is loaded from its path, read only."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, fns in tracer.TRACED.items():
        module = importlib.import_module(f"ucabeam.{mod_name}")
        missing += [f"{mod_name}.{fn}" for fn in fns if not callable(getattr(module, fn, None))]
    assert tracer.TRACED and missing == []
