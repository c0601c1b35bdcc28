"""The benchmark's tracer names package functions by module and attribute;
every name it traces must exist, or ``bench/run.py --trace 1`` and
``bench/selfcheck.py`` break.  The tracer is loaded from its path, read only."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_function_exists():
    tracer = _load_tracer()
    missing = []
    for mod_name, fns in tracer.TRACED.items():
        module = importlib.import_module(f"ucabeam.{mod_name}")
        missing += [f"{mod_name}.{fn}" for fn in fns if not callable(getattr(module, fn, None))]
    assert tracer.TRACED and missing == []


def test_every_traced_builder_takes_the_channel_first():
    # the tracer counts the distinct channels a builder sees as id(args[0])
    tracer = _load_tracer()
    first = {}
    for name in tracer.BUILDERS:
        mod_name, _, fn = name.partition(".")
        builder = getattr(importlib.import_module(f"ucabeam.{mod_name}"), fn)
        params = list(inspect.signature(builder).parameters.values())
        first[name] = (params[0].name, params[0].kind) if params else None
    assert tracer.BUILDERS and first == {
        name: ("ch", inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in tracer.BUILDERS}
