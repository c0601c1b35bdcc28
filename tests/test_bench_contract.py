"""The benchmark's tracer names package functions by module and attribute;
every name it traces must exist, or ``bench/run.py --trace 1`` and
``bench/selfcheck.py`` break.  Every config its harness generates must pass
validation.  The bench files are loaded from their paths, read only."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from ucabeam import analysis, arraymodel, xpcli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load_bench("tracer")


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


def test_channel_stack_is_one_traced_call_over_the_grid(monkeypatch):
    # the tracer's channel layer, calls and unique_frac count the stack as
    # one channel_matrix call, looked up in the module globals, whose
    # (id(args[0]), args[1]) pair is hashed
    calls = []
    channel_matrix = arraymodel.channel_matrix

    def tracked(*args, **kwargs):
        calls.append((args, kwargs))
        return channel_matrix(*args, **kwargs)

    monkeypatch.setattr(arraymodel, "channel_matrix", tracked)
    grid = arraymodel.FrequencyGrid(30e9, 1e9, 11)
    ch = arraymodel.generate_channel(arraymodel.half_wavelength_uca(8, 30e9),
                                     arraymodel.UlaGeometry(2, 0.005), grid, 2, 0)
    assert ch.matrices is ch.matrices
    assert len(calls) == 1
    (args, kwargs), = calls
    assert kwargs == {} and len(args) == 2 and args[0] is ch
    hash(args[1])
    assert np.array_equal(np.asarray(args[1]), np.arange(11))


def test_every_generated_config_validates(tmp_path, capsys):
    # the bench runs the configs it generates: a stricter rule must accept them
    harness = _load_bench("harness")
    for workload in harness.WORKLOADS:
        plan = harness.make_plan(workload, 0)
        harness.write_configs({"xpcli": xpcli}, plan, tmp_path / workload)
        for cfg, _ in plan.files.values():
            assert xpcli.main(["validate", str(cfg)]) == 0, capsys.readouterr().err
    assert len(harness.WORKLOADS) == 3


def test_one_seed0_pass_of_each_workload_meets_the_reference(tmp_path):
    # a pass as the bench runs it, checked by its own gates and against its
    # recorded seed-0 rows at its own tolerance
    harness = _load_bench("harness")
    modules = {"xpcli": xpcli, "analysis": analysis}
    for workload in harness.WORKLOADS:
        plan = harness.make_plan(workload, harness.DEFAULT_SEED)
        harness.write_configs(modules, plan, tmp_path / workload)
        ttd = harness.execute(modules, plan)
        reference = harness.load_reference(plan)
        assert reference
        assert harness.check(plan, harness.read_outputs(plan), ttd, reference) == [], workload
