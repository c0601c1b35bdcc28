"""The benchmark's tracer names package functions by module and attribute;
every name it traces must exist, or ``bench/run.py --trace 1`` and
``bench/selfcheck.py`` break.  Every config its harness generates must pass
validation.  The bench files are loaded from their paths, read only."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from ucabeam import analysis, arraymodel, precoding, xpcli

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


def _trial_scenario(n_subcarriers):
    """Two seeds of an SNR sweep of the three trial methods: one channel
    per seed."""
    return xpcli.scenario_from_dict({
        "name": "contract", "description": "trial methods on a small ring",
        "system": {"n_elements_tx": 16, "n_elements_rx": 4, "fc_hz": 30e9,
                   "bandwidth_hz": 1e9, "n_subcarriers": n_subcarriers, "radius_m": None,
                   "target_angle_rad": 0.5},
        "precoding": {"n_rf": 1, "k_ttd": 4, "n_streams": 1, "total_power": 1.0},
        "sweep": {"variable": "snr_db", "start": 0.0, "stop": 10.0, "points": 2},
        "trials": {"n_seeds": 2, "base_seed": 7, "n_paths": 2, "snr_db": 10.0},
        "methods": ["classic", "dpp", "optimal"], "output": "contract.csv"})


def test_runner_calls_are_aligned_runs_the_tracer_can_hash(monkeypatch):
    # the tracer's channel layer, calls and unique_frac see the runner's
    # channel_matrix calls, looked up in the precoder's globals: each is
    # (ch, range) of step 1 from a multiple of SUBCARRIER_CHUNK, whose
    # (id(args[0]), args[1]) pair is hashed, and each subcarrier of each
    # channel is synthesized once; 11 subcarriers end in a partial chunk
    calls = []
    channel_matrix = precoding.channel_matrix

    def tracked(*args, **kwargs):
        calls.append((args, kwargs))  # holds the channel: its id stays unique
        return channel_matrix(*args, **kwargs)

    monkeypatch.setattr(precoding, "channel_matrix", tracked)
    xpcli.run(_trial_scenario(11))
    per_channel = {}
    for args, kwargs in calls:
        assert kwargs == {} and len(args) == 2
        ch, m = args
        assert isinstance(ch, arraymodel.ChannelRealization) and isinstance(m, range)
        assert m.step == 1 and m.start % arraymodel.SUBCARRIER_CHUNK == 0
        hash((id(ch), m))
        per_channel.setdefault(id(ch), []).extend(m)
    assert len(per_channel) == 2
    assert all(sorted(subs) == list(range(11)) for subs in per_channel.values())


def test_runner_rates_designs_through_the_traced_binding(monkeypatch):
    # the tracer wraps analysis.spectrum_efficiency by rebinding the module
    # attribute, so the runner must look it up when it rates a design
    rated = []
    spectrum_efficiency = analysis.spectrum_efficiency

    def tracked(*args):
        rated.append(args[0])
        return spectrum_efficiency(*args)

    monkeypatch.setattr(analysis, "spectrum_efficiency", tracked)
    xpcli.run(_trial_scenario(5))
    assert len(rated) == 2 * 3  # one per seed and design: the SNRs share it


def test_every_generated_config_validates(tmp_path, capsys):
    # the bench runs the configs it generates, at seeds 0-9: a stricter rule
    # must accept them
    harness = _load_bench("harness")
    for workload in harness.WORKLOADS:
        for seed in range(10):
            plan = harness.make_plan(workload, seed)
            harness.write_configs({"xpcli": xpcli}, plan, tmp_path / workload / str(seed))
            for cfg, _ in plan.files.values():
                assert xpcli.main(["validate", str(cfg)]) == 0, (seed, capsys.readouterr().err)
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
