"""Scenario schema, runner determinism, CSV round-trips, CLI exit codes."""

import dataclasses
import gc
import importlib.resources
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_golden import reduced_scenario
from ucabeam import analysis, arraymodel, precoding, specfun, xpcli
from ucabeam.precoding import DppConfig, build_classic_hybrid, build_dpp
from ucabeam.specfun import ConvergenceError
from ucabeam.xpcli import (
    ResultRow,
    ResultTable,
    ScenarioError,
    builtin_names,
    load_builtin,
    load_scenario,
    main,
    run,
    scenario_from_dict,
    validate_scenario,
)

FC = 30e9


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(p)


def _small_trial_scenario(**overrides):
    data = {
        "name": "mini",
        "description": "small trial sweep for tests",
        "system": {
            "n_elements_tx": 16,
            "n_elements_rx": 4,
            "fc_hz": FC,
            "bandwidth_hz": 1e9,
            "n_subcarriers": 5,
            "radius_m": None,
            "target_angle_rad": 0.5,
        },
        "precoding": {"n_rf": 1, "k_ttd": 4, "n_streams": 1, "total_power": 1.0},
        "sweep": {"variable": "snr_db", "start": -10.0, "stop": 20.0, "points": 3},
        "trials": {"n_seeds": 3, "base_seed": 7, "n_paths": 2, "snr_db": 10.0},
        "methods": ["classic", "dpp", "optimal"],
        "output": "mini.csv",
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# schema and validation
# ---------------------------------------------------------------------------


def test_builtin_names_stable_order():
    assert builtin_names() == (
        "fig2", "fig3a", "fig3b", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    )


def test_every_builtin_loads_clean():
    for name in builtin_names():
        scenario = load_builtin(name)
        assert validate_scenario(scenario) == []
        assert scenario.name == name
        assert scenario.methods


def test_unknown_scenario_lists_builtins(tmp_path):
    with pytest.raises(ScenarioError, match="fig10"):
        load_scenario("definitely_not_a_scenario")


def test_invalid_json_is_config_error(tmp_path):
    path = _write(tmp_path, "broken.json", "{not json")
    with pytest.raises(ScenarioError, match="invalid JSON"):
        load_scenario(path)


def test_divisibility_diagnostic():
    data = _small_trial_scenario()
    data["precoding"]["k_ttd"] = 7
    with pytest.raises(ScenarioError, match="precoding.k_ttd: k_ttd=7 must divide n_elements=16"):
        scenario_from_dict(data)


def test_method_sweep_mismatch_diagnostic():
    data = _small_trial_scenario()
    data["methods"] = ["ps_exact"]
    with pytest.raises(ScenarioError, match="not valid for a 'snr_db' sweep"):
        scenario_from_dict(data)


@pytest.mark.parametrize("name, methods, label", [
    ("fig2", ["ps_exact", "ps_exact"], "ps_exact"),
    ("fig8", ["dpp", "optimal", "dpp"], "dpp"),
])
def test_duplicate_method_label_is_a_config_error(tmp_path, capsys, name, methods, label):
    # a label listed twice would write its rows twice (and evaluate a trial
    # method twice per seed)
    data = _builtin_data(name)
    data["methods"] = methods
    cfg = _write(tmp_path, "dup.json", data)
    assert main(["validate", cfg]) == 2
    assert f"methods: {label!r} is listed more than once" in capsys.readouterr().err
    assert main(["run", cfg, "--out", "-"]) == 2


def test_empty_frequency_suffix_is_a_config_error(tmp_path, capsys):
    # "uca_exact@" is not "uca_exact": the suffix is there, and empty
    data = _builtin_data("fig3b")
    data["methods"] = ["uca_exact@"]
    cfg = _write(tmp_path, "empty_suffix.json", data)
    assert main(["validate", cfg]) == 2
    assert "methods: 'uca_exact@': f_hz must be positive, got nan" in capsys.readouterr().err
    data = _small_trial_scenario()
    data["methods"] = ["dpp@"]
    with pytest.raises(ScenarioError, match="'dpp@': '@frequency' suffixes apply only"):
        scenario_from_dict(data)


def test_all_diagnostics_collected_at_once():
    data = _small_trial_scenario()
    data["name"] = ""
    data["precoding"]["k_ttd"] = 7
    data["precoding"]["n_streams"] = 9
    data["sweep"] = {"variable": "frequency", "start": 5.0, "stop": 1.0, "points": 1}
    data["methods"] = ["dpp"]  # reads k_ttd, and takes no frequency sweep
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    text = "\n".join(info.value.diagnostics)
    assert len(info.value.diagnostics) >= 5
    assert "name: must be non-empty" in text
    assert "precoding.k_ttd: k_ttd=7 must divide n_elements=16" in text
    assert "n_streams" in text
    assert "start < stop" in text
    assert "not valid for" in text


def test_unknown_fields_flagged():
    data = _small_trial_scenario()
    data["systems"] = {}
    data["system"]["n_antennas"] = 4
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    text = "\n".join(info.value.diagnostics)
    assert "systems: unknown top-level field" in text
    assert "system.n_antennas: unknown field" in text


def test_values_sweep_validation():
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "k_ttd", "values": [1, 2, 4]}
    scenario_from_dict(data)  # divisors of 16: fine
    data["sweep"] = {"variable": "k_ttd", "values": [4, 2]}
    with pytest.raises(ScenarioError, match="strictly increasing"):
        scenario_from_dict(data)
    data["sweep"] = {"variable": "k_ttd", "values": [2, 3]}
    with pytest.raises(ScenarioError, match="sweep.values: k_ttd=3 must divide n_elements=16"):
        scenario_from_dict(data)


def test_frequency_sweep_rejects_range_off_the_band(tmp_path, capsys):
    # the runner samples the system band's subcarrier grid, so a range that
    # differs from fc -/+ B/2 would otherwise be silently ignored
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "frequency", "start": 1e9, "stop": 2e9, "points": 5}
    data["methods"] = ["ps_exact"]
    cfg = _write(tmp_path, "offband.json", data)
    assert main(["validate", cfg]) == 2
    assert "frequency sweep covers the system band" in capsys.readouterr().err
    assert main(["run", cfg, "--out", "-"]) == 2
    assert "frequency sweep covers the system band" in capsys.readouterr().err


@pytest.mark.parametrize("values", [[-1e9, 1e9], [1e9, 2e9]])
def test_frequency_sweep_rejects_values(tmp_path, capsys, values):
    # a frequency sweep samples the system band's subcarrier grid, so listed
    # frequencies would skip the band rule and then be ignored or fail at run
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "frequency", "values": values}
    data["methods"] = ["ps_exact"]
    cfg = _write(tmp_path, "freq_values.json", data)
    message = "sweep.values: a frequency sweep samples the subcarrier grid"
    assert main(["validate", cfg]) == 2
    assert message in capsys.readouterr().err
    assert main(["run", cfg, "--out", "-"]) == 2
    assert message in capsys.readouterr().err


_SECTIONS = {"system": xpcli.SystemConfig, "precoding": xpcli.PrecodingConfig,
             "sweep": xpcli.SweepConfig, "trials": xpcli.TrialsConfig}


def _rejected_values(rule):
    """A value of the wrong JSON type, and one out of range when the rule has
    a range, for a field rule."""
    text = rule[0]
    if text.startswith("an integer >= "):
        return ["abc", int(text.rsplit(" ", 1)[1]) - 1]
    out_of_range = {"finite": [math.inf], "a positive number": [0.0], ">= 0": [-1.0]}
    return ["abc"] + out_of_range.get(text, [])


def test_every_config_field_declares_a_rule():
    unruled = [f"{section}.{f.name}" for section, cls in _SECTIONS.items()
               for f in dataclasses.fields(cls) if "rule" not in f.metadata]
    assert unruled == ["sweep.variable", "sweep.values"]


_WRONG_TYPES = [
    ("sweep", "start", "abc"),
    ("sweep", "start", None),
    ("sweep", "stop", "abc"),
    ("sweep", "stop", None),
    ("sweep", "values", 5),
    ("sweep", "values", [True, 2.0]),
    ("system", "fc_hz", True),
    ("system", "target_angle_rad", True),
    ("precoding", "total_power", True),
    ("trials", "snr_db", True),
    ("trials", "max_delay_s", False),
]


@pytest.mark.parametrize("section, key, value", _WRONG_TYPES + [
    (section, f.name, value) for section, cls in _SECTIONS.items()
    for f in dataclasses.fields(cls) if "rule" in f.metadata
    for value in _rejected_values(f.metadata["rule"])
    if (section, f.name, value) not in _WRONG_TYPES
])
def test_field_of_the_wrong_json_type_is_a_config_error(tmp_path, capsys, section, key,
                                                        value):
    # a JSON string, null, list or bool where a number belongs, or a number
    # outside the field's range: exit 2 naming the field, at validation and
    # at run
    data = _small_trial_scenario()
    data[section][key] = value
    if key == "values":
        del data["sweep"]["start"], data["sweep"]["stop"], data["sweep"]["points"]
    cfg = _write(tmp_path, "wrong_type.json", data)
    assert main(["validate", cfg]) == 2
    assert f"{section}.{key}: " in capsys.readouterr().err
    assert main(["run", cfg, "--out", "-"]) == 2
    assert f"{section}.{key}: " in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("output", None, "output: expected a string, got NoneType"),
    ("output", 5, "output: expected a string, got int"),
    ("name", 7, "name: expected a string, got int"),
    ("description", ["x"], "description: expected a string, got list"),
    ("methods", ["classic", 3], "methods[1]: expected a string, got int"),
])
def test_text_field_of_another_json_type_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                           key, value, message):
    # the text fields keep their JSON type: a null output is no file named None
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, "text.json", _small_trial_scenario(**{key: value}))
    assert main(["run", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert os.listdir(tmp_path) == ["text.json"]


@pytest.mark.parametrize("changes, message", [
    ({"sweep": {"variable": "snr_db", "values": [5.0]}},
     "sweep.values: need at least 2 sweep points"),
    ({"sweep": {"variable": "k_ttd", "start": 1.0, "stop": 4.0, "points": 2}},
     "sweep: k_ttd sweeps must use an explicit 'values' list of divisors of n_elements_tx"),
    ({"sweep": {"variable": "bandwidth", "start": 0.0, "stop": 1e9, "points": 3}},
     "sweep.start: bandwidth must be positive, got 0.0"),
    ({"methods": []}, "methods: must list at least one method"),
    ({"system": 5}, "system: expected an object, got int"),
    ({"sweep": None}, "sweep: missing section"),
    ({"methods": "classic"}, "methods: expected a list of method names"),
    ([1, 2], "scenario: expected a JSON object, got list"),
    ("fig99", "unknown scenario 'fig99'; built-ins: fig2, fig3a"),
    ({"sweep": {"start": -10.0, "stop": 20.0, "points": 3}},
     "sweep: SweepConfig.__init__() missing 1 required positional argument: 'variable'"),
])
def test_each_structural_rule_reports_one_diagnostic(tmp_path, capsys, changes, message):
    # changes: fields replacing the small trial scenario's (None drops one),
    # a whole JSON document, or a built-in name
    if isinstance(changes, str):
        with pytest.raises(ScenarioError) as info:
            load_builtin(changes)
        assert len(info.value.diagnostics) == 1
        assert info.value.diagnostics[0].startswith(message)
        return
    data = changes
    if isinstance(changes, dict):
        data = {k: v for k, v in _small_trial_scenario(**changes).items() if v is not None}
    cfg = _write(tmp_path, "rule.json", json.dumps(data))
    assert main(["validate", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_frequency_sweep_band_edges_validate():
    for name in ("fig2", "fig6"):
        assert validate_scenario(load_builtin(name)) == []
    data = _small_trial_scenario()
    bw = 3.7e9
    data["system"]["bandwidth_hz"] = bw
    data["sweep"] = {"variable": "frequency", "start": FC - bw / 2,
                     "stop": (FC + bw / 2) * (1 + 1e-12), "points": 5}
    data["methods"] = ["ps_exact"]
    scenario_from_dict(data)


@pytest.mark.parametrize("section, key", [("system", "n_subcarriers"), ("sweep", "points")])
def test_validation_cost_does_not_grow_with_the_grid(section, key):
    # fig2 checks its grid of n_subcarriers and its frequency sweep's grid of
    # points; each check reads subcarrier 0 alone, where a 2e6-point grid
    # would trace 48 MB
    scenario = load_builtin("fig2")
    config = dataclasses.replace(getattr(scenario, section), **{key: 2_000_000})
    scenario = dataclasses.replace(scenario, **{section: config})
    validate_scenario(scenario)
    tracemalloc.start()
    try:
        assert validate_scenario(scenario) == []
        assert tracemalloc.get_traced_memory()[1] < 1e6
    finally:
        tracemalloc.stop()


def test_validate_rejects_bandwidth_whose_grid_reaches_zero(tmp_path, capsys):
    # 16 subcarriers around 30 GHz stay above 0 Hz up to B = 64 GHz
    data = _small_trial_scenario()
    data["system"]["n_subcarriers"] = 16
    data["sweep"] = {"variable": "bandwidth", "start": 1e9, "stop": 70e9, "points": 3}
    cfg = _write(tmp_path, "wide_sweep.json", data)
    assert main(["validate", cfg]) == 2
    assert "sweep.stop: grid extends to non-positive frequencies" in capsys.readouterr().err
    assert main(["run", cfg, "--out", "-"]) == 2
    data["sweep"] = {"variable": "bandwidth", "values": [1e9, 70e9]}
    with pytest.raises(ScenarioError, match="sweep.values: grid extends"):
        scenario_from_dict(data)
    # the sweep replaces system.bandwidth_hz, so a field that would reach 0 Hz
    # is never read: the run equals the one with a field inside the sweep
    data["sweep"] = {"variable": "bandwidth", "start": 1e9, "stop": 60e9, "points": 3}
    data["system"]["bandwidth_hz"] = 70e9
    wide = run(scenario_from_dict(data))
    data["system"]["bandwidth_hz"] = 60e9
    assert run(scenario_from_dict(data)) == wide
    # a frequency sweep samples the system band with its own point count
    data["system"]["bandwidth_hz"] = 61e9
    data["sweep"] = {"variable": "frequency", "start": FC - 30.5e9, "stop": FC + 30.5e9,
                     "points": 100}
    data["methods"] = ["ps_exact"]
    with pytest.raises(ScenarioError, match="sweep.points: grid extends"):
        scenario_from_dict(data)


def _builtin_data(name):
    return json.loads((importlib.resources.files("ucabeam") / "scenarios" / f"{name}.json")
                      .read_text(encoding="utf-8"))


@pytest.mark.parametrize("name, section, key, system, sweep", [
    # the default k_ttd = 8 divides no ring of 6, but each swept count does
    ("fig9", "precoding", "k_ttd", {"n_elements_tx": 6},
     {"variable": "k_ttd", "values": [1, 2, 3, 6]}),
    # at 1 GHz the default 3 GHz band reaches 0 Hz, but each swept band stays above
    ("fig10", "system", "bandwidth_hz", {"fc_hz": 1e9},
     {"variable": "bandwidth", "start": 0.1e9, "stop": 1.5e9, "points": 3}),
], ids=["k_ttd", "bandwidth"])
def test_a_field_that_the_sweep_replaces_is_not_checked(tmp_path, capsys, name, section, key,
                                                        system, sweep):
    # the file leaves the field at its default, which the run never reads:
    # the config validates and runs
    data = _builtin_data(name)
    del data[section][key]
    data["system"].update(system, n_subcarriers=8)
    data["sweep"] = sweep
    data["trials"]["n_seeds"] = 2
    cfg = _write(tmp_path, "replaced.json", data)
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg, "--out", "-"]) == 0
    assert capsys.readouterr().err == ""


def test_k_ttd_sweep_rows_do_not_depend_on_the_replaced_field():
    # 7 divides no ring of 16, but a k_ttd sweep never reads precoding.k_ttd
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "k_ttd", "values": [1, 2, 4, 8, 16]}
    tables = []
    for k_ttd in (4, 7):
        data["precoding"]["k_ttd"] = k_ttd
        tables.append(run(scenario_from_dict(data)))
    assert tables[0] == tables[1]


def test_snr_sweep_whose_rho_underflows_is_a_config_error(tmp_path, capsys):
    # 10^(-4000/10) underflows to rho = 0, which no rate is defined for
    data = _builtin_data("fig8")
    data["sweep"]["start"] = -4000.0
    cfg = _write(tmp_path, "low_snr.json", data)
    assert main(["validate", cfg]) == 2
    message = "sweep.start: 10^(snr_db/10) must be a finite positive number, got snr_db=-4000.0"
    assert message in capsys.readouterr().err
    assert main(["run", cfg, "--out", "-"]) == 2
    assert message in capsys.readouterr().err
    data["sweep"] = {"variable": "snr_db", "values": [-4000.0, 0.0]}
    with pytest.raises(ScenarioError, match=r"sweep.values: .* got snr_db=-4000.0"):
        scenario_from_dict(data)
    # trials.snr_db sets rho when the sweep is not over the SNR
    data = _builtin_data("fig8")
    data["sweep"] = {"variable": "k_ttd", "values": [1, 2]}
    data["trials"]["snr_db"] = -4000.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.diagnostics == ["trials.snr_db: 10^(snr_db/10) must be a finite "
                                     "positive number, got snr_db=-4000.0"]


def test_snr_sweep_whose_rho_overflows_is_a_config_error(tmp_path, capsys):
    # 10^(4000/10) does not fit a float: a config error, not a numeric failure
    data = _builtin_data("fig8")
    data["sweep"]["stop"] = 4000.0
    cfg = _write(tmp_path, "high_snr.json", data)
    assert main(["validate", cfg]) == 2
    message = "sweep.stop: 10^(snr_db/10) must be a finite positive number, got snr_db=4000.0"
    assert message in capsys.readouterr().err
    assert main(["run", cfg, "--out", "-"]) == 2
    assert message in capsys.readouterr().err
    data["sweep"] = {"variable": "snr_db", "values": [0.0, 4000.0]}
    with pytest.raises(ScenarioError, match=r"sweep.values: .* got snr_db=4000.0"):
        scenario_from_dict(data)
    # an SNR sweep never reads trials.snr_db, so it is not checked there
    data["trials"]["snr_db"] = 4000.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert [d.partition(":")[0] for d in err.value.diagnostics] == ["sweep.values"]
    data["sweep"] = {"variable": "k_ttd", "values": [1, 2]}
    with pytest.raises(ScenarioError, match=r"trials.snr_db: .* got snr_db=4000.0"):
        scenario_from_dict(data)


def test_snr_sweep_whose_rates_overflow_is_a_numeric_failure(tmp_path, capsys):
    # 10^(3080/10) fits a float, but the stream SNRs it scales do not: a
    # numeric failure naming that SNR, with no overflow warning on the way
    data = _builtin_data("fig8")
    data["system"].update(n_elements_tx=16, n_subcarriers=8)
    data["trials"]["n_seeds"] = 1
    data["sweep"] = {"variable": "snr_db", "start": 3000.0, "stop": 3080.0, "points": 7}
    cfg = _write(tmp_path, "extreme_snr.json", data)
    assert main(["validate", cfg]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", "-"]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: SNR-scaled gains overflow at SNRs up to rho=1e+308 (3080 dB)" in err


def test_overflow_in_a_deterministic_method_is_a_numeric_failure(tmp_path, capsys):
    # an evaluation frequency of 1e300 Hz validates, but its defocus argument
    # overflows: a numeric failure naming the method, with no warning on the way
    data = _builtin_data("fig3b")
    data["methods"] = ["uca_closed_form@1e300"]
    data["sweep"]["points"] = 3
    cfg = _write(tmp_path, "far_suffix.json", data)
    assert main(["validate", cfg]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", "-"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: overflow encountered")
    assert "method uca_closed_form@1e300 at x=" in err


@pytest.mark.parametrize("method", ["classic", "dpp", "optimal"])
def test_power_budget_whose_snr_product_is_not_finite_is_a_config_error(tmp_path, capsys,
                                                                        method):
    # the runner rates at rho*P: 10^(20/10) * 1e308 does not fit a float, so
    # validate and run exit 2 naming the budget and the SNR
    data = _builtin_data("fig8")
    data["system"].update(n_elements_tx=16, n_subcarriers=8)
    data["trials"]["n_seeds"] = 1
    data["precoding"]["total_power"] = 1e308
    data["methods"] = [method]
    cfg = _write(tmp_path, "huge_power.json", data)
    message = ("precoding.total_power: 10^(snr_db/10) * total_power must be a finite "
               "positive number, got snr_db=20.0 (sweep.stop) and total_power=1e+308")
    for command in (["validate", cfg], ["run", cfg, "--out", "-"]):
        assert main(command) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("method", ["classic", "dpp", "optimal"])
def test_power_budget_whose_rates_overflow_is_a_numeric_failure(tmp_path, capsys, method):
    # a finite budget whose rho*P = 1e308 at 20 dB scales stream gains that
    # overflow: a numeric failure naming that SNR, with no overflow warning
    data = _builtin_data("fig8")
    data["system"].update(n_elements_tx=16, n_subcarriers=8)
    data["trials"]["n_seeds"] = 1
    data["precoding"]["total_power"] = 1e306
    data["methods"] = [method]
    cfg = _write(tmp_path, "huge_power.json", data)
    assert main(["validate", cfg]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", "-"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: SNR-scaled gains overflow at SNRs up to rho=1e+308")
    assert f"; method {method}, seed {data['trials']['base_seed']}" in err


def test_snr_rule_applies_only_where_a_trial_reads_the_field(tmp_path, capsys):
    # fig6 runs gain methods only, so trials.snr_db and the budget are never
    # read: rho*P = 10^8.56 * 2e307 overflowing is no error, and the CSV is
    # that of stock fig6
    data = _builtin_data("fig6")
    data["trials"]["snr_db"] = 85.6
    data["precoding"]["total_power"] = 2e307
    cfg, out = _write(tmp_path, "fig6_unread.json", data), tmp_path / "fig6_unread.csv"
    assert main(["validate", cfg]) == 0
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert main(["run", "fig6", "--out", str(tmp_path / "fig6.csv")]) == 0
    assert out.read_bytes() == (tmp_path / "fig6.csv").read_bytes()
    capsys.readouterr()
    # a delay-unit sweep rates every point at trials.snr_db: exit 2 naming it
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "k_ttd", "values": [1, 2]}
    data["trials"]["snr_db"] = 85.6
    data["precoding"]["total_power"] = 2e307
    cfg = _write(tmp_path, "k_ttd_unfit.json", data)
    for command in (["validate", cfg], ["run", cfg, "--out", "-"]):
        assert main(command) == 2
        assert ("precoding.total_power: 10^(snr_db/10) * total_power must be a finite "
                "positive number, got snr_db=85.6 (trials.snr_db)") in capsys.readouterr().err


def test_power_budget_enters_the_rates_as_the_snr_times_the_budget():
    # the rates depend on the budget only through rho*P: a budget of 10 at
    # SNR s rates like a budget of 1 at s + 10 dB
    ten = _small_trial_scenario()
    ten["precoding"]["total_power"] = 10.0
    one = _small_trial_scenario()
    one["sweep"].update(start=0.0, stop=30.0)
    a, b = (run(scenario_from_dict(d)).rows for d in (ten, one))
    assert [(r.x + 10.0, r.method) for r in a] == [(r.x, r.method) for r in b]
    for ra, rb in zip(a, b):
        assert ra.mean == pytest.approx(rb.mean, rel=1e-12)
        assert ra.std == pytest.approx(rb.std, rel=1e-12)


@pytest.mark.parametrize("name, section, key", [
    ("fig8", "system", "radius_m"), ("fig8", "trials", "max_delay_s"),
    ("fig2", "system", "radius_m"), ("fig3b", "system", "radius_m"),
    ("fig7", "system", "radius_m"),
])
def test_phase_that_is_not_finite_is_a_config_error(tmp_path, capsys, name, section, key):
    # 2*pi*R*f/c or 2*pi*tau*f overflows at the top of the band: exit 2
    # naming the field, with no warning from the model on the way
    data = _builtin_data(name)
    data["system"].update(n_elements_tx=16, n_subcarriers=8)
    data["trials"]["n_seeds"] = 1
    data[section][key] = 1e300
    cfg = _write(tmp_path, "huge_phase.json", data)
    message = f"{section}.{key}: the phase "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", cfg]) == 2
        assert message in capsys.readouterr().err
        assert main(["run", cfg, "--out", "-"]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("name, where, message", [
    ("fig8", ("trials", "snr_db"), "trials.snr_db: must be finite, got an integer too large"),
    ("fig2", ("system", "radius_m"), "system.radius_m: must be a positive number, got an "
                                     "integer too large"),
    ("fig2", ("system", "n_elements_tx"), "system.n_elements_tx: must be an integer >= 1, got "
                                          "an integer too large"),
    ("fig8", ("sweep", "values"), "sweep.values: entries must be finite numbers"),
])
def test_integer_too_large_for_a_float_is_a_config_error(tmp_path, capsys, command, name,
                                                         where, message):
    # a JSON integer no float can hold: exit 2 naming the field, not an
    # OverflowError from the float conversion
    data = _builtin_data(name)
    section, key = where
    if key == "values":
        data["sweep"] = {"variable": "snr_db", "values": [0, 10**400]}
    else:
        data[section][key] = 10**400
    cfg = _write(tmp_path, "huge_int.json", data)
    argv = ["validate", cfg] if command == "validate" else ["run", cfg, "--out", "-"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert "numeric failure" not in err and "1000" not in err


@pytest.mark.parametrize("data, validate, run_code, message", [
    ({"name": "b", "system": {"bandwidth_hz": 1180591620717411303424},
      "sweep": {"variable": "frequency", "start": 1.0, "stop": 2.0, "points": 5},
      "methods": ["ps_exact"]},
     2, 2, "config error: sweep.points: grid extends to non-positive frequencies"),
    ({"name": "c", "sweep": {"variable": "argument", "start": 0,
                             "stop": 18446744073709551616, "points": 3},
      "methods": ["hyp_1f2"]},
     0, 3, "numeric failure: a Miller recurrence"),
    ({"name": "d", "system": {"n_elements_tx": 16, "n_subcarriers": 8},
      "precoding": {"k_ttd": 4},
      "sweep": {"variable": "bandwidth", "values": [1000000000, 18446744073709551616]},
      "trials": {"n_seeds": 1}, "methods": ["dpp"]},
     2, 2, "config error: sweep.values: grid extends to non-positive frequencies"),
], ids=["band", "argument-stop", "bandwidth-values"])
def test_integer_past_2_64_is_checked_as_its_float(tmp_path, capsys, data, validate,
                                                   run_code, message):
    # a JSON integer that a float holds is read as that float: a band or a
    # sweep end past 2**64 is a config error or a numeric failure, not a
    # TypeError from numpy
    cfg = _write(tmp_path, "big_int.json", data)
    assert main(["validate", cfg]) == validate
    capsys.readouterr()
    assert main(["run", cfg, "--out", "-"]) == run_code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_validate_rejects_more_streams_than_receive_antennas(tmp_path, capsys):
    data = _small_trial_scenario()
    data["system"]["n_elements_rx"] = 2
    data["precoding"].update(n_rf=4, n_streams=4)
    data["trials"]["n_paths"] = 4
    cfg = _write(tmp_path, "streams.json", data)
    assert main(["validate", cfg]) == 2
    assert "precoding.n_streams: n_streams=4 exceeds n_rx=2" in capsys.readouterr().err


@settings(max_examples=150, deadline=None, derandomize=True)
@example(n_tx=6, n_rx=4, n_paths=1, n_rf=1, n_streams=1, ks=[1, 2, 3, 6])
@given(n_tx=st.sampled_from([1, 2, 3, 4, 6, 8, 12]), n_rx=st.integers(1, 4),
       n_paths=st.integers(1, 4), n_rf=st.integers(1, 5), n_streams=st.integers(1, 5),
       ks=st.lists(st.sampled_from([1, 2, 3, 4, 6, 12]), min_size=1, max_size=3, unique=True))
def test_validate_accepts_exactly_the_sizes_build_designs_accepts(
        n_tx, n_rx, n_paths, n_rf, n_streams, ks):
    # one delay-unit count or a sweep of them: the scenario validates exactly
    # when the runner's build_designs call on a channel of its sizes raises
    # no ValueError, and a rejected call's message is one of the diagnostics
    data = _small_trial_scenario()
    data["system"].update(n_elements_tx=n_tx, n_elements_rx=n_rx, radius_m=0.01)
    data["precoding"].update(n_rf=n_rf, n_streams=n_streams)
    data["trials"]["n_paths"] = n_paths
    data["methods"] = ["classic", "dpp", "optimal"]
    if len(ks) > 1:  # the sweep replaces the file's k_ttd = 4
        data["sweep"] = {"variable": "k_ttd", "values": sorted(ks)}
    else:
        data["precoding"]["k_ttd"] = ks[0]
    try:
        scenario_from_dict(data)
        diags = []
    except ScenarioError as exc:
        diags = exc.diagnostics
    ch = arraymodel.generate_channel(arraymodel.UcaGeometry(n_tx, 0.01),
                                     arraymodel.UlaGeometry(n_rx, 0.005),
                                     arraymodel.FrequencyGrid(FC, 1e9, 5), n_paths, 0)
    try:
        precoding.build_designs(ch, n_rf, n_streams, {1, None, *ks})
    except ValueError as exc:
        assert any(d.endswith(f": {exc}") for d in diags), (str(exc), diags)
    else:
        assert diags == []


@pytest.mark.parametrize("method", ["classic", "ps_exact"])
def test_half_wavelength_ring_of_one_element_is_a_config_error(tmp_path, capsys, method):
    # radius_m null spaces the elements half a wavelength apart along the
    # ring, which needs two of them: validate and run exit 2 naming the field
    data = _builtin_data("fig8" if method == "classic" else "fig2")
    data["system"].update(n_elements_tx=1, n_subcarriers=4)
    data["precoding"].update(n_rf=1, n_streams=1, k_ttd=1)
    data["methods"] = [method]
    cfg = _write(tmp_path, "one_element.json", data)
    for command in (["validate", cfg], ["run", cfg, "--out", "-"]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err == "config error: system.n_elements_tx: need at least 2 elements, got 1\n"
    # a ring of one element with a given radius is a valid array
    data["system"]["radius_m"] = 0.01
    scenario_from_dict(data)


def test_validate_rejects_more_rf_chains_than_transmit_antennas(tmp_path, capsys):
    data = _small_trial_scenario()
    data["system"]["n_elements_tx"] = 2
    data["precoding"].update(n_rf=4, k_ttd=1, n_streams=1)
    data["trials"]["n_paths"] = 4
    cfg = _write(tmp_path, "chains.json", data)
    assert main(["validate", cfg]) == 2
    assert "precoding.n_rf: n_rf=4 exceeds n_elements=2" in capsys.readouterr().err


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(name="fig8", n_tx=1, radius=None, k_pick=0, n_rf=1, n_streams=1, n_rx=4,
         n_paths=4, total_power=1.0, snr_db=10.0, n_sub=4, seed=0, any_sizes=False, big=None)
@example(name="fig3b", n_tx=16, radius=None, k_pick=2, n_rf=1, n_streams=3, n_rx=4,
         n_paths=1, total_power=1.0, snr_db=10.0, n_sub=4, seed=0, any_sizes=True, big=None)
@example(name="fig5", n_tx=1, radius=None, k_pick=1, n_rf=2, n_streams=4, n_rx=1,
         n_paths=1, total_power=1e308, snr_db=100.0, n_sub=5, seed=0, any_sizes=True, big=None)
# JSON integers past 2**64: a band that takes the grid below 0 Hz, a bandwidth
# sweep's end, a delay-unit count, and a kernel argument past the step budget
@example(name="fig2", n_tx=4, radius=None, k_pick=0, n_rf=1, n_streams=1, n_rx=1,
         n_paths=1, total_power=1.0, snr_db=10.0, n_sub=4, seed=0, any_sizes=False,
         big=("bandwidth_hz", 2**70))
@example(name="fig10", n_tx=4, radius=None, k_pick=0, n_rf=1, n_streams=1, n_rx=1,
         n_paths=1, total_power=1.0, snr_db=10.0, n_sub=4, seed=0, any_sizes=False,
         big=("stop", 2**64))
@example(name="fig9", n_tx=4, radius=None, k_pick=0, n_rf=1, n_streams=1, n_rx=1,
         n_paths=1, total_power=1.0, snr_db=10.0, n_sub=4, seed=0, any_sizes=False,
         big=("stop", 2**64))
@example(name="fig5", n_tx=4, radius=None, k_pick=0, n_rf=1, n_streams=1, n_rx=1,
         n_paths=1, total_power=1.0, snr_db=10.0, n_sub=4, seed=0, any_sizes=False,
         big=("stop", 2**64))
@given(name=st.sampled_from(("fig8", "fig9", "fig10", "fig2", "fig3a", "fig3b", "fig5", "fig6",
                             "fig7")),
       n_tx=st.sampled_from([1, 2, 3, 4, 6, 8, 16]),
       radius=st.none() | st.floats(1e-3, 0.1), k_pick=st.integers(0, 4),
       n_rf=st.integers(1, 4), n_streams=st.integers(1, 4), n_rx=st.integers(1, 4),
       n_paths=st.integers(1, 4),
       total_power=st.floats(1e-3, 1e3) | st.floats(1e-300, 1e308),
       snr_db=st.floats(-100.0, 100.0), n_sub=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), any_sizes=st.booleans(),
       big=st.none() | st.tuples(st.sampled_from(("bandwidth_hz", "start", "stop")),
                                 st.integers(2**64, 2**80)))
def test_a_scenario_that_validates_runs_without_a_config_error(
        tmp_path, capsys, name, n_tx, radius, k_pick, n_rf, n_streams, n_rx, n_paths,
        total_power, snr_db, n_sub, seed, any_sizes, big):
    # small variants of the built-ins, the trial ones drawn first: whatever
    # validate accepts, run may still stop as a numeric failure (exit 3), but
    # not as a config error; with any_sizes, k_ttd need not divide the ring
    # and the streams may outnumber the RF chains, which only the methods
    # that read those fields refuse (as a one-element ring with no radius);
    # big puts a JSON integer past 2**64 in the system band or at one end of
    # the sweep (its first or last value in a list), and neither command may
    # then raise
    divisors = [k for k in range(1, n_tx + 1) if n_tx % k == 0]
    data = _builtin_data(name)
    data["system"].update(n_elements_tx=n_tx, n_elements_rx=n_rx, n_subcarriers=n_sub,
                          radius_m=radius)
    data["precoding"].update(
        n_rf=n_rf, k_ttd=k_pick + 1 if any_sizes else divisors[k_pick % len(divisors)],
        n_streams=n_streams if any_sizes else min(n_streams, n_rf), total_power=total_power)
    data["trials"].update(n_seeds=1, base_seed=seed, n_paths=n_paths, snr_db=snr_db)
    if data["sweep"]["variable"] == "k_ttd":
        data["sweep"]["values"] = divisors
    else:
        data["sweep"]["points"] = 5
    if big is not None:
        key, value = big
        if key == "bandwidth_hz":
            data["system"][key] = value
        elif "values" in data["sweep"]:
            data["sweep"]["values"][0 if key == "start" else -1] = value
        else:
            data["sweep"][key] = value
    cfg = _write(tmp_path, "variant.json", data)
    if main(["validate", cfg]) == 0:
        assert main(["run", cfg, "--out", "-"]) != 2, capsys.readouterr().err
    capsys.readouterr()


# A small scenario for each sweep variable, and a changed value for every
# config field; where one exists, a value that a method reading the field
# refuses: k_ttd = 7 divides no ring of 16, 3 streams need 3 RF chains, a
# half-wavelength ring needs 2 elements, 1e12 Hz takes the 30 GHz band's
# grid below 0 Hz, and a 1e300 s delay has no finite phase.
_SWEEPS = {
    "frequency": {"variable": "frequency", "start": FC - 0.5e9, "stop": FC + 0.5e9,
                  "points": 5},
    "angle": {"variable": "angle", "start": -1.0, "stop": 2.0, "points": 5},
    "argument": {"variable": "argument", "start": 0.0, "stop": 10.0, "points": 5},
    "bandwidth": {"variable": "bandwidth", "start": 1e8, "stop": 1e9, "points": 3},
    "snr_db": {"variable": "snr_db", "start": -10.0, "stop": 20.0, "points": 2},
}
_CHANGED = {
    "system": {"n_elements_tx": 1, "n_elements_rx": 3, "fc_hz": 20e9, "bandwidth_hz": 1e12,
               "n_subcarriers": 7, "radius_m": 0.05, "target_angle_rad": -0.25},
    "precoding": {"n_rf": 2, "k_ttd": 7, "n_streams": 3, "total_power": 2e307},
    "trials": {"n_seeds": 2, "base_seed": 99, "n_paths": 3, "snr_db": 85.6,
               "max_delay_s": 1e300},
}


@pytest.mark.parametrize("method", list(xpcli._METHODS))
def test_a_method_reads_no_field_outside_its_reads(tmp_path, capsys, method):
    # every field outside the method's reads, and not read by its sweep (the
    # band of a frequency sweep), changed one at a time: the config validates
    # and the CSV is the unchanged run's, byte for byte
    configs = {section: {f.name for f in dataclasses.fields(cls)} for section, cls in (
        ("system", xpcli.SystemConfig), ("precoding", xpcli.PrecodingConfig),
        ("trials", xpcli.TrialsConfig))}
    assert {section: set(values) for section, values in _CHANGED.items()} == configs
    reads = xpcli._METHODS[method].reads
    assert reads <= set().union(*configs.values())
    variable = next(v for v in xpcli._METHODS[method].variables if v in _SWEEPS)
    if variable == "frequency":
        reads |= {"fc_hz", "bandwidth_hz"}
    data = _small_trial_scenario(sweep=_SWEEPS[variable], methods=[method])
    expected = tmp_path / "unchanged.csv"
    assert main(["run", _write(tmp_path, "unchanged.json", data), "--out", str(expected)]) == 0
    changed = [(section, key, value) for section, values in _CHANGED.items()
               for key, value in values.items() if key not in reads]
    assert changed
    for section, key, value in changed:
        variant = json.loads(json.dumps(data))
        variant[section][key] = value
        cfg, out = _write(tmp_path, f"{key}.json", variant), tmp_path / f"{key}.csv"
        assert main(["validate", cfg]) == 0, (key, capsys.readouterr().err)
        assert main(["run", cfg, "--out", str(out)]) == 0, (key, capsys.readouterr().err)
        assert out.read_bytes() == expected.read_bytes(), key


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------


def _csv_rows(text):
    """The rows of a result CSV, its floats parsed back."""
    header, *lines = text.splitlines()
    assert header == "x,method,mean,std"
    rows = []
    for line in lines:
        x, method, mean, std = line.split(",")
        rows.append(ResultRow(float(x), method, float(mean), float(std)))
    return tuple(rows)


def test_csv_round_trip_is_exact():
    table = run(load_builtin("fig5"))
    assert _csv_rows(table.to_csv()) == table.rows


def test_rows_sorted_by_x_then_method():
    table = ResultTable(
        rows=(
            ResultRow(2.0, "b", 1.0, 0.0),
            ResultRow(1.0, "b", 1.0, 0.0),
            ResultRow(1.0, "a", 1.0, 0.0),
        )
    ).sorted()
    assert [(r.x, r.method) for r in table.rows] == [
        (1.0, "a"), (1.0, "b"), (2.0, "b"),
    ]


def _plain_csv(rows):
    return "x,method,mean,std\n" + "".join(
        f"{r.x!r},{r.method},{r.mean!r},{r.std!r}\n" for r in rows)


def _plain_json(rows):
    return json.dumps({"columns": ["x", "method", "mean", "std"],
                       "rows": [list(r) for r in rows]}, indent=2) + "\n"


@pytest.mark.parametrize("name", builtin_names())
def test_outputs_equal_a_plain_formatter_of_the_sorted_rows(name, tmp_path, capsys):
    # the writers against a plain one-row-at-a-time formatter, over the rows
    # sorted by (x, method), for every built-in at the golden test's sizes,
    # and the row count that the CLI prints
    scenario = reduced_scenario(name)
    table = run(scenario)
    rows = sorted(table.rows, key=lambda r: (r.x, r.method))
    assert list(table.rows) == rows
    assert table.to_csv() == _plain_csv(rows)
    assert table.to_json() == _plain_json(rows)
    cfg = _write(tmp_path, "reduced.json", dataclasses.asdict(scenario))
    for fmt, plain in (("csv", _plain_csv), ("json", _plain_json)):
        out = tmp_path / f"out.{fmt}"
        assert main(["run", cfg, "--out", str(out), "--format", fmt]) == 0
        assert capsys.readouterr().out == f"wrote {out} ({len(rows)} rows)\n"
        assert out.read_text(encoding="utf-8") == plain(rows)


# (x, number of equal sweep points) in sweep order, from 30 subcarriers of a
# 1e-4 Hz band at 30 GHz, where the grid is finer than a double's spacing
_DENSE_BAND = [
    (29999999999.99995, 1), (29999999999.999954, 1), (29999999999.999958, 1),
    (29999999999.99996, 1), (29999999999.999966, 1), (29999999999.99997, 1),
    (29999999999.999973, 2), (29999999999.999977, 1), (29999999999.99998, 1),
    (29999999999.999985, 1), (29999999999.99999, 1), (29999999999.999992, 1),
    (29999999999.999996, 1), (30000000000.0, 2), (30000000000.000004, 1),
    (30000000000.000008, 1), (30000000000.00001, 1), (30000000000.000015, 1),
    (30000000000.00002, 1), (30000000000.000023, 1), (30000000000.000027, 2),
    (30000000000.00003, 1), (30000000000.000034, 1), (30000000000.00004, 1),
    (30000000000.000042, 1), (30000000000.000046, 1), (30000000000.00005, 1),
]


def test_equal_sweep_points_keep_their_row_order():
    # sweep points that round to the same double are written label by label
    # inside their run of equal x, as a stable sort of the rows by
    # (x, method) writes them: an angle sweep over two ulps of 1.0 ...
    scenario = load_builtin("fig3b")
    scenario = dataclasses.replace(
        scenario, methods=("uca_exact", "uca_closed_form"),
        sweep=dataclasses.replace(scenario.sweep, start=1.0, stop=1.0000000000000004, points=7))
    assert [(r.x, r.method) for r in run(scenario).rows] == [
        (1.0, "uca_closed_form"), (1.0, "uca_closed_form"),
        (1.0, "uca_exact"), (1.0, "uca_exact"),
        (1.0000000000000002, "uca_closed_form"), (1.0000000000000002, "uca_closed_form"),
        (1.0000000000000002, "uca_closed_form"), (1.0000000000000002, "uca_exact"),
        (1.0000000000000002, "uca_exact"), (1.0000000000000002, "uca_exact"),
        (1.0000000000000004, "uca_closed_form"), (1.0000000000000004, "uca_closed_form"),
        (1.0000000000000004, "uca_exact"), (1.0000000000000004, "uca_exact"),
    ]
    # ... and the subcarriers of a band narrower than that spacing allows
    scenario = load_builtin("fig6")
    fc = scenario.system.fc_hz
    scenario = dataclasses.replace(
        scenario, methods=("ps_exact", "dpp_exact"),
        system=dataclasses.replace(scenario.system, bandwidth_hz=1e-4),
        sweep=dataclasses.replace(scenario.sweep, start=fc - 0.5e-4, stop=fc + 0.5e-4,
                                  points=30))
    assert [(r.x, r.method) for r in run(scenario).rows] == [
        (x, method) for x, count in _DENSE_BAND for method in ("dpp_exact", "ps_exact")
        for _ in range(count)]


# ---------------------------------------------------------------------------
# running scenarios
# ---------------------------------------------------------------------------


def test_fig2_curve_shape():
    table = run(load_builtin("fig2"))
    assert len(table.rows) == 2 * 129
    exact = {r.x: r.mean for r in table.rows if r.method == "ps_exact"}
    closed = {r.x: r.mean for r in table.rows if r.method == "ps_closed_form"}
    # subcarrier frequencies of a 129-point grid over 4 GHz
    assert min(exact) == pytest.approx(30e9 - 4e9 * 128 / 258, rel=1e-12)
    assert exact[30e9] == 1.0
    assert closed[30e9] == 1.0
    # the defocus null sits around 564 MHz off center
    null_zone = [closed[x] for x in closed if 5.0e8 <= x - 30e9 <= 6.3e8]
    assert null_zone and min(null_zone) <= 0.05
    worst = max(abs(exact[x] - closed[x]) for x in exact)
    assert worst <= 5e-3


def test_angle_method_suffix_defaults_to_center_frequency(tmp_path):
    data = _small_trial_scenario()
    data["system"]["n_elements_tx"] = 64
    data["sweep"] = {"variable": "angle", "start": -0.5, "stop": 1.5, "points": 21}
    data["methods"] = ["uca_exact", "uca_exact@3.0e10", "ula_exact@2.85e10"]
    table = run(scenario_from_dict(data))
    plain = [r.mean for r in table.rows if r.method == "uca_exact"]
    tagged = [r.mean for r in table.rows if r.method == "uca_exact@3.0e10"]
    assert np.allclose(plain, tagged, atol=1e-12)
    assert len(plain) == 21


def test_trial_sweep_statistics(tmp_path):
    scenario = scenario_from_dict(_small_trial_scenario())
    table = run(scenario)
    assert len(table.rows) == 3 * 3
    xs = sorted({r.x for r in table.rows})
    assert xs == [-10.0, 5.0, 20.0]
    by = {(r.x, r.method): r for r in table.rows}
    for x in xs:
        assert by[(x, "classic")].mean <= by[(x, "optimal")].mean + 1e-9
        assert by[(x, "dpp")].mean <= by[(x, "optimal")].mean + 1e-9
        for method in ("classic", "dpp", "optimal"):
            assert by[(x, method)].std >= 0.0
    # spectral efficiency grows with SNR
    assert by[(20.0, "optimal")].mean > by[(-10.0, "optimal")].mean


def test_runs_are_deterministic():
    a = run(load_builtin("fig5")).to_csv()
    b = run(load_builtin("fig5")).to_csv()
    assert a == b
    sc = scenario_from_dict(_small_trial_scenario())
    assert run(sc).to_csv() == run(sc).to_csv()


def _with_points(scenario, points):
    return dataclasses.replace(scenario, sweep=dataclasses.replace(scenario.sweep,
                                                                   points=points))


def test_points_override_rejected_for_values_sweeps():
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "k_ttd", "values": [1, 2, 4]}
    data["trials"]["n_seeds"] = 1
    with pytest.raises(ScenarioError, match="sweep.points: .*--points"):
        run(_with_points(scenario_from_dict(data), 5))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_list_names_everything(capsys):
    # one line per built-in, in order, with the description its JSON gives
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(builtin_names())
    for name, line in zip(builtin_names(), lines):
        data = json.loads((importlib.resources.files("ucabeam") / "scenarios" /
                           f"{name}.json").read_text(encoding="utf-8"))
        assert data["description"]
        assert line.endswith(f"  {data['description']}")


def test_cli_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "fig5.csv"
    assert main(["run", "fig5", "--out", str(out)]) == 0
    assert f"wrote {out} (402 rows)" in capsys.readouterr().out
    assert len(_csv_rows(out.read_text())) == 402


def test_cli_run_respects_points_override(tmp_path):
    out = tmp_path / "short.csv"
    assert main(["run", "fig5", "--points", "7", "--out", str(out)]) == 0
    assert len(_csv_rows(out.read_text())) == 14


def test_cli_run_to_stdout(capsys):
    assert main(["run", "fig5", "--points", "2", "--out", "-"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("x,method,mean,std\n")


def test_cli_json_format(tmp_path):
    out = tmp_path / "fig5.json"
    assert main(["run", "fig5", "--points", "4", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["x", "method", "mean", "std"]
    assert len(payload["rows"]) == 8


def test_cli_seed_override_changes_trials(tmp_path):
    cfg = _write(tmp_path, "mini.json", _small_trial_scenario())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b), "--seed", "99"]) == 0
    assert a.read_text() != b.read_text()


def test_cli_exit_code_for_config_errors(tmp_path, capsys):
    assert main(["run", "no_such_scenario"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", "fig9", "--points", "4"]) == 2
    assert "--points" in capsys.readouterr().err
    bad = _write(tmp_path, "bad.json", {"name": "x", "sweep": {"variable": "nope"}})
    assert main(["run", bad]) == 2


def test_cli_overrides_are_validated_like_fields(tmp_path, capsys):
    # --points and --seed replace their fields, and the fields' rules check
    # them: 100 points put the 61 GHz band's grid below 0 Hz
    data = _small_trial_scenario()
    data["system"]["bandwidth_hz"] = 61e9
    data["sweep"] = {"variable": "frequency", "start": FC - 30.5e9, "stop": FC + 30.5e9,
                     "points": 2}
    data["methods"] = ["ps_exact"]
    cfg = _write(tmp_path, "wide_band.json", data)
    assert main(["validate", cfg]) == 0
    capsys.readouterr()
    for option, value, message in (
            ("--points", "100", "sweep.points: grid extends to non-positive frequencies"),
            ("--points", "1", "sweep.points: must be an integer >= 2, got 1"),
            ("--seed", "-1", "trials.base_seed: must be an integer >= 0, got -1")):
        assert main(["run", cfg, option, value, "--out", "-"]) == 2
        assert message in capsys.readouterr().err


def test_cli_overrides_replace_an_invalid_value_in_the_file(tmp_path, capsys):
    # --points and --seed replace their fields before the file is validated:
    # a value out of range in the file is not reported when an option gives
    # a valid one, and an invalid option value still exits 2 naming the field
    data = _builtin_data("fig5")
    data["sweep"]["points"] = 1
    cfg = _write(tmp_path, "one_point.json", data)
    assert main(["validate", cfg]) == 2
    capsys.readouterr()
    assert main(["run", cfg, "--points", "11", "--out", "-"]) == 0
    assert main(["run", "fig5", "--points", "11", "--out", "-"]) == 0
    ran, builtin = capsys.readouterr().out.split("x,method,mean,std\n")[1:]
    assert ran == builtin and len(_csv_rows("x,method,mean,std\n" + ran)) == 22
    assert main(["run", cfg, "--points", "1", "--out", "-"]) == 2
    assert capsys.readouterr().err == (
        "config error: sweep.points: must be an integer >= 2, got 1\n")

    data = _small_trial_scenario()
    data["trials"]["base_seed"] = -1
    cfg = _write(tmp_path, "negative_seed.json", data)
    data["trials"]["base_seed"] = 7
    seven = _write(tmp_path, "seed_seven.json", data)
    assert main(["run", cfg, "--seed", "7", "--out", "-"]) == 0
    assert main(["run", seven, "--out", "-"]) == 0
    ran, file_seed = capsys.readouterr().out.split("x,method,mean,std\n")[1:]
    assert ran == file_seed
    assert main(["run", cfg, "--seed", "-2", "--out", "-"]) == 2
    assert capsys.readouterr().err == (
        "config error: trials.base_seed: must be an integer >= 0, got -2\n")


def test_cli_exit_code_for_io_errors(tmp_path):
    assert main(["run", "fig5", "--points", "2",
                 "--out", str(tmp_path / "missing" / "dir" / "x.csv")]) == 2


def test_cli_exit_code_for_numeric_failure(tmp_path, capsys):
    # an argument sweep to x = 1e9 passes the Miller step budget
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "argument", "start": 0.0, "stop": 1e9, "points": 3}
    data["methods"] = ["hyp_1f2"]
    cfg = _write(tmp_path, "blowup.json", data)
    assert main(["run", cfg, "--out", "-"]) == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 419. GiB for an array", "out of memory: Unable to allocate 419. GiB"),
    ("", "out of memory: an allocation failed"),
])
def test_cli_exit_code_for_memory_error(tmp_path, capsys, monkeypatch, message, shown):
    # a trial method whose allocation fails exits 3 naming the failure, not
    # with a traceback; nothing large is allocated here
    def fail(*args):
        raise MemoryError(message)
    monkeypatch.setitem(xpcli._METHODS, "dpp",
                        dataclasses.replace(xpcli._METHODS["dpp"], evaluate=fail))
    cfg = _write(tmp_path, "mini.json", _small_trial_scenario())
    assert main(["run", cfg, "--out", "-"]) == 3
    assert shown in capsys.readouterr().err


@pytest.mark.parametrize("error", [ValueError("rates of a bad design"), KeyError("design")])
def test_cli_exit_code_for_a_value_or_lookup_error(tmp_path, capsys, monkeypatch, error):
    # a library ValueError or LookupError that no rule foresaw is a config error
    def fail(*args):
        raise error
    monkeypatch.setitem(xpcli._METHODS, "dpp",
                        dataclasses.replace(xpcli._METHODS["dpp"], evaluate=fail))
    cfg = _write(tmp_path, "mini.json", _small_trial_scenario())
    assert main(["run", cfg, "--out", "-"]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"


@pytest.mark.parametrize("routine, fails, shape", [
    ("qr", lambda kwargs: True, "256x4"),  # the fully digital bound's QR
    ("svd", lambda kwargs: not kwargs.get("compute_uv", True), "4x4"),  # the bound's SVD
    ("svd", lambda kwargs: kwargs.get("compute_uv", True), "4x4"),  # a hybrid design's SVD
], ids=["bound-qr", "bound-svd", "hybrid-svd"])
def test_lapack_failure_while_building_designs_names_the_seed(tmp_path, capsys, monkeypatch,
                                                              routine, fails, shape):
    # LAPACK failing on a seed's channel is a numeric failure of that seed
    real = getattr(np.linalg, routine)

    def lapack(a, *args, **kwargs):
        if fails(kwargs):
            raise np.linalg.LinAlgError(f"{routine.upper()} did not converge")
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, routine, lapack)
    data = _builtin_data("fig8")
    data["system"]["n_subcarriers"] = 8
    data["trials"]["n_seeds"] = 2
    cfg = _write(tmp_path, "fig8_small.json", data)
    assert main(["run", cfg, "--out", "-"]) == 3
    assert capsys.readouterr().err == (f"numeric failure: {routine.upper()} did not converge "
                                       f"for {shape} matrix; seed 2024\n")


def test_cli_exit_code_for_cancelling_band_average(tmp_path, capsys):
    # a 1024-element ring drives the 2F3 of the upper bound to arguments
    # where its power series cancelled (the run exited 3, and before that
    # printed bounds far above 1); the run now exits 0 with both bounds in
    # [0, 1] and lower <= upper on every row
    data = _small_trial_scenario()
    data["system"].update(n_elements_tx=1024, n_subcarriers=129, bandwidth_hz=3e9)
    data["sweep"] = {"variable": "bandwidth", "start": 0.05e9, "stop": 8e9, "points": 3}
    data["methods"] = ["avg_ps_upper", "avg_ps_lower"]
    cfg = _write(tmp_path, "fig7_1024.json", data)
    assert main(["run", cfg, "--out", "-"]) == 0
    out = capsys.readouterr()
    assert "numeric failure" not in out.err
    by_x = {}
    for row in _csv_rows(out.out):
        by_x.setdefault(row.x, {})[row.method] = row.mean
    assert len(by_x) == 3
    for v in by_x.values():
        assert 0.0 <= v["avg_ps_lower"] <= v["avg_ps_upper"] <= 1.0


def _mp_abs_j0_average(b):
    """(1/b) int_0^b |J0| by mpmath, between the zeros of J0."""
    b = mpmath.mpf(b)
    with mpmath.workdps(30):
        ends, m = [mpmath.mpf(0)], 1
        while mpmath.besseljzero(0, m) < b:
            ends.append(mpmath.besseljzero(0, m))
            m += 1
        return float(mpmath.quad(lambda t: abs(mpmath.j0(t)), ends + [b]) / b)


def test_cli_band_average_of_a_1024_element_ring_up_to_10_ghz(tmp_path, capsys):
    # fig7 on a 1024-element ring takes b up to 85, where the power series
    # of the bounds once lost every digit; every row keeps the sandwich
    # lower <= numeric <= upper, and sampled rows match mpmath to 1e-13
    data = _builtin_data("fig7")
    data["system"]["n_elements_tx"] = 1024
    data["sweep"]["stop"] = 10e9
    cfg = _write(tmp_path, "fig7_1024_10ghz.json", data)
    assert main(["run", cfg, "--out", "-"]) == 0
    by_x = {}
    for row in _csv_rows(capsys.readouterr().out):
        by_x.setdefault(row.x, {})[row.method] = row.mean
    radius = arraymodel.half_wavelength_uca(1024, FC).radius_m
    xs = sorted(by_x)
    assert len(xs) == 80 and analysis._b_ps(radius, xs[-1]) > 85.0
    for x in xs:
        v = by_x[x]
        assert v["avg_ps_lower"] <= v["avg_ps_numeric"] <= v["avg_ps_upper"]
    for x in xs[::13] + xs[-1:]:
        b = analysis._b_ps(radius, x)
        with mpmath.workdps(40):
            want = {"avg_ps_lower": mpmath.hyp1f2(0.5, 1, 1.5, -b * b / 4),
                    "avg_ps_upper": mpmath.sqrt(mpmath.hyp2f3(0.5, 0.5, 1, 1, 1.5, -b * b)),
                    "avg_ps_numeric": _mp_abs_j0_average(b)}
        for method, ref in want.items():
            assert by_x[x][method] == pytest.approx(float(ref), rel=1e-13, abs=0)


def test_cli_delay_phase_average_of_a_1024_element_ring_up_to_20_ghz(tmp_path, capsys):
    # avg_ttd at K = 8 up to 20 GHz, where the 2F3 argument reaches b = 168
    data = _builtin_data("fig7")
    data["system"]["n_elements_tx"] = 1024
    data["sweep"].update(stop=20e9, points=9)
    data["methods"] = ["avg_ttd"]
    cfg = _write(tmp_path, "ttd_1024_20ghz.json", data)
    assert main(["run", cfg, "--out", "-"]) == 0
    radius = arraymodel.half_wavelength_uca(1024, FC).radius_m
    rows = _csv_rows(capsys.readouterr().out)
    assert len(rows) == 9
    for row in rows:
        b = math.pi ** 2 * row.x * radius / (arraymodel.SPEED_OF_LIGHT * 8)
        with mpmath.workdps(40):
            want = float(mpmath.hyp2f3(0.5, 0.5, 1, 1.5, 1.5, -b * b / 4))
        assert row.mean == pytest.approx(want, rel=1e-13, abs=0)


def test_cli_closed_form_past_the_step_budget_exits_3_at_once(tmp_path, capsys):
    # at 1e15 Hz the angular closed form takes J0 near x = 4.3e6, past the
    # Miller step budget: the run exits 3 naming the argument, before any
    # step (it once ran for 14-28 s), and numpy does not warn
    data = _builtin_data("fig3b")
    data["sweep"]["points"] = 3
    data["methods"] = ["uca_closed_form@1e15"]
    cfg = _write(tmp_path, "fig3b_1e15.json", data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", "-"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: a Miller recurrence at x=")
    assert "would take more than 65536 steps; method uca_closed_form@1e15 at x=" in err


def test_cli_numeric_failure_of_a_long_sweep_warns_nothing(tmp_path, capsys):
    # a sweep long enough for the array path, every point past the Miller
    # step budget: the error is raised before a step, naming the first point
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "argument", "start": 9e4, "stop": 1.1e5, "points": 40}
    data["methods"] = ["hyp_1f2", "hyp_2f3"]
    cfg = _write(tmp_path, "blowup40.json", data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", "-"]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "z=-2025000000.0" in err
    assert err.rstrip().endswith("; method hyp_1f2 at x=90000.0")


def test_numeric_failure_of_a_band_average_names_the_method_and_sweep_point(tmp_path,
                                                                             capsys):
    # the bounds of fig7 on a 3 km ring: b is 1,572, 63,660 and 125,750,
    # past the Miller step budget from the second point on.  The upper
    # bound's one call over the sweep fails, and the error names the first
    # sweep point at which that method fails on its own, chained from the
    # call's error
    data = _builtin_data("fig7")
    data["system"]["radius_m"] = 3000.0
    data["sweep"]["points"] = 3
    data["methods"] = ["avg_ps_upper", "avg_ps_lower"]
    cfg = _write(tmp_path, "fig7_3km.json", data)
    assert main(["run", cfg, "--out", "-"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: a Miller recurrence at z=")
    x = float(err.rstrip().rpartition("; method avg_ps_upper at x=")[2])
    xs = xpcli._sweep_points(load_scenario(cfg))
    radius = 3000.0
    assert x in xs and xs.index(x) == 1
    analysis.avg_gain_ps_upper(radius, xs[xs.index(x) - 1])
    with pytest.raises(ConvergenceError):
        analysis.avg_gain_ps_upper(radius, x)
    with pytest.raises(ArithmeticError, match="; method avg_ps_upper at x=") as info:
        run(load_scenario(cfg))
    assert isinstance(info.value.__cause__, ConvergenceError)


def test_numeric_failure_of_the_whole_sweep_alone_is_raised_as_it_is(tmp_path, capsys,
                                                                     monkeypatch):
    # an evaluator that fails on the whole sweep but at no point alone: the
    # run raises the sweep's own error, naming no method or point
    real = xpcli._METHODS["hyp_1f2"].evaluate

    def evaluate(s, x):
        if len(x) > 1:
            raise ArithmeticError("the sweep failed")
        return real(s, x)
    monkeypatch.setitem(xpcli._METHODS, "hyp_1f2",
                        dataclasses.replace(xpcli._METHODS["hyp_1f2"], evaluate=evaluate))
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "argument", "start": 0.0, "stop": 2.0, "points": 3}
    data["methods"] = ["hyp_1f2"]
    cfg = _write(tmp_path, "argument.json", data)
    assert main(["run", cfg, "--out", "-"]) == 3
    assert capsys.readouterr().err == "numeric failure: the sweep failed\n"


def _scalar_gain(label, s, x):
    """One sweep point of an exact-gain method, as a scalar library call:
    the fc beam's gains (ps_exact, uca_exact) by the scalar _beam_gains."""
    if label == "ps_exact":
        return analysis._beam_gains(s.geom, s.fc, s.phi0, x, s.phi0)
    if label == "dpp_exact":
        return analysis.dpp_exact_gain(s.geom, s.fc, x, s.phi0, s.k_ttd)
    f_eval = float(s.f_eval[0, 0])
    if label.startswith("uca_exact"):
        return analysis._beam_gains(s.geom, s.fc, s.phi0, f_eval, x)
    ula = arraymodel.UlaGeometry(s.geom.n_elements, arraymodel.SPEED_OF_LIGHT / s.fc / 2.0)
    w = arraymodel.steering_ula(ula, s.fc, s.phi0)
    return abs(np.vdot(arraymodel.steering_ula(ula, f_eval, x), w))


@pytest.mark.parametrize("n_elements", [16, 256, 1024])
@pytest.mark.parametrize("label", ["ps_exact", "dpp_exact", "uca_exact", "uca_exact@2.85e10",
                                   "ula_exact", "ula_exact@2.85e10",
                                   "dpp_exact/K=1", "dpp_exact/K=N"])
def test_exact_gain_sweeps_equal_their_scalar_calls(label, n_elements):
    # one call over the sweep gives each point the bits of its own scalar
    # call, on both sides of the chunk edges (8 points per chunk); dpp_exact
    # at fig2's K = 8 and at the arc-size edges K = 1 (P = N) and K = N (P = 1)
    label, _, k = label.partition("/K=")
    scenario = load_builtin("fig2")
    k_ttd = {"": scenario.precoding.k_ttd, "1": 1, "N": n_elements}[k]
    scenario = dataclasses.replace(
        scenario, system=dataclasses.replace(scenario.system, n_elements_tx=n_elements),
        precoding=dataclasses.replace(scenario.precoding, k_ttd=k_ttd))
    base, setup = xpcli._split_method(label)[0], xpcli._Setup(scenario, [label])
    for n in (1, 7, 9, 257):
        if base in ("ps_exact", "dpp_exact"):
            xs = np.linspace(28.5e9, 31.5e9, n)
        else:
            xs = np.linspace(-1.0, 2.5, n)
        got = np.ravel(xpcli._family_values(scenario, [label], xs))
        want = [_scalar_gain(label, setup, x) for x in xs.tolist()]
        assert np.array_equal(got, want), (label, n_elements, n)


def test_deterministic_methods_take_the_whole_sweep_in_one_call(monkeypatch):
    counts = {}
    for name in ("_beam_gains", "exact_gain", "dpp_exact_gain", "dpp_gain_subarray_sum",
                 "dpp_gain_closed_form", "_band_averages", "avg_gain_ps_numeric",
                 "avg_gain_ps_upper", "avg_gain_ps_lower", "avg_gain_ttd"):
        _count_calls(monkeypatch, analysis, name, counts)
    run(_with_points(load_builtin("fig6"), 40))
    run(_with_points(load_builtin("fig7"), 40))
    # one evaluator call per method and run: fig6's ps_exact (_beam_gains,
    # whose uncertified points take one exact_gain call of the fc beam) and
    # dpp_exact (dpp_exact_gain) take one each, and fig7's four band
    # averages one band pass (_band_averages)
    assert counts == {"_beam_gains": 1, "exact_gain": 1, "dpp_exact_gain": 1,
                      "dpp_gain_subarray_sum": 1, "dpp_gain_closed_form": 1,
                      "_band_averages": 1}


def test_kernel_labels_of_a_run_share_one_miller_pass(monkeypatch):
    # fig5's two curves take one hypergeometric pass; fig7's four band
    # averages take one, plus one Bessel pass per Newton step of the zeros
    for name, passes in (("fig5", (1, 0)), ("fig7", (1, analysis._NEWTON_STEPS))):
        counts = {}
        for fn in ("_miller_form", "_bessel_miller"):
            _count_calls(monkeypatch, specfun, fn, counts)
        run(load_builtin(name))
        assert (counts.get("_miller_form", 0), counts.get("_bessel_miller", 0)) == passes, name
        monkeypatch.undo()


def test_cli_run_validates_its_scenario_once(tmp_path, monkeypatch):
    # load_scenario validates; run() does not check the scenario it
    # returned again, but does check any other
    counts = {}
    _count_calls(monkeypatch, xpcli, "validate_scenario", counts)
    cfg = _write(tmp_path, "fig7.json", _builtin_data("fig7"))
    assert main(["run", cfg, "--out", str(tmp_path / "out.csv")]) == 0
    assert counts == {"validate_scenario": 1}
    scenario = load_scenario(cfg)
    run(scenario)
    assert counts == {"validate_scenario": 2}
    run(_with_points(scenario, 5))
    assert counts == {"validate_scenario": 3}


def test_runs_that_read_no_beam_build_none(monkeypatch):
    # the fc beam is built at most once per run, and only when a point falls
    # back to the dense sum: fig5 and fig7 never read it; fig2's ps_exact at
    # 9 points has every point certified, at 129 points some fall back;
    # fig3b's three uca_exact columns fall back in one call
    counts = {}
    _count_calls(monkeypatch, analysis, "steering_uca", counts)
    run(load_builtin("fig5"))
    run(load_builtin("fig7"))
    run(_with_points(load_builtin("fig2"), 9))
    assert counts == {}
    for name in ("fig2", "fig3b"):
        run(load_builtin(name))
        assert counts == {"steering_uca": 1}, name
        counts.clear()


def test_runs_that_read_no_ring_build_none(monkeypatch):
    # the transmit ring is built on first read, like the beam: fig5's
    # hyp_1f2 and hyp_2f3 never read it, so a ring of one element with no
    # radius (no half-wavelength spacing exists) runs, with fig5's rows;
    # fig3b builds one ring per evaluator
    data = _builtin_data("fig5")
    data["system"]["n_elements_tx"] = 1
    scenarios = [load_builtin("fig5"), scenario_from_dict(data), load_scenario("fig3b", points=9)]
    counts = {}
    _count_calls(monkeypatch, xpcli, "_tx_uca", counts)
    assert run(scenarios[0]) == run(scenarios[1])
    assert counts == {}
    run(scenarios[2])
    assert counts == {"_tx_uca": 2}


def test_frequency_columns_of_a_method_take_one_call(monkeypatch):
    # fig3b's three @frequency columns of each method, and fig3a's of
    # ula_exact, go through one evaluator call per method
    counts = {}
    for name in ("ps_gain_angular_closed_form", "_beam_gains"):
        _count_calls(monkeypatch, analysis, name, counts)
    run(load_builtin("fig3b"))
    assert counts == {"ps_gain_angular_closed_form": 1, "_beam_gains": 1}
    counts.clear()
    _count_calls(monkeypatch, analysis, "_gains", counts)
    run(load_builtin("fig3a"))
    assert counts == {"_gains": 1}


def _columns(table):
    """Each method's (x, mean) pairs of a run, in sweep order."""
    cols = {}
    for r in table.rows:
        cols.setdefault(r.method, []).append((r.x, r.mean))
    return {m: tuple(map(list, zip(*pairs))) for m, pairs in cols.items()}


@pytest.mark.parametrize("n_elements", [16, 256, 1024])
@pytest.mark.parametrize("name", ["fig3a", "fig3b", "mixed", "fig6"])
def test_batched_frequency_columns_equal_their_labels_alone(name, n_elements):
    # each column of a family's one call has the bits of its label evaluated
    # on its own, and fig6's ps_exact and dpp_exact, listed together, each
    # keep the bits of their label alone; N = 1024 takes the closed form deep
    # into the Miller range
    scenario = load_builtin("fig3b" if name == "mixed" else name)
    if name == "mixed":
        scenario = dataclasses.replace(scenario, methods=(
            "uca_exact", "uca_exact@3.0e10", "uca_closed_form@2.85e10"))
    scenario = dataclasses.replace(scenario, system=dataclasses.replace(
        scenario.system, n_elements_tx=n_elements))
    xs = np.array(xpcli._sweep_points(scenario))
    cols = _columns(run(scenario))
    assert sorted(cols) == sorted(scenario.methods)
    for label in scenario.methods:
        base = xpcli._split_method(label)[0]
        alone = np.ravel(xpcli._METHODS[base].evaluate(xpcli._Setup(scenario, [label]), xs))
        got_x, got = cols[label]
        assert got_x == xs.tolist()
        assert np.array_equal(got, alone), (label, n_elements)
    if name == "mixed":
        assert cols["uca_exact"] == cols["uca_exact@3.0e10"]


def test_cli_validate_ok_and_failing(tmp_path, capsys):
    good = _write(tmp_path, "good.json", _small_trial_scenario())
    assert main(["validate", good]) == 0
    assert "ok:" in capsys.readouterr().out
    data = _small_trial_scenario()
    data["precoding"]["k_ttd"] = 7
    bad = _write(tmp_path, "bad.json", data)
    assert main(["validate", bad]) == 2
    assert "precoding.k_ttd: k_ttd=7 must divide n_elements=16" in capsys.readouterr().err


def test_cli_validate_empty_file(tmp_path, capsys):
    empty = _write(tmp_path, "empty.json", "")
    assert main(["validate", empty]) == 2
    assert "invalid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# trial runner: work done per seed
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, module, name, counts, calls=None):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        if calls is not None:
            calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _count_trial_work(monkeypatch):
    """Call counts of channel draws, design calls and the fully digital
    bound's R-factor passes, and the arguments of each design call."""
    counts, calls = {}, []
    _count_calls(monkeypatch, xpcli, "build_designs", counts, calls)
    _count_calls(monkeypatch, xpcli, "generate_channel", counts)
    _count_calls(monkeypatch, precoding, "_bound", counts)
    return counts, calls


def test_k_ttd_sweep_evaluates_k_invariant_methods_once_per_seed(monkeypatch):
    counts, calls = _count_trial_work(monkeypatch)
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "k_ttd", "values": [1, 2, 4]}
    table = run(scenario_from_dict(data))
    # one design call per channel; its K = 1 stage is the classic design,
    # and None the fully digital bound
    assert counts == {"generate_channel": 3, "build_designs": 3, "_bound": 3}
    assert [set(args[3]) for args in calls] == [{1, 2, 4, None}] * 3
    # K-invariant rows repeat exactly across K
    for method in ("classic", "optimal"):
        assert len({(r.mean, r.std) for r in table.rows if r.method == method}) == 1
    # the delay-phase rows equal designs built one count at a time
    monkeypatch.undo()
    scenario = scenario_from_dict(data)
    for row in table.rows:
        if row.method == "dpp":
            cfg = DppConfig(1, int(row.x), 1)
            per_seed = [float(np.mean(analysis.spectrum_efficiency(
                build_dpp(xpcli._channel(scenario, 1e9, seed), cfg), 10.0)))
                for seed in range(7, 10)]
            assert row.mean == pytest.approx(np.mean(per_seed), rel=1e-12)


def test_k_ttd_sweep_rates_each_design_once_per_seed(monkeypatch):
    # classic and dpp at K = 1 share the classic design and its rating: the
    # designs K = 1, 2, 4 and the bound give 4 ratings per seed.  Every row
    # equals the run that lists its method alone, to the output contract's
    # 1e-12 (a design's last bits depend on the counts built beside it)
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "k_ttd", "values": [1, 2, 4]}
    alone = ResultTable(tuple(
        row for method in data["methods"]
        for row in run(scenario_from_dict({**data, "methods": [method]})).rows)).sorted()
    counts = {}
    _count_calls(monkeypatch, analysis, "spectrum_efficiency", counts)
    together = run(scenario_from_dict(data))
    assert counts == {"spectrum_efficiency": 4 * data["trials"]["n_seeds"]}
    assert [r[:2] for r in together.rows] == [r[:2] for r in alone.rows]
    assert np.array([r[2:] for r in together.rows]) == pytest.approx(
        np.array([r[2:] for r in alone.rows]), rel=1e-12, abs=0.0)
    by = {r[:2]: r[2:] for r in together.rows}
    assert by[(1.0, "classic")] == by[(1.0, "dpp")]


def test_failed_rating_names_the_first_listed_method_of_its_design(tmp_path, capsys,
                                                                   monkeypatch):
    # the classic design fails to rate; dpp, listed before classic, rates it
    # first at K = 1, so the failure names dpp and the seed
    classic = []
    build_designs, spectrum_efficiency = xpcli.build_designs, analysis.spectrum_efficiency

    def built(*args):
        designs = build_designs(*args)
        classic.append(designs[1])
        return designs

    def rated(design, rho):
        if design is classic[-1]:
            raise FloatingPointError("the classic design failed")
        return spectrum_efficiency(design, rho)
    monkeypatch.setattr(xpcli, "build_designs", built)
    monkeypatch.setattr(analysis, "spectrum_efficiency", rated)
    data = _small_trial_scenario(methods=["optimal", "dpp", "classic"])
    data["sweep"] = {"variable": "k_ttd", "values": [1, 2, 4]}
    cfg = _write(tmp_path, "mini.json", data)
    assert main(["run", cfg, "--out", "-"]) == 3
    assert capsys.readouterr().err == (
        "numeric failure: the classic design failed; method dpp, seed 7\n")


@pytest.mark.parametrize("error, code, shown", [
    (MemoryError("Unable to allocate 419. GiB for an array"), 3,
     "out of memory: Unable to allocate 419. GiB for an array\n"),
    (ValueError("rates of a bad design"), 2, "config error: rates of a bad design\n"),
    (KeyError("design"), 2, "config error: 'design'\n"),
])
def test_cli_exit_code_for_a_rating_that_fails(tmp_path, capsys, monkeypatch, error, code,
                                              shown):
    # a trial rating that fails with no numeric cause exits as the CLI maps
    # its error, with no traceback; nothing large is allocated here
    def fail(*args):
        raise error
    monkeypatch.setattr(analysis, "spectrum_efficiency", fail)
    cfg = _write(tmp_path, "mini.json", _small_trial_scenario())
    assert main(["run", cfg, "--out", "-"]) == code
    assert capsys.readouterr().err == shown


def test_snr_sweep_builds_each_design_once_per_seed(monkeypatch):
    counts, calls = _count_trial_work(monkeypatch)
    scenario = scenario_from_dict(_small_trial_scenario())  # 3 seeds x 3 SNRs
    table = run(scenario)
    assert counts == {"generate_channel": 3, "build_designs": 3, "_bound": 3}
    # the classic design, the scenario's k_ttd = 4 and the bound
    assert [set(args[3]) for args in calls] == [{1, 4, None}] * 3
    # each sweep point gets the rates of its own SNR: the rows equal one
    # precoder built and rated at a scalar SNR per (seed, SNR)
    monkeypatch.undo()
    cfg = DppConfig(1, 4, 1)
    for row in table.rows:
        rho = 10.0 ** (row.x / 10.0)
        per_seed = []
        for seed in range(7, 10):
            ch = xpcli._channel(scenario, 1e9, seed)
            if row.method == "optimal":
                se = analysis.spectrum_efficiency_optimal(
                    arraymodel.channel_matrix(ch, range(5)), rho, 1)
            else:
                build = build_dpp if row.method == "dpp" else build_classic_hybrid
                se = analysis.spectrum_efficiency(build(ch, cfg), rho)
            per_seed.append(float(np.mean(se)))
        assert row.mean == pytest.approx(np.mean(per_seed), rel=1e-12)
        assert row.std == pytest.approx(np.std(per_seed), rel=1e-9, abs=1e-12)


def test_bandwidth_sweep_draws_each_channel_once_and_keeps_one_alive(monkeypatch):
    counts, built = {}, []
    _count_calls(monkeypatch, xpcli, "generate_channel", counts)
    channel_matrix = precoding.channel_matrix

    def tracked(ch, m):  # 5 subcarriers: one chunk, so one call per channel
        gc.collect()
        assert all(ref() is None for ref in built), "an earlier channel is still alive"
        built.append(weakref.ref(ch))
        return channel_matrix(ch, m)

    monkeypatch.setattr(precoding, "channel_matrix", tracked)
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "bandwidth", "start": 0.5e9, "stop": 2e9, "points": 4}
    run(scenario_from_dict(data))
    assert counts == {"generate_channel": 4 * 3}
    assert len(built) == 4 * 3


def _bench_se_scenario(**sweep):
    """The benchmark's spectrum-efficiency size: N = 256, N_r = 4, M = 128,
    four chains, streams and paths, one seed; by default its bandwidth
    sweep, which draws a fresh channel at each of 8 points."""
    data = _small_trial_scenario()
    data["system"].update(n_elements_tx=256, n_subcarriers=128)
    data["precoding"].update(n_rf=4, k_ttd=16, n_streams=4)
    data["trials"].update(n_seeds=1, n_paths=4)
    data["sweep"] = sweep or {"variable": "bandwidth", "start": 0.1e9, "stop": 5e9,
                              "points": 8}
    return scenario_from_dict(data)


def _traced_run_peak(scenario):
    """Peak traced memory of run(scenario), after a warm-up run."""
    run(scenario)
    tracemalloc.start()
    try:
        run(scenario)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trial_run_synthesizes_chunks_and_never_the_channel_stack(monkeypatch):
    # every channel goes through one chunked pass: no call synthesizes more
    # than SUBCARRIER_CHUNK subcarriers, each subcarrier of each of the 8
    # channels once per run, and the run peaks below half of one channel's
    # M*N*N_r stack (2.1 MB)
    sizes = []
    channel_matrix = precoding.channel_matrix

    def tracked(ch, m):
        sizes.append(len(m))
        return channel_matrix(ch, m)

    monkeypatch.setattr(precoding, "channel_matrix", tracked)
    assert _traced_run_peak(_bench_se_scenario()) < 1e6
    assert max(sizes) == arraymodel.SUBCARRIER_CHUNK and sum(sizes) == 2 * 8 * 128


def test_trial_run_of_a_1024_element_ring_stays_below_its_stack():
    # fig9 at N = 1024 and M = 1024, one seed: the stack alone would be
    # 67 MB; six designs and the bound keep M-row results only
    scenario = load_builtin("fig9")
    scenario = dataclasses.replace(
        scenario, system=dataclasses.replace(scenario.system, n_elements_tx=1024,
                                             n_subcarriers=1024),
        trials=dataclasses.replace(scenario.trials, n_seeds=1))
    assert _traced_run_peak(scenario) < 8e6


def _checkout_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                else []))
    return env


def test_package_runs_as_a_module_without_warnings():
    # python -m ucabeam runs the command line once, with nothing on stderr
    # even when warnings are errors
    done = subprocess.run([sys.executable, "-W", "error", "-m", "ucabeam", "list"],
                          env=_checkout_env(),
                          capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert [line.split()[0] for line in done.stdout.splitlines()] == list(builtin_names())


def test_the_package_runs_without_scipy_mpmath_or_numpy_polynomial():
    # the README promises no scipy at runtime, and numpy.polynomial alone
    # adds about 0.9 MB to the resident set
    code = ("import sys, ucabeam; ucabeam.avg_gain_ps_numeric(0.8, 1e10); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath') "
            "or m.startswith('numpy.polynomial')))")
    done = subprocess.run([sys.executable, "-c", code], env=_checkout_env(),
                          capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
