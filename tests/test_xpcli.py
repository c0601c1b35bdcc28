"""Scenario schema, runner determinism, CSV round-trips, CLI exit codes."""

import gc
import importlib.resources
import json
import math
import warnings
import weakref

import numpy as np
import pytest

from ucabeam import analysis, arraymodel, xpcli
from ucabeam.precoding import DppConfig, build_classic_hybrid, build_dpp
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
    with pytest.raises(ScenarioError, match="does not divide"):
        scenario_from_dict(data)


def test_method_sweep_mismatch_diagnostic():
    data = _small_trial_scenario()
    data["methods"] = ["ps_exact"]
    with pytest.raises(ScenarioError, match="not valid for a 'snr_db' sweep"):
        scenario_from_dict(data)


def test_all_diagnostics_collected_at_once():
    data = _small_trial_scenario()
    data["name"] = ""
    data["precoding"]["k_ttd"] = 7
    data["precoding"]["n_streams"] = 9
    data["sweep"] = {"variable": "frequency", "start": 5.0, "stop": 1.0, "points": 1}
    data["methods"] = ["classic"]
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(data)
    text = "\n".join(info.value.diagnostics)
    assert len(info.value.diagnostics) >= 5
    assert "name: must be non-empty" in text
    assert "does not divide" in text
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
    with pytest.raises(ScenarioError, match="does not divide"):
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
    data["sweep"] = {"variable": "bandwidth", "start": 1e9, "stop": 60e9, "points": 3}
    data["system"]["bandwidth_hz"] = 70e9
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.diagnostics == ["system.bandwidth_hz: grid extends to non-positive "
                                     "frequencies: fc=30000000000.0, B=70000000000.0"]
    data["system"]["bandwidth_hz"] = 60e9
    scenario_from_dict(data)
    # a frequency sweep samples the system band with its own point count
    data["system"]["bandwidth_hz"] = 61e9
    data["sweep"] = {"variable": "frequency", "start": FC - 30.5e9, "stop": FC + 30.5e9,
                     "points": 100}
    data["methods"] = ["ps_exact"]
    with pytest.raises(ScenarioError, match="sweep.points: grid extends"):
        scenario_from_dict(data)


def _fig8_data():
    return json.loads((importlib.resources.files("ucabeam") / "scenarios" / "fig8.json")
                      .read_text(encoding="utf-8"))


def test_snr_sweep_whose_rho_underflows_is_a_config_error(tmp_path, capsys):
    # 10^(-4000/10) underflows to rho = 0, which no rate is defined for
    data = _fig8_data()
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
    data = _fig8_data()
    data["sweep"] = {"variable": "k_ttd", "values": [1, 2]}
    data["trials"]["snr_db"] = -4000.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(data)
    assert err.value.diagnostics == ["trials.snr_db: 10^(snr_db/10) must be a finite "
                                     "positive number, got snr_db=-4000.0"]


def test_snr_sweep_whose_rho_overflows_is_a_config_error(tmp_path, capsys):
    # 10^(4000/10) does not fit a float: a config error, not a numeric failure
    data = _fig8_data()
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
    data["trials"]["snr_db"] = 4000.0
    with pytest.raises(ScenarioError, match=r"trials.snr_db: .* got snr_db=4000.0"):
        scenario_from_dict(data)


def test_validate_rejects_more_streams_than_receive_antennas(tmp_path, capsys):
    data = _small_trial_scenario()
    data["system"]["n_elements_rx"] = 2
    data["precoding"].update(n_rf=4, n_streams=4)
    data["trials"]["n_paths"] = 4
    cfg = _write(tmp_path, "streams.json", data)
    assert main(["validate", cfg]) == 2
    assert "precoding.n_streams: 4 exceeds system.n_elements_rx=2" in capsys.readouterr().err


def test_validate_rejects_more_rf_chains_than_transmit_antennas(tmp_path, capsys):
    data = _small_trial_scenario()
    data["system"]["n_elements_tx"] = 2
    data["precoding"].update(n_rf=4, k_ttd=1, n_streams=1)
    data["trials"]["n_paths"] = 4
    cfg = _write(tmp_path, "chains.json", data)
    assert main(["validate", cfg]) == 2
    assert "precoding.n_rf: 4 exceeds system.n_elements_tx=2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------


def test_csv_round_trip_is_exact():
    table = run(load_builtin("fig5"))
    again = ResultTable.from_csv(table.to_csv())
    assert again == table


def test_csv_rejects_bad_header_and_rows():
    with pytest.raises(ValueError, match="header"):
        ResultTable.from_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="malformed"):
        ResultTable.from_csv("x,method,mean,std\n1.0,dpp,2.0\n")


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


def test_points_override_rejected_for_values_sweeps():
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "k_ttd", "values": [1, 2, 4]}
    data["trials"]["n_seeds"] = 1
    with pytest.raises(ScenarioError, match="--points"):
        run(scenario_from_dict(data), points_override=5)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_list_names_everything(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in builtin_names():
        assert name in out


def test_cli_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "fig5.csv"
    assert main(["run", "fig5", "--out", str(out)]) == 0
    assert f"wrote {out} (402 rows)" in capsys.readouterr().out
    table = ResultTable.from_csv(out.read_text())
    assert len(table.rows) == 402


def test_cli_run_respects_points_override(tmp_path):
    out = tmp_path / "short.csv"
    assert main(["run", "fig5", "--points", "7", "--out", str(out)]) == 0
    assert len(ResultTable.from_csv(out.read_text()).rows) == 14


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


def test_cli_exit_code_for_io_errors(tmp_path):
    assert main(["run", "fig5", "--points", "2",
                 "--out", str(tmp_path / "missing" / "dir" / "x.csv")]) == 2


def test_cli_exit_code_for_numeric_failure(tmp_path, capsys):
    # an argument sweep far outside the series range blows the term budget
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "argument", "start": 900.0, "stop": 1100.0,
                     "points": 3}
    data["methods"] = ["hyp_1f2"]
    cfg = _write(tmp_path, "blowup.json", data)
    assert main(["run", cfg, "--out", "-"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_cli_exit_code_for_cancelling_band_average(tmp_path, capsys):
    # a 1024-element ring drives the 2F3 of the upper bound to arguments
    # where its series cancels; the bound once printed values far above 1
    data = _small_trial_scenario()
    data["system"].update(n_elements_tx=1024, n_subcarriers=129, bandwidth_hz=3e9)
    data["sweep"] = {"variable": "bandwidth", "start": 0.05e9, "stop": 8e9, "points": 3}
    data["methods"] = ["avg_ps_upper", "avg_ps_lower"]
    cfg = _write(tmp_path, "fig7_1024.json", data)
    assert main(["run", cfg, "--out", "-"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_cli_numeric_failure_of_a_long_sweep_warns_nothing(tmp_path, capsys):
    # a sweep long enough for the vector series loop, which runs the
    # diverging elements into overflow before the error is raised
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "argument", "start": 900.0, "stop": 1100.0,
                     "points": 40}
    data["methods"] = ["hyp_1f2", "hyp_2f3"]
    cfg = _write(tmp_path, "blowup40.json", data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", cfg, "--out", "-"]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "z=-202500.0" in err


def test_deterministic_methods_take_the_whole_sweep_in_one_call(monkeypatch):
    counts = {}
    for name in ("exact_gain", "dpp_exact_gain", "dpp_gain_subarray_sum",
                 "dpp_gain_closed_form", "avg_gain_ps_numeric", "avg_gain_ps_upper"):
        _count_calls(monkeypatch, analysis, name, counts)
    run(load_builtin("fig6"), points_override=40)
    run(load_builtin("fig7"), points_override=40)
    # the exact gains stay one call per point: ps_exact, and dpp_exact
    # through exact_gain
    assert counts == {"exact_gain": 80, "dpp_exact_gain": 40, "dpp_gain_subarray_sum": 1,
                      "dpp_gain_closed_form": 1, "avg_gain_ps_numeric": 1,
                      "avg_gain_ps_upper": 1}


def test_cli_validate_ok_and_failing(tmp_path, capsys):
    good = _write(tmp_path, "good.json", _small_trial_scenario())
    assert main(["validate", good]) == 0
    assert "ok:" in capsys.readouterr().out
    data = _small_trial_scenario()
    data["precoding"]["k_ttd"] = 7
    bad = _write(tmp_path, "bad.json", data)
    assert main(["validate", bad]) == 2
    assert "does not divide" in capsys.readouterr().err


def test_cli_validate_empty_file(tmp_path, capsys):
    empty = _write(tmp_path, "empty.json", "")
    assert main(["validate", empty]) == 2
    assert "invalid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# trial runner: work done per seed
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, module, name, counts):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_k_ttd_sweep_evaluates_k_invariant_methods_once_per_seed(monkeypatch):
    counts = {}
    for module, name in ((xpcli, "design_classic_hybrid"), (xpcli, "design_dpp"),
                         (xpcli, "generate_channel"),
                         (analysis, "spectrum_efficiency_optimal")):
        _count_calls(monkeypatch, module, name, counts)
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "k_ttd", "values": [1, 2, 4]}
    table = run(scenario_from_dict(data))
    assert counts == {"generate_channel": 3, "design_classic_hybrid": 3,
                      "spectrum_efficiency_optimal": 3, "design_dpp": 9}
    # K-invariant rows repeat exactly across K
    for method in ("classic", "optimal"):
        assert len({(r.mean, r.std) for r in table.rows if r.method == method}) == 1


def test_snr_sweep_builds_each_design_once_per_seed(monkeypatch):
    counts = {}
    for module, name in ((xpcli, "design_classic_hybrid"), (xpcli, "design_dpp"),
                         (xpcli, "generate_channel"),
                         (analysis, "spectrum_efficiency_optimal")):
        _count_calls(monkeypatch, module, name, counts)
    scenario = scenario_from_dict(_small_trial_scenario())  # 3 seeds x 3 SNRs
    table = run(scenario)
    assert counts == {"generate_channel": 3, "design_classic_hybrid": 3, "design_dpp": 3,
                      "spectrum_efficiency_optimal": 3}
    # each sweep point gets the rates of its own SNR: the rows equal one
    # precoder built and rated per (seed, SNR)
    monkeypatch.undo()
    cfg = DppConfig(1, 4, 1)
    for row in table.rows:
        rho = 10.0 ** (row.x / 10.0)
        per_seed = []
        for seed in range(7, 10):
            ch = xpcli._channel(scenario, 1e9, seed)
            if row.method == "optimal":
                se = analysis.spectrum_efficiency_optimal(ch.matrices, rho, 1.0, 1)
            else:
                build = build_dpp if row.method == "dpp" else build_classic_hybrid
                ps = build(ch, cfg, rho)
                ps = ps[0] if row.method == "dpp" else ps
                se = analysis.spectrum_efficiency(ch.matrices, ps, range(5), rho, 1.0)
            per_seed.append(float(np.mean(se)))
        assert row.mean == pytest.approx(np.mean(per_seed), rel=1e-12)
        assert row.std == pytest.approx(np.std(per_seed), rel=1e-9, abs=1e-12)


def test_bandwidth_sweep_draws_each_channel_once_and_keeps_one_alive(monkeypatch):
    counts, built = {}, []
    _count_calls(monkeypatch, xpcli, "generate_channel", counts)
    channel_matrix = arraymodel.channel_matrix

    def tracked(ch, m):
        gc.collect()
        assert all(ref() is None for ref in built), "an earlier channel is still alive"
        built.append(weakref.ref(ch))
        return channel_matrix(ch, m)

    monkeypatch.setattr(arraymodel, "channel_matrix", tracked)
    data = _small_trial_scenario()
    data["sweep"] = {"variable": "bandwidth", "start": 0.5e9, "stop": 2e9, "points": 4}
    run(scenario_from_dict(data))
    assert counts == {"generate_channel": 4 * 3}
    assert len(built) == 4 * 3
