"""Command-line experiment runner for the wideband-UCA study.

Scenarios are declarative JSON files (shipped built-ins or user paths).  Each
run sweeps one variable and emits one row per sweep point per method with
columns ``x,method,mean,std``; deterministic methods report std = 0, trial
methods report mean and standard deviation over seeded channel realizations.
Floats are written with round-trip-exact ``repr`` formatting, so the same
config and base seed always produce a byte-identical CSV.

Subcommands: ``run <scenario|path> [--out PATH] [--seed U64] [--points N]
[--format csv|json]``, ``validate <path>``, ``list``.  Exit codes: 0 success,
2 configuration or I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib.resources
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import analysis as an
from . import specfun
from .arraymodel import (
    SPEED_OF_LIGHT,
    FrequencyGrid,
    UcaGeometry,
    UlaGeometry,
    generate_channel,
    half_wavelength_uca,
    steering_ula,
    steering_uca,
)
from .precoding import DppConfig, design_classic_hybrid, design_dpp

__all__ = [
    "ScenarioError",
    "SystemConfig",
    "PrecodingConfig",
    "SweepConfig",
    "TrialsConfig",
    "Scenario",
    "ResultRow",
    "ResultTable",
    "builtin_names",
    "load_builtin",
    "load_scenario",
    "validate_scenario",
    "run",
    "main",
]

SWEEP_VARIABLES = ("frequency", "angle", "argument", "snr_db", "k_ttd", "bandwidth")


class ScenarioError(ValueError):
    """Invalid scenario configuration; carries every diagnostic found."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class SystemConfig:
    n_elements_tx: int = 256
    n_elements_rx: int = 4
    fc_hz: float = 30e9
    bandwidth_hz: float = 3e9
    n_subcarriers: int = 129
    radius_m: float | None = None  # None: half-wavelength arc spacing
    target_angle_rad: float = math.pi / 6


@dataclass(frozen=True)
class PrecodingConfig:
    n_rf: int = 1
    k_ttd: int = 8
    n_streams: int = 1
    total_power: float = 1.0


@dataclass(frozen=True)
class SweepConfig:
    variable: str
    start: float = 0.0
    stop: float = 0.0
    points: int = 2
    values: tuple | None = None


@dataclass(frozen=True)
class TrialsConfig:
    n_seeds: int = 1
    base_seed: int = 2024
    n_paths: int = 1
    snr_db: float = 10.0
    max_delay_s: float = 20e-9


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    system: SystemConfig
    precoding: PrecodingConfig
    sweep: SweepConfig
    trials: TrialsConfig
    methods: tuple
    output: str


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------


def _build_section(cls, data, section, diags):
    if not isinstance(data, dict):
        diags.append(f"{section}: expected an object, got {type(data).__name__}")
        return None
    known = {f.name for f in dataclasses.fields(cls)}
    clean = {}
    for key, value in data.items():
        if key not in known:
            diags.append(f"{section}.{key}: unknown field")
            continue
        clean[key] = tuple(value) if isinstance(value, list) else value
    try:
        return cls(**clean)
    except TypeError as exc:
        diags.append(f"{section}: {exc}")
        return None


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from parsed JSON, collecting every structural
    problem into a single ScenarioError."""
    diags = []
    if not isinstance(data, dict):
        raise ScenarioError([f"scenario: expected a JSON object, got {type(data).__name__}"])
    known = {"name", "description", "system", "precoding", "sweep", "trials",
             "methods", "output"}
    for key in data:
        if key not in known:
            diags.append(f"{key}: unknown top-level field")
    name = data.get("name", "")
    description = data.get("description", "")
    system = _build_section(SystemConfig, data.get("system", {}), "system", diags)
    precoding = _build_section(PrecodingConfig, data.get("precoding", {}), "precoding", diags)
    sweep_data = data.get("sweep")
    if sweep_data is None:
        diags.append("sweep: missing section")
        sweep = None
    else:
        sweep = _build_section(SweepConfig, sweep_data, "sweep", diags)
    trials = _build_section(TrialsConfig, data.get("trials", {}), "trials", diags)
    methods = data.get("methods", ())
    if not isinstance(methods, (list, tuple)):
        diags.append("methods: expected a list of method names")
        methods = ()
    output = data.get("output", f"{name or 'scenario'}.csv")
    if None in (system, precoding, sweep, trials):
        # a section failed to build at all; invariants cannot be checked
        raise ScenarioError(diags)
    scenario = Scenario(
        name=str(name), description=str(description), system=system,
        precoding=precoding, sweep=sweep, trials=trials,
        methods=tuple(str(m) for m in methods), output=str(output),
    )
    diags.extend(validate_scenario(scenario))
    if diags:
        raise ScenarioError(diags)
    return scenario


def _split_method(label: str):
    base, _, suffix = label.partition("@")
    freq = None
    if suffix:
        try:
            freq = float(suffix)
        except ValueError:
            freq = math.nan
    return base, freq


def validate_scenario(scenario: Scenario) -> list:
    """All invariant violations as human-readable diagnostics (empty = valid)."""
    diags = []
    sy, pc, sw, tr = scenario.system, scenario.precoding, scenario.sweep, scenario.trials

    if not scenario.name:
        diags.append("name: must be non-empty")
    if not scenario.output:
        diags.append("output: must be non-empty")

    def check_int(section, fname, value, minimum):
        if not (isinstance(value, int) and not isinstance(value, bool) and value >= minimum):
            diags.append(f"{section}.{fname}: must be an integer >= {minimum}, got {value!r}")
            return False
        return True

    def check_pos(section, fname, value):
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            diags.append(f"{section}.{fname}: must be a positive number, got {value!r}")
            return False
        return True

    ok_n = check_int("system", "n_elements_tx", sy.n_elements_tx, 1)
    ok_rx = check_int("system", "n_elements_rx", sy.n_elements_rx, 1)
    ok_fc = check_pos("system", "fc_hz", sy.fc_hz)
    ok_bw = check_pos("system", "bandwidth_hz", sy.bandwidth_hz)
    ok_m = check_int("system", "n_subcarriers", sy.n_subcarriers, 1)

    def check_band(where, bandwidth, n_points=sy.n_subcarriers):
        # the band's grid must stay above 0 Hz, as FrequencyGrid requires; the
        # condition tightens as the bandwidth or the number of points grows
        if ok_fc and ok_m:
            try:
                FrequencyGrid(sy.fc_hz, bandwidth, n_points)
            except ValueError as exc:
                diags.append(f"{where}: {exc}")

    def check_snr(where, snr_db):
        # the runner takes rho = 10^(snr_db/10), which must be a finite
        # positive float; a non-finite snr_db is reported by its own check
        if isinstance(snr_db, (int, float)) and math.isfinite(snr_db):
            try:
                rho = 10.0 ** (snr_db / 10.0)
            except OverflowError:
                rho = math.inf
            if not (math.isfinite(rho) and rho > 0.0):
                diags.append(f"{where}: 10^(snr_db/10) must be a finite positive number, "
                             f"got snr_db={snr_db!r}")

    if ok_bw:
        check_band("system.bandwidth_hz", sy.bandwidth_hz)
    if sy.radius_m is not None:
        check_pos("system", "radius_m", sy.radius_m)
    if not (isinstance(sy.target_angle_rad, (int, float)) and math.isfinite(sy.target_angle_rad)):
        diags.append(f"system.target_angle_rad: must be finite, got {sy.target_angle_rad!r}")

    ok_rf = check_int("precoding", "n_rf", pc.n_rf, 1)
    ok_k = check_int("precoding", "k_ttd", pc.k_ttd, 1)
    ok_s = check_int("precoding", "n_streams", pc.n_streams, 1)
    if ok_s and ok_rf:
        if pc.n_streams > pc.n_rf:
            diags.append(
                f"precoding.n_streams: must not exceed n_rf, got "
                f"{pc.n_streams} > {pc.n_rf}"
            )
    check_pos("precoding", "total_power", pc.total_power)
    if ok_n and ok_k and sy.n_elements_tx % pc.k_ttd != 0:
        diags.append(
            f"precoding.k_ttd: {pc.k_ttd} does not divide n_elements_tx="
            f"{sy.n_elements_tx}; each delay unit must drive an integer "
            f"number of antennas (P = N/K)"
        )

    if sw is None:
        diags.append("sweep: missing section")
        return diags
    if sw.variable not in SWEEP_VARIABLES:
        diags.append(
            f"sweep.variable: {sw.variable!r} is not one of {SWEEP_VARIABLES}"
        )
        return diags

    if sw.values is not None:
        vals = sw.values
        if len(vals) < 2:
            diags.append("sweep.values: need at least 2 sweep points")
        if any(not (isinstance(v, (int, float)) and math.isfinite(v)) for v in vals):
            diags.append("sweep.values: entries must be finite numbers")
        elif any(b <= a for a, b in zip(vals, vals[1:])):
            diags.append("sweep.values: must be strictly increasing")
        elif sw.variable == "bandwidth" and vals and vals[0] <= 0:
            diags.append("sweep.values: bandwidth values must be positive")
        elif sw.variable == "bandwidth" and vals:
            check_band("sweep.values", vals[-1])
        if sw.variable == "snr_db":
            for v in vals:
                check_snr("sweep.values", v)
        if sw.variable == "k_ttd" and ok_n:
            for v in vals:
                if not (isinstance(v, int) and v >= 1 and sy.n_elements_tx % v == 0):
                    diags.append(
                        f"sweep.values: k_ttd value {v!r} does not divide "
                        f"n_elements_tx={sy.n_elements_tx}; each delay unit "
                        f"must drive an integer number of antennas (P = N/K)"
                    )
    else:
        ok_points = check_int("sweep", "points", sw.points, 2)
        if not (math.isfinite(sw.start) and math.isfinite(sw.stop) and sw.start < sw.stop):
            diags.append(
                f"sweep: range [{sw.start!r}, {sw.stop!r}] must be finite and "
                f"non-degenerate (start < stop)"
            )
        if sw.variable == "snr_db":
            # rho grows with snr_db, so the end points bound every point
            check_snr("sweep.start", sw.start)
            check_snr("sweep.stop", sw.stop)
        if sw.variable == "k_ttd":
            diags.append("sweep: k_ttd sweeps must use an explicit 'values' list "
                         "of divisors of n_elements_tx")
        if sw.variable == "bandwidth" and not (sw.start > 0):
            diags.append(f"sweep: bandwidth range must start above 0, got {sw.start!r}")
        elif sw.variable == "bandwidth" and math.isfinite(sw.stop):
            check_band("sweep.stop", sw.stop)
        if sw.variable == "frequency" and ok_fc and ok_bw:
            # the runner samples the subcarrier grid of the system band
            lo, hi = sy.fc_hz - sy.bandwidth_hz / 2.0, sy.fc_hz + sy.bandwidth_hz / 2.0
            if not (math.isclose(sw.start, lo, rel_tol=1e-9)
                    and math.isclose(sw.stop, hi, rel_tol=1e-9)):
                diags.append(f"sweep: a frequency sweep covers the system band, so "
                             f"[start, stop] must be fc_hz -/+ bandwidth_hz/2 = "
                             f"[{lo!r}, {hi!r}], got [{sw.start!r}, {sw.stop!r}]")
            if ok_points:
                check_band("sweep.points", sy.bandwidth_hz, sw.points)

    check_int("trials", "n_seeds", tr.n_seeds, 1)
    if not (isinstance(tr.base_seed, int) and not isinstance(tr.base_seed, bool) and tr.base_seed >= 0):
        diags.append(f"trials.base_seed: must be a non-negative integer, got {tr.base_seed!r}")
    ok_paths = check_int("trials", "n_paths", tr.n_paths, 1)
    if not (isinstance(tr.snr_db, (int, float)) and math.isfinite(tr.snr_db)):
        diags.append(f"trials.snr_db: must be finite, got {tr.snr_db!r}")
    check_snr("trials.snr_db", tr.snr_db)
    if not (isinstance(tr.max_delay_s, (int, float)) and math.isfinite(tr.max_delay_s)
            and tr.max_delay_s >= 0):
        diags.append(f"trials.max_delay_s: must be >= 0, got {tr.max_delay_s!r}")

    if not scenario.methods:
        diags.append("methods: must list at least one method")
    allowed = [name for name, m in _METHODS.items() if sw.variable in m.variables]
    has_trial = False
    for label in scenario.methods:
        base, freq = _split_method(label)
        if base not in allowed:
            diags.append(
                f"methods: {label!r} is not valid for a {sw.variable!r} sweep; "
                f"allowed: {', '.join(allowed)}"
            )
            continue
        if freq is not None and sw.variable != "angle":
            diags.append(f"methods: {label!r}: '@frequency' suffixes apply only to angle sweeps")
        elif freq is not None and not (math.isfinite(freq) and freq > 0):
            diags.append(f"methods: {label!r}: suffix must be a positive frequency in Hz")
        has_trial = has_trial or _METHODS[base].trial
    if has_trial and ok_rf and ok_paths and tr.n_paths < pc.n_rf:
        diags.append(
            f"trials.n_paths: {tr.n_paths} is fewer than precoding.n_rf="
            f"{pc.n_rf}; every RF chain needs a path to serve"
        )
    if has_trial and ok_s and ok_rx and pc.n_streams > sy.n_elements_rx:
        diags.append(f"precoding.n_streams: {pc.n_streams} exceeds system.n_elements_rx="
                     f"{sy.n_elements_rx}; each stream needs a receive antenna")
    if has_trial and ok_rf and ok_n and pc.n_rf > sy.n_elements_tx:
        diags.append(f"precoding.n_rf: {pc.n_rf} exceeds system.n_elements_tx="
                     f"{sy.n_elements_tx}; each RF chain needs its own antenna")
    return diags


def builtin_names() -> tuple:
    """Built-in scenario names in presentation order."""
    return tuple(name for name, _ in _BUILTINS)


def load_builtin(name: str) -> Scenario:
    for fname, _ in _BUILTINS:
        if fname == name:
            text = (
                importlib.resources.files("ucabeam")
                .joinpath(f"scenarios/{name}.json")
                .read_text(encoding="utf-8")
            )
            return scenario_from_dict(json.loads(text))
    raise ScenarioError(
        [f"unknown scenario {name!r}; built-ins: {', '.join(builtin_names())}"]
    )


def load_scenario(source: str) -> Scenario:
    """Resolve a built-in name or a JSON config path."""
    if source in builtin_names():
        return load_builtin(source)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ScenarioError(
            [f"{source!r} is neither a built-in scenario nor a readable file; "
             f"built-ins: {', '.join(builtin_names())}"]
        ) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{source}: invalid JSON: {exc}"]) from None
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# Result table
# ---------------------------------------------------------------------------


class ResultRow(NamedTuple):
    x: float
    method: str
    mean: float
    std: float


@dataclass(frozen=True)
class ResultTable:
    rows: tuple

    def sorted(self) -> "ResultTable":
        return ResultTable(rows=tuple(sorted(self.rows, key=operator.itemgetter(0, 1))))

    def to_csv(self) -> str:
        lines = ["x,method,mean,std"]
        last, text = None, ""
        for r in self.rows:
            # the rows of one sweep point share its x: its text is made once
            if r.x is not last:
                last, text = r.x, repr(float(r.x))
            lines.append(f"{text},{r.method},{float(r.mean)!r},{float(r.std)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "x,method,mean,std":
            raise ValueError("missing result header 'x,method,mean,std'")
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 4:
                raise ValueError(f"malformed result row: {ln!r}")
            rows.append(ResultRow(x=float(parts[0]), method=parts[1],
                                  mean=float(parts[2]), std=float(parts[3])))
        return cls(rows=tuple(rows))

    def to_json(self) -> str:
        payload = {
            "columns": ["x", "method", "mean", "std"],
            "rows": [[r.x, r.method, r.mean, r.std] for r in self.rows],
        }
        return json.dumps(payload, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _tx_uca(sy: SystemConfig) -> UcaGeometry:
    if sy.radius_m is None:
        return half_wavelength_uca(sy.n_elements_tx, sy.fc_hz)
    return UcaGeometry(sy.n_elements_tx, sy.radius_m)


def _sweep_points(scenario: Scenario, points_override: int | None):
    sw = scenario.sweep
    if sw.values is not None:
        if points_override is not None:
            raise ScenarioError(
                ["--points cannot override a sweep with an explicit 'values' list"]
            )
        return [float(v) for v in sw.values]
    points = points_override if points_override is not None else sw.points
    if points < 2:
        raise ScenarioError([f"sweep needs at least 2 points, got {points}"])
    if sw.variable == "frequency":
        # Evaluate at the subcarrier positions of a grid with M = points.
        grid = FrequencyGrid(scenario.system.fc_hz, scenario.system.bandwidth_hz, points)
        return [float(f) for f in grid.freqs_hz]
    return [float(x) for x in np.linspace(sw.start, sw.stop, points)]


def run(scenario: Scenario, points_override: int | None = None) -> ResultTable:
    """Execute a scenario: one row per sweep point per method, sorted by
    (x, method).  Deterministic given the scenario and base seed."""
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError(problems)
    xs = _sweep_points(scenario, points_override)
    rows = []
    trial_labels = []
    for label in scenario.methods:
        base, freq = _split_method(label)
        method = _METHODS[base]
        if method.trial:
            trial_labels.append(label)
        else:
            values = method.evaluate(_Setup(scenario, freq), np.array(xs))
            rows.extend(map(ResultRow, xs, itertools.repeat(label),
                            np.asarray(values, dtype=float).tolist(), itertools.repeat(0.0)))
    if trial_labels:
        rows.extend(_run_trials(scenario, trial_labels, xs))
    return ResultTable(rows=tuple(rows)).sorted()


class _Setup:
    """Shared inputs of the deterministic evaluators: the transmit ring and
    its center-frequency beam toward the target, the delay units per chain,
    and the evaluation frequency of an angle method ('@' suffix, else fc)."""

    def __init__(self, scenario: Scenario, freq: float | None):
        sy = scenario.system
        self.fc, self.phi0, self.k_ttd = sy.fc_hz, sy.target_angle_rad, scenario.precoding.k_ttd
        self.geom = _tx_uca(sy)
        self.radius = self.geom.radius_m
        self.beam = steering_uca(self.geom, self.fc, self.phi0)
        self.f_eval = freq if freq is not None else self.fc


def _ula_exact(s: _Setup, phi: float) -> float:
    ula = UlaGeometry(s.geom.n_elements, SPEED_OF_LIGHT / s.fc / 2.0)
    w = steering_ula(ula, s.fc, s.phi0)
    return abs(np.vdot(steering_ula(ula, s.f_eval, phi), w))


def _channel(scenario: Scenario, bandwidth: float, seed: int):
    sy, tr = scenario.system, scenario.trials
    grid = FrequencyGrid(sy.fc_hz, bandwidth, sy.n_subcarriers)
    rx = UlaGeometry(sy.n_elements_rx, SPEED_OF_LIGHT / sy.fc_hz / 2.0)
    return generate_channel(_tx_uca(sy), rx, grid, tr.n_paths, seed, tr.max_delay_s)


def _run_trials(scenario: Scenario, labels: list, xs: list) -> list:
    """Rows of the trial methods.  Seeds are the outer loop, so one channel
    (and its stack, built on first use) is alive at a time and every method
    at every sweep point of that seed shares it; a new channel is drawn only
    when the bandwidth changes.  On each channel a method is evaluated once
    per delay-unit count, at all the SNRs of the points that use that count
    (methods that do not depend on the count: once per channel), so each
    hybrid design and each set of channel singular values is computed once."""
    sy, pc, tr = scenario.system, scenario.precoding, scenario.trials
    variable = scenario.sweep.variable
    bandwidths = [x if variable == "bandwidth" else sy.bandwidth_hz for x in xs]
    ks = [int(x) if variable == "k_ttd" else pc.k_ttd for x in xs]
    rhos = [10.0 ** ((x if variable == "snr_db" else tr.snr_db) / 10.0) for x in xs]
    per_seed = {label: [[] for _ in xs] for label in labels}
    for seed in range(tr.base_seed, tr.base_seed + tr.n_seeds):
        for bandwidth, js in itertools.groupby(range(len(xs)), bandwidths.__getitem__):
            ch = _channel(scenario, bandwidth, seed)
            js = list(js)
            for label in labels:
                method = _METHODS[_split_method(label)[0]]
                points = {}  # delay units -> {rho: sweep indices}
                for j in js:
                    k_ttd = ks[j] if method.uses_k else pc.k_ttd
                    points.setdefault(k_ttd, {}).setdefault(rhos[j], []).append(j)
                for k_ttd, at_rho in points.items():
                    cfg = DppConfig(pc.n_rf, k_ttd, pc.n_streams, pc.total_power)
                    rates = method.evaluate(ch, cfg, np.array(list(at_rho)), 1.0)
                    for mean, same in zip(rates.mean(axis=-1).tolist(), at_rho.values()):
                        for j in same:
                            per_seed[label][j].append(mean)
    return [ResultRow(float(x), label, float(np.mean(v)), float(np.std(v)))
            for label in labels for x, v in zip(xs, per_seed[label])]


@dataclass(frozen=True)
class _Method:
    """A method label's accepted sweep variables, evaluator, and whether it
    averages over seeded channels.  Deterministic evaluators map (_Setup,
    array of sweep points) to the values at every point; trial evaluators map
    (channel, DppConfig, 1-D array of SNRs rho, sigma2) to the spectrum
    efficiency of every subcarrier at each SNR (SNRs x subcarriers).
    ``uses_k`` is False for trial methods whose output does not depend on
    the delay-unit count."""

    variables: tuple
    evaluate: object
    trial: bool = False
    uses_k: bool = True


def _pointwise(gain):
    """Deterministic evaluator of a gain computed one sweep point at a time."""
    return lambda s, xs: [gain(s, x) for x in xs.tolist()]


_FREQ, _ANGLE, _ARG, _BAND = ("frequency",), ("angle",), ("argument",), ("bandwidth",)
_SE = ("snr_db", "k_ttd", "bandwidth")

# Validation and execution both read this table.
_METHODS = {
    "ps_exact": _Method(_FREQ, _pointwise(
        lambda s, f: an.exact_gain(s.beam, s.geom, f, s.phi0))),
    "ps_closed_form": _Method(_FREQ, lambda s, f: an.ps_gain_closed_form(f, s.fc, s.radius)),
    "dpp_exact": _Method(_FREQ, _pointwise(
        lambda s, f: an.dpp_exact_gain(s.geom, s.fc, f, s.phi0, s.k_ttd))),
    "dpp_subarray_sum": _Method(_FREQ, lambda s, f: an.dpp_gain_subarray_sum(
        f, s.fc, s.radius, s.geom.n_elements, s.k_ttd)),
    "dpp_closed_form": _Method(_FREQ, lambda s, f: an.dpp_gain_closed_form(
        f, s.fc, s.radius, s.k_ttd)),
    "ula_exact": _Method(_ANGLE, _pointwise(_ula_exact)),
    "uca_exact": _Method(_ANGLE, _pointwise(
        lambda s, phi: an.exact_gain(s.beam, s.geom, s.f_eval, phi))),
    "uca_closed_form": _Method(_ANGLE, lambda s, phi: an.ps_gain_angular_closed_form(
        s.f_eval, s.fc, s.radius, phi, s.phi0)),
    "hyp_1f2": _Method(_ARG, lambda s, x: specfun.hypergeom_1f2(0.5, 1.0, 1.5, -0.25 * x * x)),
    "hyp_2f3": _Method(_ARG, lambda s, x: specfun.hypergeom_2f3(
        0.5, 0.5, 1.0, 1.5, 1.5, -0.25 * x * x)),
    "avg_ps_numeric": _Method(_BAND, lambda s, b: an.avg_gain_ps_numeric(s.radius, b)),
    "avg_ps_upper": _Method(_BAND, lambda s, b: an.avg_gain_ps_upper(s.radius, b)),
    "avg_ps_lower": _Method(_BAND, lambda s, b: an.avg_gain_ps_lower(s.radius, b)),
    "avg_ttd": _Method(_BAND, lambda s, b: an.avg_gain_ttd(s.radius, b, s.k_ttd)),
    "classic": _Method(_SE, lambda ch, cfg, rho, s2: an.design_spectrum_efficiency(
        design_classic_hybrid(ch, cfg), rho, s2), trial=True, uses_k=False),
    "dpp": _Method(_SE, lambda ch, cfg, rho, s2: an.design_spectrum_efficiency(
        design_dpp(ch, cfg), rho, s2), trial=True),
    "optimal": _Method(_SE, lambda ch, cfg, rho, s2: an.spectrum_efficiency_optimal(
        ch.matrices, rho, s2, cfg.n_streams, cfg.total_power), trial=True, uses_k=False),
}


# ---------------------------------------------------------------------------
# Built-in scenarios (names + one-line descriptions, presentation order)
# ---------------------------------------------------------------------------

_BUILTINS = (
    ("fig2", "Phase-shifter gain across a 4 GHz band: exact array sum vs Bessel closed form (fig2 overlay)"),
    ("fig3a", "Beam-split reference pattern of a 256-element linear array at three frequencies (fig3a)"),
    ("fig3b", "Beam-defocus pattern of the circular array: exact vs angular closed form (fig3b)"),
    ("fig5", "Arc-gain kernel curves: the 1F2 gain curve and its 2F3 band average (fig5)"),
    ("fig6", "Band-edge gain with 8 delay units: exact, arc sum, and continuum closed form vs phase-shifter baseline (fig6)"),
    ("fig7", "Band-averaged gain vs bandwidth: numeric average, bounds, and delay-phase average (fig7)"),
    ("fig8", "Spectrum efficiency vs SNR for classic hybrid, delay-phase, and fully digital precoding (fig8)"),
    ("fig9", "Spectrum efficiency vs delay units per RF chain at 10 dB SNR (fig9)"),
    ("fig10", "Spectrum efficiency vs bandwidth with 16 delay units per chain (fig10)"),
)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = dataclasses.replace(
            scenario, trials=dataclasses.replace(scenario.trials, base_seed=args.seed)
        )
    table = run(scenario, points_override=args.points)
    text = table.to_csv() if args.format == "csv" else table.to_json()
    out_path = args.out if args.out is not None else scenario.output
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out_path} ({len(table.rows)} rows)")
    return 0


def _cmd_validate(args) -> int:
    try:
        load_scenario(args.path)
    except ScenarioError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return 2
    print(f"ok: {args.path}")
    return 0


def _cmd_list(args) -> int:
    width = max(len(name) for name, _ in _BUILTINS)
    for name, description in _BUILTINS:
        print(f"{name:<{width}}  {description}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucabeam",
        description="Experiment runner for wideband uniform-circular-array "
                    "beamforming studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a built-in scenario or a JSON config")
    p_run.add_argument("scenario", help="built-in name (see 'list') or config path")
    p_run.add_argument("--out", help="output path ('-' for stdout); defaults to "
                                     "the scenario's own output field")
    p_run.add_argument("--seed", type=int, help="override trials.base_seed")
    p_run.add_argument("--points", type=int, help="override sweep.points")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_val = sub.add_parser("validate", help="check a config file, print diagnostics")
    p_val.add_argument("path")
    sub.add_parser("list", help="list built-in scenarios")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_list(args)
    except ScenarioError as exc:
        for diag in exc.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return 2
    except OSError as exc:
        target = getattr(exc, "filename", None)
        where = f" ({target})" if target else ""
        print(f"i/o error{where}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, LookupError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
