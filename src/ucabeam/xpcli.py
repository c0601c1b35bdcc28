"""Command-line experiment runner for the wideband-UCA study.

Scenarios are declarative JSON files (shipped built-ins or user paths).  Each
run sweeps one variable and emits one row per sweep point per method with
columns ``x,method,mean,std``; deterministic methods report std = 0, trial
methods report mean and standard deviation over seeded channel realizations.
Floats are written with round-trip-exact ``repr`` formatting, so the same
config and base seed always produce a byte-identical CSV.

Subcommands: ``run <scenario|path> [--out PATH] [--seed U64] [--points N]
[--format csv|json]``, ``validate <path>``, ``list``.  Exit codes: 0 success,
2 configuration or I/O error, 3 numeric failure or out of memory.
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
import weakref
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
    _check_positive,
    _eta,
    generate_channel,
    half_wavelength_uca,
    steering_ula,
)
from .precoding import _arc_size, _check_sizes, build_designs

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

class ScenarioError(ValueError):
    """Invalid scenario configuration; carries every diagnostic found."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


# Field rules, declared in each field's metadata: the value must be a JSON
# number that a float can hold (not a bool) and that passes the test, or the
# diagnostic reads "<section>.<field>: must be <text>, got <value>".
_NUMBER = {"rule": ("a number", lambda v: True)}
_FINITE = {"rule": ("finite", math.isfinite)}
_POSITIVE = {"rule": ("a positive number", lambda v: math.isfinite(v) and v > 0)}
_NON_NEGATIVE = {"rule": (">= 0", lambda v: math.isfinite(v) and v >= 0)}


def _integer(minimum):
    return {"rule": (f"an integer >= {minimum}", lambda v: isinstance(v, int) and v >= minimum)}


@dataclass(frozen=True)
class SystemConfig:
    n_elements_tx: int = field(default=256, metadata=_integer(1))
    n_elements_rx: int = field(default=4, metadata=_integer(1))
    fc_hz: float = field(default=30e9, metadata=_POSITIVE)
    bandwidth_hz: float = field(default=3e9, metadata=_POSITIVE)
    n_subcarriers: int = field(default=129, metadata=_integer(1))
    # None: half-wavelength arc spacing
    radius_m: float | None = field(default=None, metadata=_POSITIVE)
    target_angle_rad: float = field(default=math.pi / 6, metadata=_FINITE)


@dataclass(frozen=True)
class PrecodingConfig:
    n_rf: int = field(default=1, metadata=_integer(1))
    k_ttd: int = field(default=8, metadata=_integer(1))
    n_streams: int = field(default=1, metadata=_integer(1))
    total_power: float = field(default=1.0, metadata=_POSITIVE)


@dataclass(frozen=True)
class SweepConfig:
    variable: str
    start: float = field(default=0.0, metadata=_NUMBER)
    stop: float = field(default=0.0, metadata=_NUMBER)
    points: int = field(default=2, metadata=_integer(2))
    values: tuple | None = None


@dataclass(frozen=True)
class TrialsConfig:
    n_seeds: int = field(default=1, metadata=_integer(1))
    base_seed: int = field(default=2024, metadata=_integer(0))
    n_paths: int = field(default=1, metadata=_integer(1))
    snr_db: float = field(default=10.0, metadata=_FINITE)
    max_delay_s: float = field(default=20e-9, metadata=_NON_NEGATIVE)


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


def scenario_from_dict(data: dict, seed=None, points=None) -> Scenario:
    """Build a Scenario from parsed JSON, collecting every structural
    problem into a single ScenarioError; seed and points, when given,
    replace trials.base_seed and sweep.points before validation."""
    if not isinstance(data, dict):
        raise ScenarioError([f"scenario: expected a JSON object, got {type(data).__name__}"])
    known = {f.name for f in dataclasses.fields(Scenario)}
    diags = [f"{key}: unknown top-level field" for key in data if key not in known]
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
        methods = None
    output = data.get("output", f"{name or 'scenario'}.csv")
    texts = [("name", name), ("description", description), ("output", output)]
    texts += [(f"methods[{i}]", m) for i, m in enumerate(methods or ())]
    mistyped = [f"{key}: expected a string, got {type(value).__name__}"
                for key, value in texts if not isinstance(value, str)]
    if mistyped or None in (system, precoding, sweep, trials, methods):
        # a field has the wrong type or a section failed to build at all;
        # invariants cannot be checked
        raise ScenarioError(diags + mistyped)
    if seed is not None:
        trials = dataclasses.replace(trials, base_seed=seed)
    if points is not None:
        sweep = dataclasses.replace(sweep, points=points)
    scenario = Scenario(
        name=name, description=description, system=system, precoding=precoding,
        sweep=sweep, trials=trials, methods=tuple(methods), output=output,
    )
    diags.extend(validate_scenario(scenario))
    if diags:
        raise ScenarioError(diags)
    _VALIDATED[id(scenario)] = scenario
    return scenario


# The scenarios scenario_from_dict has validated, by id, while they live: a
# Scenario is frozen, so run() need not check one of them again.
_VALIDATED = weakref.WeakValueDictionary()


def _split_method(label: str):
    base, at, suffix = label.partition("@")
    freq = None
    if at:
        try:
            freq = float(suffix)
        except ValueError:
            freq = math.nan
    return base, freq


def _is_real(value) -> bool:
    """A JSON number that a float can hold: an int or a float, but not a bool,
    and not an integer too large to convert to a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _field_diagnostics(scenario: Scenario):
    """Every config field checked against the rule it declares (a None default
    may stay None): the diagnostics, and the names of the fields that failed."""
    diags, bad = [], set()
    for section in ("system", "precoding", "sweep", "trials"):
        config = getattr(scenario, section)
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if "rule" not in f.metadata or (value is None and f.default is None):
                continue
            text, test = f.metadata["rule"]
            if not (_is_real(value) and test(value)):
                huge = type(value) is int and not _is_real(value)
                got = "an integer too large for a float" if huge else repr(value)
                diags.append(f"{section}.{f.name}: must be {text}, got {got}")
                bad.add(f.name)  # field names are unique across the sections
    return diags, bad


def validate_scenario(scenario: Scenario) -> list:
    """All invariant violations as human-readable diagnostics (empty = valid).
    A rule that relates fields runs where the run reads each and each passed
    its own; a field that the sweep replaces is checked on the sweep's points."""
    sy, pc, sw, tr = scenario.system, scenario.precoding, scenario.sweep, scenario.trials
    diags = [f"{key}: must be non-empty" for key in ("name", "output")
             if not getattr(scenario, key)]
    field_diags, bad = _field_diagnostics(scenario)
    diags += field_diags
    # the run reads the sweep's own fields, a frequency sweep's band, and those of
    # every listed method, valid for the sweep or not (one pass, every diagnostic)
    bases = {_split_method(label)[0] for label in scenario.methods}
    usable = set().union({f.name for f in dataclasses.fields(SweepConfig)},
                         {"fc_hz", "bandwidth_hz"} if sw.variable == "frequency" else (),
                         *(m.reads for name, m in _METHODS.items() if name in bases)) - bad

    def ok(*names):
        return usable.issuperset(names)

    def passes(where, check, *args, **kwargs):
        # a library check: its ValueError becomes the diagnostic at where
        try:
            check(*args, **kwargs)
        except ValueError as exc:
            diags.append(f"{where}: {exc}")
            return False
        return True

    if ok("n_elements_tx", "fc_hz", "radius_m"):
        passes("system.n_elements_tx", _tx_uca, sy)
    if ok("n_rf", "n_streams"):
        passes("precoding.n_streams", _check_sizes, n_rf=pc.n_rf, n_streams=pc.n_streams)

    # the sweep's point rules run once: on every listed value, or on the two
    # ends of a range (each rule is monotone along the sweep)
    ends = []
    if sw.variable not in SWEEP_VARIABLES:
        diags.append(f"sweep.variable: {sw.variable!r} is not one of {SWEEP_VARIABLES}")
    elif sw.values is not None:
        if ok("points") and sw.points != SweepConfig.points:
            diags.append(f"sweep.points: a sweep with an explicit 'values' list takes "
                         f"no 'points' (or --points), got {sw.points!r}")
        if not isinstance(sw.values, tuple):
            diags.append(f"sweep.values: must be a list of numbers, got {sw.values!r}")
        elif sw.variable == "frequency":
            diags.append("sweep.values: a frequency sweep samples the subcarrier grid of "
                         "the system band; give 'points' instead")
        elif len(sw.values) < 2:
            diags.append("sweep.values: need at least 2 sweep points")
        elif any(not (_is_real(v) and math.isfinite(v)) for v in sw.values):
            diags.append("sweep.values: entries must be finite numbers")
        elif any(b <= a for a, b in zip(sw.values, sw.values[1:])):
            diags.append("sweep.values: must be strictly increasing")
        else:
            ends = [("sweep.values", v) for v in sw.values]
    elif sw.variable == "k_ttd":
        diags.append("sweep: k_ttd sweeps must use an explicit 'values' list "
                     "of divisors of n_elements_tx")
    elif ok("start", "stop"):
        if math.isfinite(sw.start) and math.isfinite(sw.stop) and sw.start < sw.stop:
            ends = [("sweep.start", sw.start), ("sweep.stop", sw.stop)]
        else:
            diags.append(f"sweep: range [{sw.start!r}, {sw.stop!r}] must be finite and "
                         f"non-degenerate (start < stop)")

    def taken(where, variable):
        # the values the run takes of a field that a sweep can replace: the
        # sweep's checked points if it does, else the field if the run reads it
        if sw.variable == variable:
            return ends
        section, name = where.split(".")
        return [(where, getattr(getattr(scenario, section), name))] if ok(name) else []

    if ok("n_elements_tx"):
        for where, k in taken("precoding.k_ttd", "k_ttd"):
            passes(where, _arc_size, sy.n_elements_tx, k)
    # the narrowest band must be positive, the widest keep its grid above 0 Hz
    # (FrequencyGrid's rule, which tightens as the band or its points grow)
    bands, widest = taken("system.bandwidth_hz", "bandwidth"), 0.0
    if bands and passes(bands[0][0], _check_positive, "bandwidth", bands[0][1]):
        widest = bands[-1][1]
        if ok("fc_hz", "n_subcarriers"):
            passes(bands[-1][0], FrequencyGrid, sy.fc_hz, widest, sy.n_subcarriers)
    if sw.variable not in SWEEP_VARIABLES:
        return diags
    if sw.variable == "frequency" and ends and ok("fc_hz", "bandwidth_hz"):
        # the runner samples the subcarrier grid of the system band
        lo, hi = sy.fc_hz - sy.bandwidth_hz / 2.0, sy.fc_hz + sy.bandwidth_hz / 2.0
        if not (math.isclose(sw.start, lo, rel_tol=1e-9)
                and math.isclose(sw.stop, hi, rel_tol=1e-9)):
            diags.append(f"sweep: a frequency sweep covers the system band, so "
                         f"[start, stop] must be fc_hz -/+ bandwidth_hz/2 = "
                         f"[{lo!r}, {hi!r}], got [{sw.start!r}, {sw.stop!r}]")
        if ok("points"):
            passes("sweep.points", FrequencyGrid, sy.fc_hz, sy.bandwidth_hz, sw.points)

    # the model's phases 2*pi*R*f/c (ring) and 2*pi*tau*f (path delays), taken
    # in its order at the top frequency of the widest band the run takes, or fc
    if ok("fc_hz"):
        f_top = sy.fc_hz + widest / 2.0
        if (sy.radius_m is not None and ok("radius_m")
                and not math.isfinite(_eta(f_top, sy.radius_m))):
            diags.append(f"system.radius_m: the phase 2*pi*R*f/c at f={f_top!r} Hz "
                         f"is not finite, got {sy.radius_m!r}")
        if ok("max_delay_s") and not math.isfinite(2.0 * math.pi * tr.max_delay_s * f_top):
            diags.append(f"trials.max_delay_s: the phase 2*pi*tau*f at f={f_top!r} Hz "
                         f"is not finite, got {tr.max_delay_s!r}")

    if not scenario.methods:
        diags.append("methods: must list at least one method")
    allowed = [name for name, m in _METHODS.items() if sw.variable in m.variables]
    for i, label in enumerate(scenario.methods):
        if label in scenario.methods[:i]:
            diags.append(f"methods: {label!r} is listed more than once")
            continue
        base, freq = _split_method(label)
        if base not in allowed:
            diags.append(f"methods: {label!r} is not valid for a {sw.variable!r} sweep; "
                         f"allowed: {', '.join(allowed)}")
            continue
        if freq is not None and sw.variable != "angle":
            diags.append(f"methods: {label!r}: '@frequency' suffixes apply only to angle sweeps")
        elif freq is not None:
            passes(f"methods: {label!r}", _check_positive, "f_hz", freq)
    for where, snr_db in taken("trials.snr_db", "snr_db"):
        # the runner rates at rho*P, rho = 10^(snr_db/10): both finite positive floats
        try:
            rho = 10.0 ** (snr_db / 10.0)
        except OverflowError:
            rho = math.inf
        if not (math.isfinite(rho) and rho > 0.0):
            diags.append(f"{where}: 10^(snr_db/10) must be a finite positive number, "
                         f"got snr_db={snr_db!r}")
        elif ok("total_power") and not 0.0 < rho * pc.total_power < math.inf:
            diags.append(f"precoding.total_power: 10^(snr_db/10) * total_power must be a "
                         f"finite positive number, got snr_db={snr_db!r} ({where}) and "
                         f"total_power={pc.total_power!r}")
    # the sizes build_designs checks, one rule at a time
    if ok("n_rf", "n_paths"):
        passes("trials.n_paths", _check_sizes, n_rf=pc.n_rf, n_paths=tr.n_paths)
    if ok("n_streams", "n_elements_rx"):
        passes("precoding.n_streams", _check_sizes, n_streams=pc.n_streams,
               n_rx=sy.n_elements_rx)
    if ok("n_rf", "n_elements_tx"):
        passes("precoding.n_rf", _check_sizes, n_rf=pc.n_rf, n_elements=sy.n_elements_tx)
    return diags


def builtin_names() -> tuple:
    """Built-in scenario names in presentation order."""
    return _BUILTINS


def load_builtin(name: str) -> Scenario:
    if name in _BUILTINS:
        return load_scenario(name)
    raise ScenarioError(
        [f"unknown scenario {name!r}; built-ins: {', '.join(builtin_names())}"]
    )


def load_scenario(source: str, seed=None, points=None) -> Scenario:
    """Resolve a built-in name or a JSON config path; seed and points, when
    given, replace trials.base_seed and sweep.points before validation."""
    if source in builtin_names():
        text = (importlib.resources.files("ucabeam").joinpath(f"scenarios/{source}.json")
                .read_text(encoding="utf-8"))
    else:
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
    return scenario_from_dict(data, seed, points)


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


def _sweep_points(scenario: Scenario):
    sw = scenario.sweep
    if sw.values is not None:
        return [float(v) for v in sw.values]
    if sw.variable == "frequency":
        # Evaluate at the subcarrier positions of a grid with M = points.
        grid = FrequencyGrid(scenario.system.fc_hz, scenario.system.bandwidth_hz, sw.points)
        return [float(f) for f in grid.freqs_hz]
    return [float(x) for x in np.linspace(float(sw.start), float(sw.stop), sw.points)]


def run(scenario: Scenario) -> ResultTable:
    """Execute a scenario: one row per sweep point per method, sorted by
    (x, method).  Deterministic given the scenario and base seed.  A
    scenario that load_scenario (or scenario_from_dict) did not return is
    validated first."""
    problems = [] if _VALIDATED.get(id(scenario)) is scenario else validate_scenario(scenario)
    if problems:
        raise ScenarioError(problems)
    xs = _sweep_points(scenario)
    rows = []
    families = {}  # evaluator -> the labels it takes, in order of appearance
    for label in scenario.methods:
        families.setdefault(_METHODS[_split_method(label)[0]].evaluate, []).append(label)
    trial_labels = families.pop(None, [])  # trial methods have no evaluator
    for labels in families.values():
        try:
            values = _family_values(scenario, labels, xs)
        except ArithmeticError as exc:
            for label, x in itertools.product(labels, xs):
                try:
                    _family_values(scenario, [label], [x])
                except ArithmeticError as err:
                    raise ArithmeticError(f"{err}; method {label} at x={x!r}") from exc
            raise
        for label, col in zip(labels, values.reshape(len(labels), len(xs)).tolist()):
            rows.extend(map(ResultRow, xs, itertools.repeat(label), col, itertools.repeat(0.0)))
    if trial_labels:
        rows.extend(_run_trials(scenario, trial_labels, xs))
    return ResultTable(rows=tuple(rows)).sorted()


def _family_values(scenario: Scenario, labels: list, xs: list) -> np.ndarray:
    """One call of the labels' shared evaluator over the sweep, a row per
    label: an angle method's labels take their '@' frequencies as one column
    (see _Setup), the hyp_* labels one Miller pass, and the avg_* labels
    one band pass."""
    setup = _Setup(scenario, labels)
    with np.errstate(over="raise"):  # an overflow is a numeric failure, not a warning
        return np.asarray(_METHODS[setup.bases[0]].evaluate(setup, np.array(xs)), dtype=float)


class _Setup:
    """Shared inputs of the deterministic evaluators: the transmit ring
    (built on first read), the delay units per chain, and of a family's
    labels their method names (bases) and f_eval, their evaluation
    frequencies ('@' suffix, else fc) as an (F, 1) column, which an angle
    method takes by its sweep."""

    def __init__(self, scenario: Scenario, labels: list):
        self.system = sy = scenario.system
        self.fc, self.phi0, self.k_ttd = sy.fc_hz, sy.target_angle_rad, scenario.precoding.k_ttd
        self.bases, freqs = zip(*map(_split_method, labels))
        self.f_eval = np.array([f or self.fc for f in freqs])[:, None]

    @functools.cached_property
    def geom(self) -> UcaGeometry:
        return _tx_uca(self.system)


def _kernel_curves(s: _Setup, x: np.ndarray) -> list:
    """hyp_1f2 and hyp_2f3 at each argument x, their forms at z = -x^2/4,
    from one Miller pass for all the labels."""
    z = -0.25 * x * x
    return specfun._hypergeoms([({"hyp_1f2": "1F2", "hyp_2f3": "2F3"}[base], z)
                                for base in s.bases])


def _band_averages(s: _Setup, b: np.ndarray) -> list:
    """The band averages avg_ps_numeric, avg_ps_upper, avg_ps_lower and
    avg_ttd over the bandwidths b, from one an._band_averages call."""
    return an._band_averages(s.geom.radius_m, b, s.k_ttd,
                             [base.rpartition("_")[2] for base in s.bases])


def _ula_exact(s: _Setup, phi: np.ndarray) -> np.ndarray:
    """Gain at each angle of a half-wavelength ULA beam toward the target,
    the linear-array reference of uca_exact."""
    ula = UlaGeometry(s.system.n_elements_tx, SPEED_OF_LIGHT / s.fc / 2.0)
    w = steering_ula(ula, s.fc, s.phi0)
    return an.exact_gain(w, ula, s.f_eval, phi)


def _channel(scenario: Scenario, bandwidth: float, seed: int):
    sy, tr = scenario.system, scenario.trials
    grid = FrequencyGrid(sy.fc_hz, bandwidth, sy.n_subcarriers)
    rx = UlaGeometry(sy.n_elements_rx, SPEED_OF_LIGHT / sy.fc_hz / 2.0)
    return generate_channel(_tx_uca(sy), rx, grid, tr.n_paths, seed, tr.max_delay_s)


def _run_trials(scenario: Scenario, labels: list, xs: list) -> list:
    """Rows of the trial methods.  Seeds are the outer loop, so one channel
    is alive at a time and every method at every sweep point of that seed
    shares it; a new channel is drawn only when the bandwidth changes.  On
    each channel one build_designs pass, a chunk at a time and with no
    M x N x N_r stack, builds every design its points need (the fully
    digital bound included), and each design is rated once, at all the SNRs
    of the points that use it, whichever methods list them (classic and dpp
    at K = 1 share one design)."""
    sy, pc, tr = scenario.system, scenario.precoding, scenario.trials
    variable = scenario.sweep.variable
    bandwidths = [x if variable == "bandwidth" else sy.bandwidth_hz for x in xs]
    ks = [int(x) if variable == "k_ttd" else pc.k_ttd for x in xs]
    rhos = [10.0 ** ((x if variable == "snr_db" else tr.snr_db) / 10.0) * pc.total_power
            for x in xs]  # the budget P enters the rates only as the SNR rho*P
    per_seed = {label: [[] for _ in xs] for label in labels}
    for seed in range(tr.base_seed, tr.base_seed + tr.n_seeds):
        for bandwidth, js in itertools.groupby(range(len(xs)), bandwidths.__getitem__):
            ch = _channel(scenario, bandwidth, seed)
            points = {}  # design key -> {rho: [(label, sweep index)]}, in order of first use
            for label, j in itertools.product(labels, js):
                key = _METHODS[_split_method(label)[0]].stage(ks[j])
                points.setdefault(key, {}).setdefault(rhos[j], []).append((label, j))
            try:
                designs = build_designs(ch, pc.n_rf, pc.n_streams, points.keys())
            except ArithmeticError as exc:
                raise ArithmeticError(f"{exc}; seed {seed}") from exc
            for key, at_rho in points.items():
                try:  # looked up per call, so a rebinding of the module's function sees it
                    rates = an.spectrum_efficiency(designs[key], np.array(list(at_rho)))
                except ArithmeticError as exc:
                    first = next(iter(at_rho.values()))[0][0]  # the first label that uses it
                    raise ArithmeticError(f"{exc}; method {first}, seed {seed}") from exc
                for mean, uses in zip(rates.mean(axis=-1).tolist(), at_rho.values()):
                    for label, j in uses:
                        per_seed[label][j].append(mean)
    return [ResultRow(float(x), label, float(np.mean(v)), float(np.std(v)))
            for label in labels for x, v in zip(xs, per_seed[label])]


@dataclass(frozen=True)
class _Method:
    """A method label's accepted sweep variables, reads (the config fields
    that its evaluator or stage reads), and evaluator or stage.  An
    evaluator maps (_Setup, array of sweep points) to the values at every
    point, and a run hands all the labels of one evaluator to one call.  A
    trial method, one that averages over seeded channels, has no evaluator
    but a ``stage``, which maps a point's delay-unit count to the
    build_designs key of the design it rates (1: the classic design, None:
    the fully digital bound); _run_trials rates each design once."""

    variables: tuple
    reads: frozenset
    evaluate: object = None
    stage: object = None


_FREQ, _ANGLE, _ARG, _BAND = ("frequency",), ("angle",), ("argument",), ("bandwidth",)
_SE = ("snr_db", "k_ttd", "bandwidth")
# What methods read, in groups: the ring, a beam toward the target, the delay
# units, and a trial's channels, designs and rates.
_RING = frozenset({"n_elements_tx", "radius_m", "fc_hz"})
_BEAM = _RING | {"target_angle_rad"}
_DELAY = frozenset({"k_ttd"})
_TRIAL = _RING | {"n_elements_rx", "bandwidth_hz", "n_subcarriers", "n_rf", "n_streams",
                  "total_power", "n_seeds", "base_seed", "n_paths", "snr_db", "max_delay_s"}

# Validation and execution both read this table.
_METHODS = {
    "ps_exact": _Method(_FREQ, _BEAM, lambda s, f: an._beam_gains(
        s.geom, s.fc, s.phi0, f, s.phi0)),
    "ps_closed_form": _Method(_FREQ, _RING, lambda s, f: an.ps_gain_closed_form(
        f, s.fc, s.geom.radius_m)),
    "dpp_exact": _Method(_FREQ, _BEAM | _DELAY, lambda s, f: an.dpp_exact_gain(
        s.geom, s.fc, f, s.phi0, s.k_ttd)),
    "dpp_subarray_sum": _Method(_FREQ, _RING | _DELAY, lambda s, f: an.dpp_gain_subarray_sum(
        f, s.fc, s.geom.radius_m, s.geom.n_elements, s.k_ttd)),
    "dpp_closed_form": _Method(_FREQ, _RING | _DELAY, lambda s, f: an.dpp_gain_closed_form(
        f, s.fc, s.geom.radius_m, s.k_ttd)),
    "ula_exact": _Method(_ANGLE, _BEAM - {"radius_m"}, _ula_exact),
    "uca_exact": _Method(_ANGLE, _BEAM, lambda s, phi: an._beam_gains(
        s.geom, s.fc, s.phi0, s.f_eval, phi)),
    "uca_closed_form": _Method(_ANGLE, _BEAM, lambda s, phi: an.ps_gain_angular_closed_form(
        s.f_eval, s.fc, s.geom.radius_m, phi, s.phi0)),
    "hyp_1f2": _Method(_ARG, frozenset(), _kernel_curves),
    "hyp_2f3": _Method(_ARG, frozenset(), _kernel_curves),
    "avg_ps_numeric": _Method(_BAND, _RING, _band_averages),
    "avg_ps_upper": _Method(_BAND, _RING, _band_averages),
    "avg_ps_lower": _Method(_BAND, _RING, _band_averages),
    "avg_ttd": _Method(_BAND, _RING | _DELAY, _band_averages),
    "classic": _Method(_SE, _TRIAL, stage=lambda k_ttd: 1),
    "dpp": _Method(_SE, _TRIAL | _DELAY, stage=lambda k_ttd: k_ttd),
    "optimal": _Method(_SE, _TRIAL, stage=lambda k_ttd: None),
}
SWEEP_VARIABLES = tuple(dict.fromkeys(v for m in _METHODS.values() for v in m.variables))


# ---------------------------------------------------------------------------
# Built-in scenarios (presentation order); each describes itself in its JSON
# ---------------------------------------------------------------------------

_BUILTINS = ("fig2", "fig3a", "fig3b", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, args.seed, args.points)
    table = run(scenario)
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
    load_scenario(args.path)
    print(f"ok: {args.path}")
    return 0


def _cmd_list(args) -> int:
    width = max(map(len, _BUILTINS))
    for name in _BUILTINS:
        print(f"{name:<{width}}  {load_builtin(name).description}")
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
        return {"run": _cmd_run, "validate": _cmd_validate, "list": _cmd_list}[args.command](args)
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
    except MemoryError as exc:
        print(f"out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
