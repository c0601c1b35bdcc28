"""Workloads, passes and the correctness gate of the ucabeam benchmark.

A pass drives the package only through its public entry points.  Every
generated scenario goes through ``xpcli.main(["run", <config>, "--out",
<csv>])``, the call ``ucabeam run`` makes, and the delay-unit sizing rule
goes through ``analysis.min_ttd_count``.  All inputs are generated from the
workload seed, so the package only ever sees generated configs.

Workloads (the layers are the six package modules):

* ``se_shared_channel``: an SNR sweep and a delay-unit sweep that reuse each
  seed's channel across 13 sweep points and 3 methods, so channel and
  precoder reuse shows up here.
* ``se_fresh_channel``: a bandwidth sweep that draws a fresh channel at every
  point, so reuse across points cannot help.
* ``gain_analysis``: the deterministic gain curves and band averages plus the
  sizing rule; time goes to the special functions, no channel or precoder
  is built.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_FILE = BENCH_DIR / "reference.json"

WORKLOADS = ("se_shared_channel", "se_fresh_channel", "gain_analysis")
MODULES = ("arraymodel", "cxlinalg", "precoding", "analysis", "specfun", "xpcli")

# Reference rows are recorded for this seed only; every seed gets the
# invariant checks.
DEFAULT_SEED = 0
# Slack of the ordering invariants (hybrid <= optimal, lower <= numeric <=
# upper, gain <= 1).  The band-average quadrature runs at 1e-10 absolute,
# and below the first zero of J0 the lower bound equals the numeric average
# exactly, so the order holds only up to that error.
GATE_TOL = 1e-9
# Agreement with the recorded reference rows: the project's output contract.
REFERENCE_RTOL = 1e-12

SE_METHODS = ("classic", "dpp", "optimal")
# Monte-Carlo seeds per spectrum-efficiency scenario and pass (the built-in
# figures use 20).
SE_SEEDS = 1
TTD_DELTAS = (0.05, 0.1, 0.2, 0.3, 0.4)

SPEED_OF_LIGHT = 299792458.0
FC_HZ = 30e9
N_TX = 256
_SYSTEM = {
    "n_elements_tx": N_TX,
    "n_elements_rx": 4,
    "fc_hz": FC_HZ,
    "bandwidth_hz": 3e9,
    "n_subcarriers": 128,
    "radius_m": None,
    "target_angle_rad": math.pi / 6,
}


class SetupError(RuntimeError):
    """The benchmark cannot run here (no package source, bad arguments)."""


def import_package() -> dict:
    """Import the six package modules from ``src/`` of this checkout.

    Never falls back to an installed copy: the benchmark measures the
    source it ships with.
    """
    pkg_dir = ROOT / "src" / "ucabeam"
    if not (pkg_dir / "__init__.py").is_file():
        raise SetupError(f"package source not found: {pkg_dir}")
    sys.path.insert(0, str(pkg_dir.parent))
    modules = {name: importlib.import_module(f"ucabeam.{name}") for name in MODULES}
    loaded = Path(modules["xpcli"].__file__).resolve().parent
    if loaded != pkg_dir.resolve():
        raise SetupError(f"imported ucabeam from {loaded}, expected {pkg_dir}")
    return modules


# ---------------------------------------------------------------------------
# Workload generation
# ---------------------------------------------------------------------------


@dataclass
class Plan:
    """Every input of one workload, generated from its seed."""

    workload: str
    seed: int
    small: bool
    scenarios: list
    ttd_deltas: tuple = ()
    ttd_radius_m: float = 0.0
    ttd_bandwidth_hz: float = 0.0
    files: dict = field(default_factory=dict)  # name -> (config path, csv path)

    @property
    def rows(self) -> int:
        """Result rows one pass produces: the stated input size."""
        return sum(len(expected_xs(s)) * len(s["methods"]) for s in self.scenarios) + len(
            self.ttd_deltas
        )

    @property
    def seeds_per_row(self) -> int:
        """Channel realizations averaged into each spectrum-efficiency row."""
        return max((s["trials"]["n_seeds"] for s in self.scenarios
                    if set(s["methods"]) & set(SE_METHODS)), default=0)


def _scenario(name, sweep, methods, system=(), precoding=(), trials=()):
    return {
        "name": name,
        "description": f"benchmark scenario {name}",
        "system": {**_SYSTEM, **dict(system)},
        "precoding": {"n_rf": 1, "k_ttd": 8, "n_streams": 1, "total_power": 1.0,
                      **dict(precoding)},
        "sweep": sweep,
        "trials": {"n_seeds": 1, "base_seed": 0, "n_paths": 1, "snr_db": 10.0,
                   **dict(trials)},
        "methods": list(methods),
        "output": f"{name}.csv",
    }


def make_plan(workload: str, seed: int, small: bool = False) -> Plan:
    """Generate a workload's scenarios from ``seed``.

    ``small`` shrinks every scenario to a minimal size for the self-check.
    """
    if workload not in WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "gain_analysis":
        return _gain_plan(rng, seed, small)
    system = {"n_subcarriers": 16 if small else 128}
    trials = {"n_seeds": 1 if small else SE_SEEDS, "base_seed": rng.randrange(2**31),
              "n_paths": 4}
    precoding = {"n_rf": 4, "n_streams": 4}
    if workload == "se_shared_channel":
        scenarios = [
            _scenario("snr_sweep", {"variable": "snr_db", "start": -10.0, "stop": 20.0,
                                    "points": 7},
                      SE_METHODS, system, {**precoding, "k_ttd": 8}, trials),
            _scenario("ttd_sweep", {"variable": "k_ttd", "values": [1, 2, 4, 8, 16, 32]},
                      SE_METHODS, system, {**precoding, "k_ttd": 8}, trials),
        ]
    else:
        scenarios = [
            _scenario("bandwidth_sweep", {"variable": "bandwidth", "start": 0.1e9,
                                          "stop": 5e9, "points": 8},
                      SE_METHODS, system, {**precoding, "k_ttd": 16}, trials),
        ]
    return Plan(workload, seed, small, scenarios)


def _gain_plan(rng: random.Random, seed: int, small: bool) -> Plan:
    # Ranges are drawn inside the spans of the built-in fig2/3b/5/6/7
    # scenarios, below the large-argument regime of the series kernels.
    def pts(n):
        return 9 if small else n

    bw_ps = rng.uniform(3.5e9, 4e9)
    bw_dpp = rng.uniform(2.5e9, 3e9)
    at = [f"@{f!r}" for f in (2.85e10, 2.925e10, 3.0e10)]
    scenarios = [
        _scenario("ps_band", {"variable": "frequency", "start": FC_HZ - bw_ps / 2,
                              "stop": FC_HZ + bw_ps / 2, "points": pts(129)},
                  ["ps_exact", "ps_closed_form"], {"bandwidth_hz": bw_ps}),
        _scenario("defocus_pattern",
                  {"variable": "angle", "start": rng.uniform(-math.pi / 3, -math.pi / 4),
                   "stop": rng.uniform(7 * math.pi / 12, 2 * math.pi / 3), "points": pts(257)},
                  [m + s for s in at for m in ("uca_exact", "uca_closed_form")]),
        _scenario("kernel_curves", {"variable": "argument", "start": 0.0,
                                    "stop": rng.uniform(9.0, 10.0), "points": pts(201)},
                  ["hyp_1f2", "hyp_2f3"]),
        _scenario("dpp_band", {"variable": "frequency", "start": FC_HZ - bw_dpp / 2,
                               "stop": FC_HZ + bw_dpp / 2, "points": pts(129)},
                  ["ps_exact", "dpp_exact", "dpp_subarray_sum", "dpp_closed_form"],
                  {"bandwidth_hz": bw_dpp}, {"k_ttd": 8}),
        _scenario("band_average", {"variable": "bandwidth",
                                   "start": rng.uniform(0.05e9, 0.1e9),
                                   "stop": rng.uniform(3.5e9, 4e9), "points": pts(160)},
                  ["avg_ps_numeric", "avg_ps_upper", "avg_ps_lower", "avg_ttd"],
                  precoding={"k_ttd": 8}),
    ]
    radius = N_TX * SPEED_OF_LIGHT / (4.0 * math.pi * FC_HZ)  # half-wavelength ring
    return Plan("gain_analysis", seed, small, scenarios, TTD_DELTAS, radius,
                rng.uniform(2.5e9, 3e9))


def expected_xs(scenario: dict) -> list:
    """Sweep points the runner promises for a scenario."""
    sw = scenario["sweep"]
    if "values" in sw:
        return [float(v) for v in sw["values"]]
    n = sw["points"]
    if sw["variable"] == "frequency":
        # subcarrier positions of an n-point grid across the system band
        fc, bw = scenario["system"]["fc_hz"], scenario["system"]["bandwidth_hz"]
        return [fc + bw * (2 * m + 1 - n) / (2 * n) for m in range(n)]
    lo, hi = sw["start"], sw["stop"]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def write_configs(modules: dict, plan: Plan, workdir: Path) -> None:
    """Write each scenario as a JSON config and validate it through
    ``xpcli.load_scenario``; fills ``plan.files``."""
    workdir.mkdir(parents=True, exist_ok=True)
    for scn in plan.scenarios:
        cfg = workdir / f"{scn['name']}.json"
        cfg.write_text(json.dumps(scn, indent=1), encoding="utf-8")
        modules["xpcli"].load_scenario(str(cfg))
        plan.files[scn["name"]] = (cfg, workdir / f"{scn['name']}.csv")


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


class PassError(RuntimeError):
    """A run exited non-zero or wrote output that cannot be read."""


def execute(modules: dict, plan: Plan) -> list:
    """The timed part of a pass: run every scenario and the sizing rule.
    Returns the sizing results; the rows are in the CSV files."""
    main = modules["xpcli"].main
    for cfg, csv in plan.files.values():
        csv.unlink(missing_ok=True)  # a run that writes nothing must not pass
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(cfg), "--out", str(csv)])
        if code != 0:
            raise PassError(f"ucabeam run {cfg.name} exited with code {code}")
    min_ttd_count = modules["analysis"].min_ttd_count
    return [min_ttd_count(d, plan.ttd_radius_m, plan.ttd_bandwidth_hz)
            for d in plan.ttd_deltas]


def read_outputs(plan: Plan) -> dict:
    """CSV text of every scenario of the last pass, by scenario name."""
    return {name: csv.read_text(encoding="utf-8") for name, (_, csv) in plan.files.items()}


def _parse_csv(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != "x,method,mean,std":
        raise PassError("missing result header")
    rows = []
    for line in lines[1:]:
        x, method, mean, std = line.split(",")
        rows.append((float(x), method, float(mean), float(std)))
    return rows


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

_GAIN_METHODS = ("ps_", "dpp_", "uca_", "hyp_", "avg_")


def check(plan: Plan, outputs: dict, ttd: list, reference: dict | None) -> list:
    """Every gate violation of one pass, as messages (empty = correct)."""
    problems = []
    tables = {}
    for scn in plan.scenarios:
        name = scn["name"]
        try:
            rows = _parse_csv(outputs[name])
        except (KeyError, ValueError, PassError) as exc:
            problems.append(f"{name}: unreadable output ({exc})")
            continue
        tables[name] = rows
        problems += [f"{name}: {p}" for p in _check_table(scn, rows)]
    problems += _check_ttd(plan, ttd)
    if reference is not None:
        problems += _compare_reference(_records(plan, tables, ttd), reference)
    return problems


def _check_table(scn: dict, rows: list) -> list:
    xs = expected_xs(scn)
    methods = sorted(scn["methods"])
    if len(rows) != len(xs) * len(methods):
        return [f"{len(rows)} rows, expected {len(xs) * len(methods)}"]
    problems = []
    span = abs(xs[-1] - xs[0])
    by_x = {}
    for i, (x, method, mean, std) in enumerate(rows):
        ex, em = xs[i // len(methods)], methods[i % len(methods)]
        if method != em or not math.isclose(x, ex, rel_tol=REFERENCE_RTOL,
                                            abs_tol=REFERENCE_RTOL * span):
            problems.append(f"row {i}: ({x!r}, {method}) where ({ex!r}, {em}) was generated")
            continue
        if not all(math.isfinite(v) for v in (x, mean, std)):
            problems.append(f"row {i}: non-finite value at x={x!r}, {method}")
            continue
        if std < 0.0:
            problems.append(f"row {i}: negative std at x={x!r}, {method}")
        base = method.partition("@")[0]
        if base.startswith(_GAIN_METHODS) and not 0.0 <= mean <= 1.0 + GATE_TOL:
            problems.append(f"gain {mean!r} outside [0, 1] at x={x!r}, {method}")
        by_x.setdefault(x, {})[base] = mean
    for x, vals in by_x.items():
        if "optimal" in vals:
            for m in ("classic", "dpp"):
                if m in vals and vals[m] > vals["optimal"] + GATE_TOL:
                    problems.append(f"{m} {vals[m]!r} > optimal {vals['optimal']!r} at x={x!r}")
            if vals["optimal"] < 0.0:
                problems.append(f"negative spectrum efficiency at x={x!r}")
        if "avg_ps_numeric" in vals:
            lo, num, hi = vals["avg_ps_lower"], vals["avg_ps_numeric"], vals["avg_ps_upper"]
            if not lo - GATE_TOL <= num <= hi + GATE_TOL:
                problems.append(f"sandwich {lo!r} <= {num!r} <= {hi!r} broken at x={x!r}")
    return problems


def _check_ttd(plan: Plan, ttd: list) -> list:
    if len(ttd) != len(plan.ttd_deltas):
        return [f"min_ttd_count: {len(ttd)} results for {len(plan.ttd_deltas)} inputs"]
    if not all(math.isfinite(k) and k > 0.0 for k in ttd):
        return [f"min_ttd_count: non-positive or non-finite result {ttd!r}"]
    # a looser gain-loss budget never needs more delay units
    if any(b >= a for a, b in zip(ttd, ttd[1:])):
        return [f"min_ttd_count: not decreasing in delta {ttd!r}"]
    return []


def _records(plan: Plan, tables: dict, ttd: list) -> dict:
    rec = {name: [list(r) for r in rows] for name, rows in tables.items()}
    if plan.ttd_deltas:
        rec["min_ttd_count"] = [[d, k] for d, k in zip(plan.ttd_deltas, ttd)]
    return rec


def reference_rows(plan: Plan, outputs: dict, ttd: list) -> dict:
    """Rows of one pass in the layout of the reference file."""
    return _records(plan, {n: _parse_csv(text) for n, text in outputs.items()}, ttd)


def load_reference(plan: Plan) -> dict | None:
    """Recorded rows for this plan, if it is the full-size default seed."""
    if plan.small or plan.seed != DEFAULT_SEED:
        return None
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[plan.workload]


def _compare_reference(got: dict, reference: dict) -> list:
    problems = []
    for name, ref_rows in reference.items():
        rows = got.get(name, [])
        if len(rows) != len(ref_rows):
            problems.append(f"{name}: {len(rows)} rows, reference has {len(ref_rows)}")
            continue
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            for a, b in zip(row, ref):
                if isinstance(b, str):
                    ok = a == b
                else:
                    ok = math.isclose(a, b, rel_tol=REFERENCE_RTOL)
                if not ok:
                    problems.append(f"{name} row {i}: {row!r} differs from reference {ref!r}")
                    break
    return problems
