"""Golden-output guard: every built-in scenario, at reduced size, must
reproduce the rows recorded in ``tests/data/builtins_golden.json`` to
1e-12 relative (1e-15 absolute for values at zero).

The trial scenarios (fig8-fig10) run with 2 seeds and 16 subcarriers; the
range sweeps with 17 points.  Regenerate the file only when an output is
meant to change, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

from ucabeam.xpcli import builtin_names, load_builtin, run

GOLDEN = Path(__file__).parent / "data" / "builtins_golden.json"
TRIAL_SCENARIOS = ("fig8", "fig9", "fig10")
RANGE_POINTS = 17
REL_TOL = 1e-12
ABS_FLOOR = 1e-15


def _reduced_rows(name):
    scenario = load_builtin(name)
    if name in TRIAL_SCENARIOS:
        scenario = dataclasses.replace(
            scenario,
            system=dataclasses.replace(scenario.system, n_subcarriers=16),
            trials=dataclasses.replace(scenario.trials, n_seeds=2),
        )
    elif scenario.sweep.values is None:
        scenario = dataclasses.replace(
            scenario, sweep=dataclasses.replace(scenario.sweep, points=RANGE_POINTS))
    table = run(scenario)
    return [[r.x, r.method, r.mean, r.std] for r in table.rows]


@pytest.mark.parametrize("name", builtin_names())
def test_builtin_matches_golden(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    got = _reduced_rows(name)
    assert [row[:2] for row in got] == [row[:2] for row in expected]
    for g, e in zip(got, expected):
        for col, gv, ev in (("mean", g[2], e[2]), ("std", g[3], e[3])):
            assert math.isclose(gv, ev, rel_tol=REL_TOL, abs_tol=ABS_FLOOR), (
                f"{name} x={g[0]!r} {g[1]} {col}: {gv!r} != golden {ev!r}"
            )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({name: _reduced_rows(name) for name in builtin_names()}, indent=0)
        + "\n",
        encoding="utf-8",
    )
