"""Each demo script runs to completion as a user would start it, from a
checkout with ``PYTHONPATH=src``, writes nothing to stderr, and prints
exactly the output recorded in ``tests/data/demos/<demo>.txt``.

Regenerate the recorded outputs only when a demo's output is meant to
change, with ``PYTHONPATH=src python tests/test_demos.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
RECORDED = Path(__file__).parent / "data" / "demos"


def _run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120, check=False)


def _recorded(name):
    return RECORDED / f"{Path(name).stem}.txt"


def test_every_demo_is_listed():
    assert DEMOS == ["angular_patterns.py", "averaged_gain_bounds.py",
                     "defocus_vs_frequency.py", "se_experiments.py", "ttd_sizing.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_cleanly(name):
    done = _run_demo(name)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout == _recorded(name).read_text(encoding="utf-8")


if __name__ == "__main__":
    RECORDED.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        done = _run_demo(demo)
        if done.returncode != 0 or done.stderr:
            sys.exit(f"{demo} failed:\n{done.stderr}")
        _recorded(demo).write_text(done.stdout, encoding="utf-8")
