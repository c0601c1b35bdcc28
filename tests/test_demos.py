"""Each demo script runs to completion as a user would start it, from a
checkout with ``PYTHONPATH=src``, and writes nothing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))

# The Monte-Carlo table of demos/se_experiments.py, as printed before its
# precoders moved to designs rated by spectrum_efficiency.
SE_EXPERIMENTS_TABLE = """\
5 channel draws, 64 subcarriers, 4 RF chains, 4 streams, SNR 10 dB

  K   classic  delay-phase   optimal  dpp/opt
  1      8.50         8.50     16.22    0.524
  2      8.50         9.64     16.22    0.595
  4      8.50        11.63     16.22    0.717
  8      8.50        14.89     16.22    0.918
 16      8.50        15.86     16.22    0.978
 32      8.50        16.11     16.22    0.993
"""


def _run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120, check=False)


def test_every_demo_is_listed():
    assert DEMOS == ["angular_patterns.py", "averaged_gain_bounds.py",
                     "defocus_vs_frequency.py", "se_experiments.py", "ttd_sizing.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_cleanly(name):
    done = _run_demo(name)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout
    if name == "se_experiments.py":
        assert done.stdout.startswith(SE_EXPERIMENTS_TABLE)
