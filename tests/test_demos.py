"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
# The sweeping demos take smaller bounds so the suite stays quick.
ARGS = {
    "05_large_field_sweep.py": ["--max-q", "200"],
    "06_catalog_table.py": ["--max-q", "50", "--max-n", "12"],
}


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name), *ARGS.get(name, [])],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args", [["--n", "100", "--max-q", "20"],
                                  ["--n", "506", "--max-q", "20"]])
def test_large_field_sweep_with_no_field_past_the_bound(args):
    """No q up to --max-q exceeds the bound: the sweep says so and exits
    0, and an infinite bound prints no nan."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, "05_large_field_sweep.py"),
         *args], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "nan" not in proc.stdout
    assert "no field" in proc.stdout
