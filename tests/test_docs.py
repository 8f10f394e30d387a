"""The README, the package metadata, the test configuration and the
benchmark's tracer agree with the code."""

import importlib.util
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import fields

import grsdual
from grsdual import cli
from grsdual.cli import _build_parser
from grsdual.search import FAMILIES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return fh.read()


def _theorem_choices():
    parser = _build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    construct = sub.choices["construct"]
    return next(a.choices for a in construct._actions if a.dest == "theorem")


def test_readme_family_table_lists_the_registry():
    section = _read("README.md").split("## Construction families")[1]
    section = section.split("\n## ")[0]
    rows = [ln for ln in section.splitlines() if ln.startswith("|")]
    ids = [ln.split("|")[1].strip() for ln in rows[2:]]  # skip the header
    assert sorted(ids) == sorted(FAMILIES)
    assert sorted(_theorem_choices()) == sorted(FAMILIES)


def test_exit_codes_are_documented_exactly():
    """The README exit-code table and the cli module docstring each list
    every EXIT_* value once, and no other code."""
    codes = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
    assert len(set(codes)) == len(codes)
    table = _read("README.md").split("Exit codes:")[1].split("\n## ")[0]
    readme = [int(c) for c in re.findall(r"^\|\s*(\d+)\s*\|", table, re.M)]
    doc = [int(c) for c in re.findall(r"^\s+(\d+)  \S", cli.__doc__, re.M)]
    assert readme == codes
    assert doc == codes


def test_readme_lists_the_config_keys():
    """The README names exactly the keys --config accepts, in order."""
    sentence = _read("README.md").split("The config keys are")[1]
    keys = re.findall(r"`(\w+)`", sentence.split(";")[0])
    assert keys == [f.name for f in fields(cli.CliConfig)]


def test_version_matches_pyproject():
    match = re.search(r'^version = "([^"]+)"', _read("pyproject.toml"), re.M)
    assert grsdual.__version__ == match.group(1)


def test_benchmark_tracer_finds_every_target():
    """Every function the benchmark's tracer times still exists, and
    every binding of it is wrapped: deleting or renaming one fails here
    rather than only in a traced benchmark run."""
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    try:
        tr.install()
        assert tr.unwrapped_bindings() == []
    finally:
        tr.uninstall()


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    """Under this repo's pytest configuration, where warnings are errors,
    a failing hypothesis test is one failure and the tests after it
    still run and are reported."""
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import Phase, given, settings, strategies as st


        @settings(database=None, phases=[Phase.generate])
        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    # of the installed plugins only hypothesis's takes part; loading it
    # alone halves the start-up time
    env = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c",
         os.path.join(ROOT, "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "_hypothesis_pytestplugin", "-p", "no:cacheprovider", "-q",
         "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out[-3000:]
    assert re.search(r"^1 failed, 1 passed in ", proc.stdout, re.M), out[-3000:]
