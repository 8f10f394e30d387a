"""The README, the package metadata and the benchmark's tracer agree
with the code."""

import importlib.util
import os
import re

import grsdual
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
