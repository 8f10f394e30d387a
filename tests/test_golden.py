"""Byte-level pins on what the command line and the catalog produce.

tests/golden.json holds the sha256 of `construct` stdout plus its exit
code for a fixed grid of invocations, and the sha256 of the catalog
JSONL for a fixed list of fields.  The grid is written out here, not
derived from the family registry, so a registry change that alters any
family's output, exit code or parameter walk shows up as a mismatch.

After a deliberate output change, re-record with

    PYTHONPATH=src python3 tests/test_golden.py

and say in the change log why the bytes moved.

The benchmark's own pins, perfbench/oracle.json, are replayed here too:
they cover the large th4/th8/th10 builds, which golden.json does not.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import sys

from grsdual.cli import main
from grsdual.grs import check_self_dual
from grsdual.field import DEFAULT_TABLE_LIMIT, factor_prime_power, make_field
from grsdual.search import (
    FAMILIES,
    _admitted,
    catalog,
    catalog_to_jsonl,
    odd_prime_powers,
)

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)),
                         "perfbench")

# One line per invocation: theorem id, then its flags.  Exit 2 rows are
# hypothesis failures, exit 6 rows hit the table or the verify limit,
# exit 1 rows miss a required flag.
CONSTRUCT_GRID = (
    "th1 --r 5 --m 2 --e 1 --t 1",
    "th1 --r 9 --m 2 --e 1 --t 2",
    "th1 --r 9 --m 2 --e 1 --t 2 --format text",
    "th1 --r 5 --m 2 --e 0 --t 2",
    "th1 --r 13 --m 2 --e 0 --t 2 --table-limit 100",
    "th1 --r 5 --m 2 --e 1",
    "th2 --p 13 --m 1 --e 0 --t 3",
    "th2 --p 13 --m 2 --e 1 --t 3",
    "th2 --p 5 --m 1 --e 0 --t 3",
    "th2 --p 13 --m 2 --e 1 --t 3 --table-limit 100",
    "th3 --p 13 --m 1 --e 0 --t 2",
    "th3 --p 13 --m 2 --e 1 --t 2",
    "th3 --p 13 --m 1 --e 0 --t 3",
    "th4 --r 7 --m 1 --e 0 --t 6",
    "th4 --r 5 --m 2 --e 1 --t 4",
    "th4 --r 5 --m 1 --e 0 --t 3",
    "th8 --r 5 --s 1 --m 3 --e 0 --t 2",
    "th8 --r 5 --s 2 --m 1 --e 1 --t 2",
    "th8 --r 5 --s 1 --m 3 --e 0 --t 3",
    "th8 --r 3 --s 1 --m 2 --e 0 --t 2",
    "th8 --r 5 --s 2 --m 1 --e 2 --t 2",
    "th9 --r 7 --s 1 --m 1 --e 0 --t 3",
    "th9 --r 5 --s 1 --m 3 --e 0 --t 2",
    "th10 --r 7 --s 1 --m 1 --e 0 --t 3",
    "th10 --r 7 --s 1 --m 3 --e 0 --t 1",
    "th10 --r 13 --s 1 --m 5 --e 0 --t 1",
    "th11 --r 5 --s 2 --m 1 --e 0 --t 2",
    "th11 --r 5 --s 1 --m 3 --e 0 --t 2",
    "th12 --r 5 --e 6 --f 4 --s 2 --t 2 --variant tf",
    "th12 --r 5 --e 6 --f 4 --s 2 --t 1 --variant tf+2",
    "th12 --r 5 --e 6 --f 4 --s 4 --t 2 --variant tf",
    "th12 --r 5 --e 6 --f 4 --s 2 --t 2",
    "th13 --r 5 --e 8 --f 3 --s 3 --t 1",
    "th13 --r 5 --e 6 --f 4 --s 2 --t 1",
    "cor1 --r 5 --s 1 --ms 3 --e 0 --t 2",
    "cor1 --r 5 --s 1 --ms 3,1 --e 0 --t 2",
    "cor1 --r 5 --s 1 --ms 3,2 --e 0 --t 2",
    "cor2 --r 7 --s 1 --ms 1,1 --e 0 --t 3",
    "cor2 --r 7 --s 1 --ms 1,1 --e 0 --t 2",
    "cor3 --r 7 --s 1 --ms 1,1 --e 0 --t 3",
    "cor3 --r 7 --s 1 --ms 3,1 --e 0 --t 1",
    "cor4 --r 5 --s 2 --ms 1,1 --e 0 --t 2",
    "cor4 --r 5 --s 1 --ms 3,1 --e 0 --t 2",
    "large_q --q 49 --n 4",
    "large_q --q 13 --n 4",
    "large_q --q 13 --n 4 --permissive",
    "large_q --q 15 --n 4",
    "large_q --q 49 --n 4 --table-limit 10",
)

# (q, n_max); the last rows ask for lengths past q + 1.
CATALOG_GRID = (
    (3, 40), (5, 40), (7, 40), (9, 40), (11, 40), (13, 40), (25, 40),
    (27, 40), (49, 40), (81, 40), (121, 40), (125, 40), (169, 40),
    (2187, 40), (19683, 40), (5, 12), (9, 30),
)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def construct_digests():
    out = {}
    for row in CONSTRUCT_GRID:
        theorem, *flags = row.split()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            rc = main(["construct", "--theorem", theorem, *flags])
        out[row] = [_sha(stdout.getvalue()), rc]
    return out


def catalog_digests():
    return {f"{q},{n_max}": _sha(catalog_to_jsonl(catalog(q, n_max)))
            for q, n_max in CATALOG_GRID}


def _recorded():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_construct_matches_golden():
    assert construct_digests() == _recorded()["construct"]


def test_catalog_matches_golden():
    assert catalog_digests() == _recorded()["catalog"]


def test_grid_covers_every_family():
    assert {row.split()[0] for row in CONSTRUCT_GRID} == set(FAMILIES)


def test_registry_length_matches_built_code():
    """Every catalog witness up to q = 125 that its family admits builds
    a code of the length its family's grid yields from the parameters
    alone."""
    hits = 0
    for q in odd_prime_powers(125):
        fld = make_field(*factor_prime_power(q))
        for n, fam, params, _ in _admitted(fld, min(40, q + 1)):
            code = fam.build(params, DEFAULT_TABLE_LIMIT)
            assert code.length == n, (q, params)
            hits += 1
    assert hits > 500


def test_benchmark_oracle_replays(tmp_path, monkeypatch):
    """One round of every benchmark workload's mix gives the outcome
    perfbench/oracle.json pins for each op, and every code it returns
    passes check_self_dual."""
    path = os.path.join(PERFBENCH, "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    with open(os.path.join(PERFBENCH, "oracle.json"), encoding="utf-8") as fh:
        oracle = json.load(fh)
    for name, (mix, _) in workloads.WORKLOADS.items():
        for i, op in enumerate(mix(random.Random(f"{name}:0"))):
            src = None
            if op.text is not None:
                src = tmp_path / f"{name}-{i}.json"
                src.write_text(op.text, encoding="utf-8")
                src = str(src)
            outcome, codes = workloads.digest(op, *workloads.run_op(op, src))
            assert outcome == oracle[op.key]["expect"], op.key
            for code in codes:
                assert check_self_dual(code.generator_matrix()), op.key


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"construct": construct_digests(),
                   "catalog": catalog_digests()}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
