#!/usr/bin/env python3
"""Pin the benchmark's inputs and expected outcomes from the current code.

    python3 perfbench/pin.py [--witnesses]

Writes perfbench/oracle.json: for every op any seed can draw, the
outcome run.py must see (code JSON sha256, catalog JSONL sha256,
verify report sha256 plus exit code, or the exception type).  With
--witnesses it first rewrites perfbench/witnesses.json, the catalog
certificates that verify_mds serializes.

Seeded bad inputs must give one outcome whatever the seed; each is run
with several seeds here and pinning fails if they disagree.  Inputs
the schema ought to reject but the code accepts are pinned with the
specified outcome and listed as known defects with what the code did.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (caps threads, imports grsdual from src/)
import workloads  # noqa: E402

# verify_mds witnesses: (q, n) with q <= 137 and 5e4 <= q^(n/2) <= 3e6.
WITNESSES = ((9, 10), (17, 8), (25, 8), (37, 6), (49, 6), (61, 6), (29, 8),
             (121, 6), (11, 12), (41, 8))
PIN_SEEDS = (0, 1, 2)

# The schema must reject non-integer entries (exit 1); the code
# truncates them with int() and verifies the truncated code instead.
NONINT_DEFECT = ("non-integer 'a' entries are truncated by int() and "
                 "accepted; the schema should reject them (exit 1)")


def write_witnesses(grsdual):
    out = {}
    for q, n in WITNESSES:
        entry = next(e for e in grsdual.catalog(q, n) if e.n == n)
        out[f"gf{q}_n{n}"] = {"q": q, "n": n, "cert": entry.certificate}
    with open(os.path.join(HERE, "witnesses.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def outcome(op, workdir):
    path = None
    if op.text is not None:
        path = os.path.join(workdir, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(op.text)
    result, exc, stdout = workloads.run_op(op, path)
    return workloads.digest(op, result, exc, stdout)[0]


def verify_ops(witnesses):
    """Every verify op key, with one input per pin seed."""
    ops = {}
    for wid, mode in workloads.VERIFY_GOOD:
        op = workloads._verify_op(wid, mode, "good", witnesses[wid]["cert"])
        ops[op.key] = [op]
    kinds = ("corrupt",) + workloads.MALFORMED_KINDS
    plans = [(wid, k) for wid in witnesses for k in kinds]
    plans += [(wid, "nonint_a") for wid in workloads.NONINT_WITNESSES]
    for wid, kind in plans:
        w = witnesses[wid]
        variants = []
        for seed in PIN_SEEDS:
            rng = random.Random(f"pin:{seed}")
            obj = workloads.bad_input(rng, wid, w["cert"], kind, w["q"])
            variants.append(workloads._verify_op(wid, "auto", kind, obj))
        ops[variants[0].key] = variants
    return ops


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--witnesses", action="store_true",
                    help="also regenerate witnesses.json from the catalog")
    args = ap.parse_args(argv)
    grsdual = run.import_grsdual()
    if args.witnesses:
        write_witnesses(grsdual)
    witnesses = workloads.load_witnesses()

    groups = {op.key: [op] for op in workloads.construct_ops()}
    groups.update(verify_ops(witnesses))
    for q in workloads.CATALOG_QS:
        op = workloads.catalog_op(q)
        groups[op.key] = [op]
    groups[workloads.selftest_op().key] = [workloads.selftest_op()]

    oracle = {}
    with tempfile.TemporaryDirectory(prefix=".inputs-", dir=HERE) as workdir:
        for key, ops in sorted(groups.items()):
            seen = [outcome(op, workdir) for op in ops]
            if any(o != seen[0] for o in seen):
                sys.exit(f"{key}: outcome depends on the seed: {seen}")
            entry = {"expect": seen[0]}
            if key.endswith(":nonint_a"):
                entry = {"expect": {"exit": 1,
                                    "stdout_sha256": workloads.sha256("")},
                         "known_defect": {"note": NONINT_DEFECT,
                                          "observed": seen[0]}}
            oracle[key] = entry
            print(key, json.dumps(entry["expect"]), file=sys.stderr)
    with open(os.path.join(HERE, "oracle.json"), "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
