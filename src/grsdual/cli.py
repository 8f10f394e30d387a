"""Command-line front end: construct, verify, catalog, selftest.

Exit codes are part of the interface and scripts may rely on them:

    0  success
    1  usage error, unreadable input, or malformed code file
    2  construction hypothesis not met (expected negative outcome)
    3  internal verification failure (a bug signal, never expected)
    4  verify: the code is not self-dual
    5  verify: the MDS check failed
    6  resource limit: field table or enumeration too large
    7  selftest: at least one identity suite failed

All output is deterministic: identical invocations produce byte
identical bytes on stdout and in files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields

from .errors import (
    EnumerationTooLarge,
    GreedyFailed,
    GrsDualError,
    HypothesisViolated,
    SchemaError,
    TableLimitExceeded,
    VerificationFailed,
)
from .field import DEFAULT_TABLE_LIMIT
from .grs import (
    DEFAULT_ENUM_LIMIT,
    DEFAULT_MINOR_LIMIT,
    check_mds,
    check_verify_scale,
    code_from_obj,
    min_distance,
)
from .search import FAMILIES, catalog, catalog_to_csv, catalog_to_jsonl
from .selftest import run_selftest

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_VERIFICATION = 3
EXIT_NOT_SELF_DUAL = 4
EXIT_NOT_MDS = 5
EXIT_TOO_LARGE = 6
EXIT_SELFTEST = 7


@dataclass
class CliConfig:
    """Resolved limits and output format for one invocation."""

    table_limit: int = DEFAULT_TABLE_LIMIT
    enumeration_limit: int = DEFAULT_ENUM_LIMIT
    minor_limit: int = DEFAULT_MINOR_LIMIT
    format: str = "json"

    def validate(self):
        for name in ("table_limit", "enumeration_limit", "minor_limit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.format not in ("json", "text"):
            raise ValueError(f"unknown format {self.format!r}")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which this interface reserves
    # for hypothesis violations; remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


@functools.lru_cache(maxsize=None)
def _build_parser():
    # SUPPRESS keeps a value parsed before the subcommand from being
    # clobbered by the subparser's defaults.
    sup = argparse.SUPPRESS
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--table-limit", type=int, default=sup,
                        help="max field size backed by full tables")
    common.add_argument("--enum-limit", type=int, default=sup,
                        dest="enumeration_limit", metavar="ENUM_LIMIT",
                        help="max q^k for exhaustive distance enumeration")
    common.add_argument("--minor-limit", type=int, default=sup,
                        help="max C(n,k) for the full minor check")
    common.add_argument("--format", choices=("json", "text"), default=sup,
                        help="output format (default json)")
    common.add_argument("--config", default=sup, metavar="FILE",
                        help="key=value file mirroring the config fields")
    parser = _Parser(prog="grsdual", parents=[common],
                     description="Self-dual MDS codes from evaluation sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", parents=[common],
                       help="build one code from a theorem id")
    c.add_argument("--theorem", required=True, choices=sorted(FAMILIES))
    for flag in ("r", "p", "m", "s", "e", "t", "f", "n", "q"):
        c.add_argument(f"--{flag}", type=int, default=None)
    c.add_argument("--ms", type=_int_list, default=None,
                   help="comma-separated tower degrees, e.g. 3,3")
    c.add_argument("--variant", choices=("tf", "tf+2"), default=None)
    c.add_argument("--permissive", action="store_true",
                   help="large_q only: skip the field-size bound")
    c.add_argument("--out", default="-", metavar="FILE")
    c.add_argument("--matrix-out", default=None, metavar="FILE")

    v = sub.add_parser("verify", parents=[common],
                       help="check a serialized code")
    v.add_argument("--in", dest="infile", default="-", metavar="FILE")
    v.add_argument("--mds", choices=("auto", "exhaustive", "minors",
                                     "sampled", "none"), default="auto")

    g = sub.add_parser("catalog", parents=[common],
                       help="classify lengths over one field")
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--max-n", type=int, required=True)
    g.add_argument("--csv", default=None, metavar="FILE",
                   help="also write the csv summary here")
    g.add_argument("--out", default="-", metavar="FILE")

    s = sub.add_parser("selftest", parents=[common],
                       help="run the identity suites")
    s.add_argument("--max-q", type=int, default=200)
    return parser


def _load_config(args):
    cfg = CliConfig()
    keys = {f.name for f in fields(CliConfig)}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ValueError(f"cannot read config: {exc}")
        for ln in lines:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            key, sep, val = ln.partition("=")
            key = key.strip()
            val = val.strip()
            if not sep or key not in keys:
                raise ValueError(f"bad config line: {ln!r}")
            setattr(cfg, key, val if key == "format" else int(val))
    for key in keys:  # each flag's dest is its config key
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    cfg.validate()
    return cfg


def _write(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _code_report(code, cfg):
    if cfg.format == "json":
        return code.to_json() + "\n"
    prov = json.dumps(code.provenance, sort_keys=True)
    return (f"[{code.length},{code.k}] self-dual code over {code.field.name}\n"
            f"provenance: {prov}\n"
            f"a: {' '.join(map(str, code.eval_set.points.tolist()))}\n"
            f"v: {' '.join(map(str, code.eval_set.multipliers.tolist()))}\n"
            f"extended: {'yes' if code.eval_set.extended else 'no'}\n")


def cmd_construct(args, cfg):
    family = FAMILIES[args.theorem]
    missing = [f"--{n}" for n in family.params if getattr(args, n) is None]
    if missing:
        sys.stderr.write(f"construct: missing {', '.join(missing)}\n")
        return EXIT_USAGE
    try:
        code = family.build(vars(args), cfg.table_limit)
    except HypothesisViolated as exc:
        sys.stderr.write(f"hypothesis not met: {exc}\n")
        return EXIT_HYPOTHESIS
    except GreedyFailed as exc:
        # Above the bound this cannot happen; in permissive mode it is
        # an expected negative outcome, like a failed hypothesis.
        sys.stderr.write(f"greedy search failed: {exc}\n")
        return EXIT_HYPOTHESIS if args.permissive else EXIT_VERIFICATION
    except EnumerationTooLarge as exc:
        sys.stderr.write(f"code too large to verify: {exc}\n")
        return EXIT_TOO_LARGE
    _write(args.out, _code_report(code, cfg))
    if args.matrix_out is not None:
        _write(args.matrix_out, code.generator_matrix().to_text())
    return EXIT_OK


def _mds_report(code, mode, cfg):
    """Returns (passed, report fields); mode 'none' always passes.  grs
    forms no row: the code's EvalSet has distinct points and nonzero
    multipliers, so it is a GRS code, MDS with d = n - k + 1
    (MacWilliams-Sloane, ch. 11); other modes read all of G.  sampled
    is the old name of minors, and reports under its own."""
    if mode == "none":
        return True, {"mds": "skipped"}
    k, n = code.k, code.length
    if mode == "grs":
        return True, {"mds": True, "d": n - k + 1, "mode": "grs"}
    gmat = code.generator_matrix()
    if mode == "exhaustive":
        d = min_distance(gmat, cfg.enumeration_limit)
        return d == n - k + 1, {"mds": d == n - k + 1, "d": d,
                                "mode": "exhaustive"}
    ok = check_mds(gmat, "minors", minor_limit=cfg.minor_limit)
    return ok, {"mds": ok, "mode": mode}


def cmd_verify(args, cfg):
    try:
        if args.infile == "-":
            text = sys.stdin.read()
        else:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        # integers past Python's digit limit raise a plain ValueError,
        # not JSONDecodeError
        obj = json.loads(text)
        code = code_from_obj(obj, cfg.table_limit)
    except (OSError, ValueError, SchemaError) as exc:
        sys.stderr.write(f"verify: cannot load code: {exc}\n")
        return EXIT_USAGE
    try:
        check_verify_scale(code.k, code.length)
    except EnumerationTooLarge as exc:
        sys.stderr.write(f"code too large to verify: {exc}\n")
        return EXIT_TOO_LARGE
    big = code.field.q ** code.k > cfg.enumeration_limit
    mode = ("grs" if big else "exhaustive") if args.mds == "auto" else args.mds
    report = {"field": code.field.name, "length": code.length, "k": code.k,
              "self_dual": code.verify()}
    if not report["self_dual"]:
        _emit_report(report, cfg)
        return EXIT_NOT_SELF_DUAL
    try:
        ok, extra = _mds_report(code, mode, cfg)
    except EnumerationTooLarge as exc:
        sys.stderr.write(f"enumeration too large: {exc}\n")
        return EXIT_TOO_LARGE
    report.update(extra)
    _emit_report(report, cfg)
    return EXIT_OK if ok else EXIT_NOT_MDS


def _emit_report(report, cfg):
    if cfg.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for key in sorted(report):
            sys.stdout.write(f"{key}: {report[key]}\n")


def cmd_catalog(args, cfg):
    try:
        entries = catalog(args.q, args.max_n, cfg.table_limit)
    except HypothesisViolated as exc:
        sys.stderr.write(f"catalog: {exc}\n")
        return EXIT_USAGE
    except EnumerationTooLarge as exc:
        sys.stderr.write(f"catalog too large: {exc}\n")
        return EXIT_TOO_LARGE
    if cfg.format == "json":
        _write(args.out, catalog_to_jsonl(entries))
    else:
        lines = []
        for e in entries:
            first = e.provenance[0]["theorem"] if e.provenance else "-"
            lines.append(f"q={e.q} n={e.n} {e.status} {first}")
        _write(args.out, "\n".join(lines) + "\n")
    if args.csv is not None:
        _write(args.csv, catalog_to_csv(entries))
    return EXIT_OK


def cmd_selftest(args, cfg, fields=None):
    results = run_selftest(args.max_q, cfg.table_limit, fields=fields)
    failed = False
    for res in results:
        sys.stdout.write(f"{res.name}: {res.checks} checks, "
                         f"{res.failures} failures\n")
        if res.failures:
            failed = True
            for w in res.witnesses:
                sys.stdout.write(f"  witness: {w}\n")
    return EXIT_SELFTEST if failed else EXIT_OK


def main(argv=None, _selftest_fields=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        cfg = _load_config(args)
    except ValueError as exc:
        sys.stderr.write(f"config: {exc}\n")
        return EXIT_USAGE
    try:
        if args.command == "construct":
            return cmd_construct(args, cfg)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        if args.command == "catalog":
            return cmd_catalog(args, cfg)
        return cmd_selftest(args, cfg, fields=_selftest_fields)
    except VerificationFailed as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return EXIT_VERIFICATION
    except TableLimitExceeded as exc:
        sys.stderr.write(f"field too large: {exc}\n")
        return EXIT_TOO_LARGE
    except GrsDualError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
