"""The three workloads: fixed op mixes, seeded order, op execution.

Each workload has a fixed mix of ops, and a run repeats that mix in
rounds.  A `random.Random` seeded from the workload name and the
benchmark seed sets the order of the ops in every round and the
details of every bad input, never which kinds of op run or how many.
So runs of different seeds do the same work, and every op kind is
timed once per round, which lets run.py take each kind's median over
the run.

An op is run with `run_op` (the timed part) and turned into an outcome
with `digest` (untimed): a sha256 of the code JSON, catalog JSONL or
verify report, the verify exit code, or the exception type raised.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def prime_power(q):
    """(p, m) with p ** m == q, for the prime powers used here."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    m = 0
    while q > 1:
        q //= p
        m += 1
    return p, m


@dataclass(frozen=True)
class Op:
    """One call into grsdual.

    kind is construct, verify, catalog or selftest.  For construct ops
    `call` is (function name, args); for verify ops it is the argv tail
    after --in, and `text` is the input file content.
    """

    key: str
    kind: str
    call: tuple
    text: str = None


# ------------------------------------------------------------ construct

# (function, args, field p, field m).  The big builds are Gram and rank
# bound; iterated_lift is refused only after the GF(5^9) coset is
# built.  th1/th2/th3 are the GF(81) and GF(169) showcase codes, and
# th4_code(11,3,2,2) the GF(1331) one.
CONSTRUCT_POOL = (
    ("th10_code", (13, 1, 3, 0, 3), 13, 3),
    ("th8_code", (13, 1, 3, 0, 4), 13, 3),
    ("th8_code", (13, 1, 3, 0, 2), 13, 3),
    ("th4_code", (11, 3, 2, 2), 11, 3),
    ("th4_code", (7, 3, 2, 6), 7, 3),
    ("th4_code", (13, 3, 1, 12), 13, 3),
    ("th10_code", (7, 1, 3, 0, 3), 7, 3),
    ("th10_code", (13, 1, 3, 0, 1), 13, 3),
    ("th1_code", (9, 2, 1, 2), 3, 4),
    ("th2_code", (13, 2, 1, 3), 13, 2),
    ("th3_code", (13, 2, 1, 2), 13, 2),
    ("iterated_lift", (5, 1, [3, 3], 0, 2, "th8"), 5, 9),
)


def _call_key(name, args):
    return f"{name}({','.join(json.dumps(a) for a in args)})".replace(" ", "")


def construct_ops():
    """Each pool op once."""
    return [Op(_call_key(name, args), "construct", (name, args))
            for name, args, *_ in CONSTRUCT_POOL]


def construct_mix(rng):
    return construct_ops()


def construct_fields():
    return sorted({(p, m) for _, _, p, m in CONSTRUCT_POOL})


# --------------------------------------------------------------- verify

def load_witnesses():
    with open(os.path.join(HERE, "witnesses.json"), encoding="utf-8") as fh:
        return json.load(fh)


# Accepting ops: (witness id, --mds mode).  Most use auto, which picks
# exhaustive for every witness here (q^k <= 3e6).
VERIFY_GOOD = (
    ("gf9_n10", "auto"), ("gf17_n8", "auto"), ("gf25_n8", "auto"),
    ("gf37_n6", "auto"), ("gf49_n6", "auto"), ("gf61_n6", "auto"),
    ("gf29_n8", "auto"), ("gf121_n6", "auto"),
    ("gf11_n12", "minors"), ("gf25_n8", "minors"), ("gf121_n6", "minors"),
    ("gf41_n8", "sampled"), ("gf9_n10", "sampled"),
)
# Bad inputs in the mix: corrupted multipliers (exit 4) and malformed
# files (exit 1) on seeded witnesses, both refused before any distance
# work; non-integer `a` entries (exit 1 by the schema) on each of the
# cheap witnesses, so the mix's cost does not hinge on the seed.
CORRUPT_PER_MIX = 3
MALFORMED_PER_MIX = 3
MALFORMED_KINDS = ("bad_json", "missing_key", "bad_modulus", "dup_points",
                   "zero_multiplier")
NONINT_WITNESSES = ("gf9_n10", "gf17_n8", "gf37_n6", "gf49_n6")


def _verify_op(wid, mode, kind, obj):
    text = obj if isinstance(obj, str) else json.dumps(obj)
    return Op(f"verify:{wid}:{mode}:{kind}", "verify", ("--mds", mode), text)


def bad_input(rng, wid, cert, kind, field_q):
    """A seeded variant of a witness certificate for one bad-input kind."""
    obj = json.loads(json.dumps(cert))
    n = len(obj["a"])
    if kind == "corrupt":
        # v_i -> w with w not in {0, v_i, -v_i}: entry (0,0) of G G^T
        # becomes w^2 - v_i^2 != 0, so the file is never self-dual.
        i = rng.randrange(n)
        v = obj["v"][i]
        neg = (v - 1 + (field_q - 1) // 2) % (field_q - 1) + 1
        choices = [w for w in range(1, field_q) if w not in (v, neg)]
        obj["v"][i] = rng.choice(choices)
        return obj
    if kind == "nonint_a":
        for i in sorted(rng.sample(range(n), rng.randint(1, n))):
            obj["a"][i] = obj["a"][i] + rng.choice((0.25, 0.5, 0.75))
        return obj
    if kind == "bad_json":
        text = json.dumps(obj)
        return text[:rng.randrange(1, len(text) - 1)]
    if kind == "missing_key":
        del obj[rng.choice(("field", "a", "v", "extended", "k"))]
        return obj
    if kind == "bad_modulus":
        mod = obj["field"]["modulus"]
        i = rng.randrange(len(mod) - 1)
        mod[i] = (mod[i] + rng.randrange(1, obj["field"]["p"])) % obj["field"]["p"]
        return obj
    if kind == "dup_points":
        i, j = rng.sample(range(n), 2)
        obj["a"][j] = obj["a"][i]
        return obj
    if kind == "zero_multiplier":
        obj["v"][rng.randrange(n)] = 0
        return obj
    raise ValueError(kind)


def verify_mix(rng):
    witnesses = load_witnesses()
    ids = sorted(witnesses)
    ops = [_verify_op(wid, mode, "good", witnesses[wid]["cert"])
           for wid, mode in VERIFY_GOOD]
    plans = [(rng.choice(ids), "corrupt") for _ in range(CORRUPT_PER_MIX)]
    plans += [(rng.choice(ids), rng.choice(MALFORMED_KINDS))
              for _ in range(MALFORMED_PER_MIX)]
    plans += [(wid, "nonint_a") for wid in NONINT_WITNESSES]
    for wid, kind in plans:
        w = witnesses[wid]
        ops.append(_verify_op(wid, "auto", kind,
                              bad_input(rng, wid, w["cert"], kind, w["q"])))
    return ops


def verify_fields():
    return sorted({prime_power(w["q"]) for w in load_witnesses().values()})


# -------------------------------------------------------------- catalog

def _odd_prime_powers(limit):
    out = []
    for q in range(3, limit + 1, 2):
        p, m = prime_power(q)
        if p ** m == q:
            out.append(q)
    return out


PRIMES = tuple(q for q in _odd_prime_powers(1000) if prime_power(q)[1] == 1)
# Every sixth odd prime below 1000, so the mix spans the range; then
# squares and cubes: the ROADMAP baseline field 169, and 27, 243 and
# 2187, where most families reject.
CATALOG_QS = PRIMES[::6] + (27, 121, 125, 169, 243, 343, 2187)
CATALOG_N_MAX = 40
SELFTEST_MAX_Q = 200


def catalog_op(q):
    return Op(f"catalog({q},{CATALOG_N_MAX})", "catalog", (q, CATALOG_N_MAX))


def selftest_op():
    return Op(f"run_selftest({SELFTEST_MAX_Q})", "selftest", (SELFTEST_MAX_Q,))


def catalog_mix(rng):
    return [catalog_op(q) for q in CATALOG_QS] + [selftest_op()]


def catalog_fields():
    qs = set(CATALOG_QS) | set(_odd_prime_powers(SELFTEST_MAX_Q))
    return sorted(prime_power(q) for q in qs)


# name: (mix function, fields the mix names)
WORKLOADS = {
    "construct_large": (construct_mix, construct_fields),
    "verify_mds": (verify_mix, verify_fields),
    "catalog_sweep": (catalog_mix, catalog_fields),
}


# ------------------------------------------------------------ execution

def run_op(op, path=None):
    """The timed call.  Returns (result, exception, captured stdout).

    Verify ops go through grsdual.cli.main in-process with stdout and
    stderr captured; the attribute is looked up at call time so a
    tracer's wrapper is honoured.
    """
    import grsdual
    import grsdual.cli
    try:
        if op.kind == "construct":
            name, args = op.call
            return getattr(grsdual, name)(*args), None, None
        if op.kind == "catalog":
            return grsdual.catalog(*op.call), None, None
        if op.kind == "selftest":
            return grsdual.run_selftest(*op.call), None, None
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = grsdual.cli.main(["verify", "--in", path, *op.call])
        return rc, None, out.getvalue()
    except Exception as exc:  # an op boundary: the outcome is the type
        return None, exc, None


def digest(op, result, exc, stdout):
    """(outcome dict, codes to re-check with check_self_dual)."""
    from grsdual import catalog_to_jsonl, code_from_obj
    if exc is not None:
        return {"raises": type(exc).__name__}, []
    if op.kind == "construct":
        return {"sha256": sha256(result.to_json())}, [result]
    if op.kind == "catalog":
        codes = [code_from_obj(e.certificate) for e in result
                 if e.certificate is not None]
        return {"sha256": sha256(catalog_to_jsonl(result))}, codes
    if op.kind == "selftest":
        rows = [[r.name, r.checks, r.failures] for r in result]
        return {"sha256": sha256(json.dumps(rows))}, []
    return {"exit": result, "stdout_sha256": sha256(stdout)}, []
