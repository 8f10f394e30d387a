"""Greedy square-clique construction and the existence catalog.

Three pieces share this module. The first grows a point set whose
pairwise differences are all nonzero squares; over any field with
q = 1 (mod 4) that is large enough, the greedy run is guaranteed to
reach the requested size, and the resulting evaluation set satisfies
the even-length self-dual criterion with lambda = 1. The second is
FAMILIES, the one registry of construction families: each wire id's
parameters, catalog parameter grid (each point with its length) and
builder. The command line and the catalog both read it. The third
sweeps every family over one field and aggregates the reachable even
lengths into catalog rows. The only negative statement a row ever
makes is the classical one: q = 3 (mod 4) rules out lengths n = 2
(mod 4). Everything else that no family reaches is reported as
unknown, never as impossible.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import cosets, subspace
# The builders are called by name from Family.build, through this
# module's namespace.
from .cosets import (
    iterated_lift,
    th8_code,
    th9_code,
    th10_code,
    th11_code,
    th12_code,
    th13_code,
    TOWER_VARIANTS,
    tower_length,
)
from .errors import (
    EnumerationTooLarge,
    GreedyFailed,
    HypothesisViolated,
    VerificationFailed,
    _require,
)
from .field import DEFAULT_TABLE_LIMIT, extension_field
from .grs import build_verified_code, check_verify_scale
from .subspace import th1_code, th2_code, th3_code, th4_code


def square_clique_greedy(field, n):
    """Grow {0, 1} greedily into an n-set with all differences square.

    Candidates are scanned in ascending encoding order; an element
    joins when its difference with every current member is a nonzero
    square. Returns the n encodings, or None once no candidate is
    left. Callers re-check the pairwise property on the result; this
    function fixes only the deterministic growth order.
    """
    if n < 1 or n > field.q:
        return None
    encs = np.arange(field.q, dtype=np.int64)
    live = np.ones(field.q, dtype=bool)
    clique = []
    pick = 0
    while True:
        clique.append(pick)
        if len(clique) == n:
            return clique
        z = field.zech_diffs(encs, np.array([pick]))[:, 0]
        live &= (z != -1) & ((encs + z) % 2 == 1)  # log(x - pick) even
        nxt = np.flatnonzero(live)
        if nxt.size == 0:
            return None
        pick = int(nxt[0])


def large_q_bound(n):
    """Field-size threshold above which the greedy clique must succeed.

    The formula is evaluated literally (so the n = 2 value is 1.0 and
    the n = 4 value is roughly 45.86); callers compare q strictly
    greater.  Where it overflows a float (n >= 506) it is math.inf.
    """
    try:
        t = (n - 3) * 2.0 ** (n - 3) + 0.5
        return (t + math.sqrt(t * t + (n - 1) * 2.0 ** (n - 2))) ** 2
    except OverflowError:
        return math.inf


def clique_count_lower_bound(q, n):
    """Character-sum lower bound on the number of greedy extensions.

    Counts elements extending a fixed (n-1)-clique; positive whenever
    q exceeds large_q_bound(n), which is what makes the greedy run
    above the bound total.  Finite for every finite q, inf at q = inf.
    """
    if q == math.inf:
        return math.inf
    half = math.ldexp(1.0, 1 - n)  # 2**(1-n), or 0.0 past a float's range
    return q * half - ((n - 3) / 2.0 + half) * math.sqrt(q) - (n - 1) / 2.0


def _large_q_admits(a, field):
    """large_q's hypotheses on a = {n, permissive} over field."""
    n = a["n"]
    _require(field.q % 4 == 1, "q = 1 (mod 4) fails")
    _require(n >= 2 and n % 2 == 0, "n must be even and at least 2")
    if not a["permissive"]:
        bound = large_q_bound(n)
        _require(field.q > bound, f"q <= clique bound {bound:.2f} for n = {n}")
    return {"theorem": "large_q", "n": n}


def th_large_q_code(field, n, permissive=False):
    """Self-dual [n, n/2] code on a greedy square clique.

    With q = 1 (mod 4), -1 is a square, so every evaluation-point
    product of differences is a square and the multiplier system
    solves with lambda = 1. The size bound is waived in permissive
    mode; below it the greedy run may legitimately come up short, and
    that surfaces as GreedyFailed rather than a precondition error.
    """
    prov = _large_q_admits({"n": n, "permissive": permissive}, field)
    pts = square_clique_greedy(field, n)
    if pts is None:
        raise GreedyFailed(f"no square clique of size {n} in {field.name}")
    arr = np.asarray(pts, dtype=np.int64)
    ii, jj = np.triu_indices(n, 1)
    d = field.vsub(arr[jj], arr[ii])
    if np.any(d == 0) or np.any(field.vsign(d) != 1):
        raise GreedyFailed("clique failed the pairwise-square re-check")
    return build_verified_code(field, pts, False, prov)


def odd_prime_powers(limit):
    """All odd prime powers q with 3 <= q <= limit, ascending."""
    if limit < 3:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    out = []
    for p in range(3, limit + 1, 2):
        if flags[p]:
            v = p
            while v <= limit:
                out.append(v)
                v *= p
    return sorted(out)


def divisors(x):
    """All positive divisors of x, ascending."""
    small = [c for c in range(1, math.isqrt(x) + 1) if x % c == 0]
    return small + [x // c for c in reversed(small) if c * c != x]


# ----------------------------------------------------------------------
# the family registry

@dataclass(frozen=True)
class Family:
    """One construction family, as the command line and catalog see it.

    params names the command-line flags the builder reads.  grid(p, m,
    cap) yields (n, params) for every params dict the catalog tries over
    GF(p^m), n the code length from the family's closed form, building
    nothing, and 2 <= n <= cap.  admits(params, field) runs the family's
    hypothesis checks over GF(q) = field, building nothing, and returns
    the provenance of the code the builder would make; the builder calls
    it first.
    """

    params: tuple
    grid: Callable
    builder: str
    admits: Callable
    fixed: tuple = ()

    def build(self, args, table_limit):
        """The verified code: builder(*params, *fixed, table_limit).

        The builder is looked up by name at call time, so a rebinding
        of this module's attribute (as a profiler may do) is honored.
        """
        fn = globals()[self.builder]
        return fn(*(args[k] for k in self.params), *self.fixed, table_limit)


def _factorizations(p, big_m):
    """All (r, m) with r = p^d a prime power and r^m the full field."""
    return [(p ** d, big_m // d) for d in divisors(big_m)]


def _odd_factor_tuples(total):
    """Ordered tuples of odd factors >= 3 whose product is total."""
    if total == 1:
        yield ()
        return
    for d in divisors(total):
        if d >= 3 and d % 2 == 1:
            for rest in _odd_factor_tuples(total // d):
                yield (d,) + rest


def _lift_family(key, length, ts, builder, admits):
    """th1..th4 over every r^m = q (only r = p when key is "p"), e < m,
    and t in ts(r) ascending; length(r, e, t) grows with t, so the grid
    stops at the first t past cap."""
    def grid(p, big_m, cap):
        pairs = [(p, big_m)] if key == "p" else _factorizations(p, big_m)
        for r, m in pairs:
            for e in range(m):
                for t in ts(r):
                    n = length(r, e, t)
                    if n > cap:
                        break
                    yield n, {key: r, "m": m, "e": e, "t": t}
    return Family((key, "m", "e", "t"), grid, builder, admits)


def _tower_family(variant, iterated):
    """th8..th11 (one odd factor m) or cor1..cor4 (two or more odd
    factors >= 3) over every r^(s m1 m2 ...) = q, e < s, and t | r-1 of
    the variant's parity ascending; the length grows with t, so the grid
    stops at the first t past cap."""
    t_parity = TOWER_VARIANTS[variant][1]
    key = "ms" if iterated else "m"

    def grid(p, big_m, cap):
        for r, mt in _factorizations(p, big_m):
            for prod in divisors(mt):
                s = mt // prod
                towers = [list(ms) for ms in _odd_factor_tuples(prod)
                          if len(ms) >= 2] if iterated else [prod] * (prod % 2)
                for ms, e in itertools.product(towers, range(s)):
                    stages = ms if iterated else [ms]
                    for t in (t for t in divisors(r - 1) if t % 2 == t_parity):
                        n = tower_length(variant, r, s, stages, e, t)
                        if n > cap:
                            break
                        yield n, {"r": r, "s": s, key: ms, "e": e, "t": t}
    return Family(("r", "s", key, "e", "t"), grid,
                  "iterated_lift" if iterated else f"{variant}_code",
                  partial(cosets.tower_admits, variant), (variant,) * iterated)


def _square_orders(p, big_m, cap):
    """(r, f, e) with q = r^2, e f = q - 1 and f <= cap."""
    if big_m % 2 == 0:
        r = p ** (big_m // 2)
        for f in divisors(r * r - 1):
            if f <= cap:
                yield r, f, (r * r - 1) // f


def _th12_grid(p, big_m, cap):
    for r, f, e in _square_orders(p, big_m, cap):
        step = 1 + f % 2  # t f even
        for s in divisors(math.gcd(f, r - 1)):
            d_cap = cosets.coset_count(r, f, s, -1)
            for t in range(step, min(d_cap, cap // f) + 1, step):
                for n, variant in ((t * f, "tf"), (t * f + 2, "tf+2")):
                    if n <= cap:
                        yield n, {"r": r, "e": e, "f": f, "s": s, "t": t,
                                  "variant": variant}


def _th13_grid(p, big_m, cap):
    for r, f, e in _square_orders(p, big_m, cap):
        if f % 2 == 1:
            for s in divisors(math.gcd(f, r + 1)):
                d_cap = cosets.coset_count(r, f, s, 1)
                for t in range(1, min(d_cap, (cap - 1) // f) + 1, 2):
                    yield t * f + 1, {"r": r, "e": e, "f": f, "s": s, "t": t}


def _large_q_grid(p, big_m, cap):
    q = p ** big_m
    if q % 4 == 1:
        for n in range(2, cap + 1, 2):
            if q <= large_q_bound(n):  # the bound grows with n
                break
            yield n, {"q": q, "n": n, "permissive": False}


def _large_q_code(q, n, permissive, table_limit):
    return th_large_q_code(extension_field(q, 1, table_limit), n, permissive)


FAMILIES = {
    "th1": _lift_family(
        "r", lambda r, e, t: 2 * t * r ** e,
        lambda r: [t for t in divisors((r - 1) // 2) if 2 * t != r - 1],
        "th1_code", subspace.th1_admits),
    "th2": _lift_family(
        "p", lambda p, e, t: (t + 1) * p ** e,
        lambda p: range(3, p, 2), "th2_code", subspace.integer_run_admits),
    "th3": _lift_family(
        "p", lambda p, e, t: (t + 1) * p ** e + 1,
        lambda p: range(2, p, 2), "th3_code",
        partial(subspace.integer_run_admits, extended=True)),
    "th4": _lift_family(
        "r", lambda r, e, t: (t + 1) * r ** e + 1,
        lambda r: [t for t in divisors(r - 1) if t % 2 == 0],
        "th4_code", subspace.th4_admits),
    **{fid: _tower_family(variant, iterated)  # th8, cor1, ..., th11, cor4
       for variant, (*_, corollary) in TOWER_VARIANTS.items()
       for fid, iterated in ((variant, False), (corollary, True))},
    "th12": Family(("r", "e", "f", "s", "t", "variant"), _th12_grid,
                   "th12_code", cosets.th12_admits),
    "th13": Family(("r", "e", "f", "s", "t"), _th13_grid, "th13_code",
                   cosets.th13_admits),
    # permissive skips the field-size bound; the catalog never sets it
    "large_q": Family(("q", "n", "permissive"), _large_q_grid,
                      "_large_q_code", _large_q_admits),
}


# ----------------------------------------------------------------------
# the catalog

@dataclass(frozen=True, slots=True)
class CatalogEntry:
    """One catalog row: what is known about length n over GF(q).

    Constructed rows carry every parameter witness admitted at n plus a
    serialized certificate for the first witness in sorted order.
    """

    q: int
    n: int
    status: str
    provenance: tuple = ()
    certificate: dict = None
    verified: bool = False

    def to_obj(self):
        return {
            "q": self.q,
            "n": self.n,
            "status": self.status,
            "provenance": [dict(pv) for pv in self.provenance],
            "certificate": self.certificate,
            "verified": self.verified,
        }


def _prov_key(prov):
    return (prov["theorem"], json.dumps(prov, sort_keys=True))


def _admitted(fld, cap):
    """(length, family, params, provenance) for every grid point of every
    family, up to length cap, whose hypotheses hold over fld."""
    for family in FAMILIES.values():
        for n, params in family.grid(fld.p, fld.m, cap):
            try:
                prov = family.admits(params, fld)
            except HypothesisViolated:
                continue
            yield n, family, params, prov


def catalog(q, n_max, table_limit=DEFAULT_TABLE_LIMIT):
    """Sweep every family over GF(q) and classify each even n <= n_max.

    Admitted witnesses are grouped by length; each constructed row
    records all of them in sorted order, and only the first is built,
    verified and serialized as the certificate.  That build failing or
    disagreeing with its witness, or a witness on a length the
    nonexistence rule forbids, is a bug: VerificationFailed.  Lengths
    past the verify limit are refused before any build.  Every length
    past q + 1 is a row without a code, and a field within the table
    limit has q + 1 <= table_limit + 1, so a longer n_max is refused
    before any field is built.
    """
    _require(q % 2 == 1 and q >= 3, "q must be an odd prime power")
    if n_max > table_limit + 1:
        raise EnumerationTooLarge(
            f"n_max = {n_max} exceeds the table limit {table_limit} + 1")
    fld = extension_field(q, 1, table_limit)
    desc = fld.descriptor()
    hits = {}
    for n, family, params, prov in _admitted(fld, min(n_max, q + 1)):
        hits.setdefault(n, []).append((_prov_key(prov), prov, family, params))
    for n in sorted(hits):  # as the build of its certificate would
        check_verify_scale(n // 2, n)
    entries = []
    for n in range(2, n_max + 1, 2):
        banned = q % 4 == 3 and n % 4 == 2
        found = hits.get(n, [])
        if found and banned:
            raise VerificationFailed(
                f"length {n} over {fld.name} contradicts the nonexistence rule")
        if banned:
            entries.append(CatalogEntry(q, n, "nonexistent"))
        elif not found:
            entries.append(CatalogEntry(q, n, "unknown"))
        else:
            found.sort(key=lambda hit: hit[0])
            _, prov, family, params = found[0]
            try:
                code = family.build(params, table_limit)
            except (HypothesisViolated, GreedyFailed) as exc:
                raise VerificationFailed(
                    f"admitted witness {prov} failed to build: {exc}") from exc
            if code.length != n or code.provenance != prov:
                raise VerificationFailed(
                    f"admitted witness {prov} built {code.provenance}")
            # callers hold catalogs whole, so the certificate shares the
            # first witness's provenance and the catalog's field descriptor
            cert = code.to_obj()
            cert["field"] = desc
            provs = (code.provenance, *(hit[1] for hit in found[1:]))
            entries.append(CatalogEntry(q, n, "constructed", provs, cert,
                                        True))
    return entries


def catalog_to_jsonl(entries):
    """One JSON object per line, stable key order."""
    if not entries:
        return ""
    return "\n".join(
        json.dumps(e.to_obj(), sort_keys=True, separators=(",", ":"))
        for e in entries) + "\n"


def catalog_to_csv(entries):
    """Summary table with columns q, n, status, first theorem id."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["q", "n", "status", "theorem"])
    for e in entries:
        first = e.provenance[0]["theorem"] if e.provenance else ""
        writer.writerow([e.q, e.n, e.status, first])
    return buf.getvalue()
