"""Greedy square-clique construction and the existence catalog.

Three pieces share this module. The first grows a point set whose
pairwise differences are all nonzero squares; over any field with
q = 1 (mod 4) that is large enough, the greedy run is guaranteed to
reach the requested size, and the resulting evaluation set satisfies
the even-length self-dual criterion with lambda = 1. The second is
FAMILIES, the one registry of construction families: each wire id's
parameters, closed-form length, catalog parameter grid and builder.
The command line and the catalog both read it. The third sweeps every
family over one field and aggregates the reachable even lengths into
catalog rows. The only negative statement a row ever makes is the
classical one: q = 3 (mod 4) rules out lengths n = 2 (mod 4).
Everything else that no family reaches is reported as unknown, never
as impossible.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    GreedyFailed,
    HypothesisViolated,
    VerificationFailed,
    _require,
)
from .field import DEFAULT_TABLE_LIMIT, extension_field
from .grs import build_verified_code
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
        d = field.vsub(encs, pick)
        live &= (d != 0) & (field.vsign(np.where(d == 0, 1, d)) == 1)
        nxt = np.flatnonzero(live)
        if nxt.size == 0:
            return None
        pick = int(nxt[0])


def large_q_bound(n):
    """Field-size threshold above which the greedy clique must succeed.

    The formula is evaluated literally (so the n = 2 value is 1.0 and
    the n = 4 value is roughly 45.86); callers compare q strictly
    greater.
    """
    t = (n - 3) * 2.0 ** (n - 3) + 0.5
    return (t + math.sqrt(t * t + (n - 1) * 2.0 ** (n - 2))) ** 2


def clique_count_lower_bound(q, n):
    """Character-sum lower bound on the number of greedy extensions.

    Counts elements extending a fixed (n-1)-clique; positive whenever
    q exceeds large_q_bound(n), which is what makes the greedy run
    above the bound total.
    """
    return (
        q / 2.0 ** (n - 1)
        - ((n - 3) / 2.0 + 1.0 / 2 ** (n - 1)) * math.sqrt(q)
        - (n - 1) / 2.0
    )


def th_large_q_code(field, n, permissive=False):
    """Self-dual [n, n/2] code on a greedy square clique.

    With q = 1 (mod 4), -1 is a square, so every evaluation-point
    product of differences is a square and the multiplier system
    solves with lambda = 1. The size bound is waived in permissive
    mode; below it the greedy run may legitimately come up short, and
    that surfaces as GreedyFailed rather than a precondition error.
    """
    _require(field.q % 4 == 1, "q = 1 (mod 4) fails")
    _require(n >= 2 and n % 2 == 0, "n must be even and at least 2")
    if not permissive:
        bound = large_q_bound(n)
        _require(field.q > bound, f"q <= clique bound {bound:.2f} for n = {n}")
    pts = square_clique_greedy(field, n)
    if pts is None:
        raise GreedyFailed(f"no square clique of size {n} in {field.name}")
    arr = np.asarray(pts, dtype=np.int64)
    ii, jj = np.triu_indices(n, 1)
    d = field.vsub(arr[jj], arr[ii])
    if np.any(d == 0) or np.any(field.vsign(d) != 1):
        raise GreedyFailed("clique failed the pairwise-square re-check")
    return build_verified_code(field, pts, False, {"theorem": "large_q", "n": n})


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

    params names the command-line flags the builder reads.  length maps
    a params dict to the code length without building anything.
    grid(p, m, cap) yields the params dicts the catalog tries over
    GF(p^m); only those with 2 <= length <= cap are built.
    """

    params: tuple
    length: Callable
    grid: Callable
    builder: str
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


def _lift_grid(key, ts):
    """th1..th4: every r^m = q (only r = p when key is "p"), e < m, and
    t in ts(r)."""
    def grid(p, big_m, cap):
        pairs = [(p, big_m)] if key == "p" else _factorizations(p, big_m)
        for r, m in pairs:
            for e in range(m):
                for t in ts(r):
                    yield {key: r, "m": m, "e": e, "t": t}
    return grid


def _tower_grid(variant, iterated):
    """th8..th11 (one odd factor m) or cor1..cor4 (two or more odd
    factors >= 3) for every r^(s m1 m2 ...) = q, e < s, t | r-1 of the
    variant's parity."""
    t_parity = TOWER_VARIANTS[variant][1]

    def grid(p, big_m, cap):
        for r, mt in _factorizations(p, big_m):
            for prod in divisors(mt):
                if iterated:
                    towers = [list(ms) for ms in _odd_factor_tuples(prod)
                              if len(ms) >= 2]
                else:
                    towers = [prod] if prod % 2 else []
                for ms in towers:
                    for e in range(mt // prod):
                        for t in divisors(r - 1):
                            if t % 2 == t_parity:
                                yield {"r": r, "s": mt // prod,
                                       "ms" if iterated else "m": ms,
                                       "e": e, "t": t}
    return grid


def _towers(variant):
    """Registry entries for one tower variant and its iterated form."""
    corollary = TOWER_VARIANTS[variant][3]

    def length(a, ms):
        return tower_length(variant, a["r"], a["s"], ms, a["e"], a["t"])

    return {
        variant: Family(("r", "s", "m", "e", "t"),
                        lambda a: length(a, [a["m"]]),
                        _tower_grid(variant, False), f"{variant}_code"),
        corollary: Family(("r", "s", "ms", "e", "t"),
                          lambda a: length(a, a["ms"]),
                          _tower_grid(variant, True), "iterated_lift",
                          (variant,)),
    }


def _square_orders(p, big_m, cap):
    """(r, f, e) with q = r^2, e f = q - 1 and f <= cap."""
    if big_m % 2 == 0:
        r = p ** (big_m // 2)
        for f in divisors(r * r - 1):
            if f <= cap:
                yield r, f, (r * r - 1) // f


def _th12_grid(p, big_m, cap):
    for r, f, e in _square_orders(p, big_m, cap):
        for s in divisors(math.gcd(f, r - 1)):
            d_cap = s * (r + 1) // math.gcd(s * (r + 1), f)
            for t in range(1, min(d_cap, cap // f) + 1):
                if t * f % 2 == 0:
                    for variant in ("tf", "tf+2"):
                        yield {"r": r, "e": e, "f": f, "s": s, "t": t,
                               "variant": variant}


def _th13_grid(p, big_m, cap):
    for r, f, e in _square_orders(p, big_m, cap):
        if f % 2 == 1:
            for s in divisors(math.gcd(f, r + 1)):
                d_cap = s * (r - 1) // math.gcd(s * (r - 1), f)
                for t in range(1, min(d_cap, (cap - 1) // f) + 1, 2):
                    yield {"r": r, "e": e, "f": f, "s": s, "t": t}


def _large_q_grid(p, big_m, cap):
    q = p ** big_m
    if q % 4 == 1:
        for n in range(2, cap + 1, 2):
            if q <= large_q_bound(n):  # the bound grows with n
                break
            yield {"q": q, "n": n, "permissive": False}


def _large_q_code(q, n, permissive, table_limit):
    return th_large_q_code(extension_field(q, 1, table_limit), n, permissive)


FAMILIES = {
    "th1": Family(
        ("r", "m", "e", "t"), lambda a: 2 * a["t"] * a["r"] ** a["e"],
        _lift_grid("r", lambda r: [t for t in divisors((r - 1) // 2)
                                   if 2 * t != r - 1]),
        "th1_code"),
    "th2": Family(
        ("p", "m", "e", "t"), lambda a: (a["t"] + 1) * a["p"] ** a["e"],
        _lift_grid("p", lambda p: range(3, p, 2)), "th2_code"),
    "th3": Family(
        ("p", "m", "e", "t"), lambda a: (a["t"] + 1) * a["p"] ** a["e"] + 1,
        _lift_grid("p", lambda p: range(2, p, 2)), "th3_code"),
    "th4": Family(
        ("r", "m", "e", "t"), lambda a: (a["t"] + 1) * a["r"] ** a["e"] + 1,
        _lift_grid("r", lambda r: [t for t in divisors(r - 1)
                                   if t % 2 == 0]),
        "th4_code"),
    **_towers("th8"),
    **_towers("th9"),
    **_towers("th10"),
    **_towers("th11"),
    "th12": Family(
        ("r", "e", "f", "s", "t", "variant"),
        lambda a: a["t"] * a["f"] + (2 if a["variant"] == "tf+2" else 0),
        _th12_grid, "th12_code"),
    "th13": Family(
        ("r", "e", "f", "s", "t"), lambda a: a["t"] * a["f"] + 1,
        _th13_grid, "th13_code"),
    # permissive skips the field-size bound; the catalog never sets it
    "large_q": Family(
        ("q", "n", "permissive"), lambda a: a["n"], _large_q_grid,
        "_large_q_code"),
}


# ----------------------------------------------------------------------
# the catalog

@dataclass(frozen=True)
class CatalogEntry:
    """One catalog row: what is known about length n over GF(q).

    Constructed rows carry every parameter witness that reached n plus
    a serialized certificate for the first witness in sorted order.
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


def _hits(fld, cap, table_limit):
    """(family, params, code) for every grid point of every family with
    2 <= length <= cap whose hypotheses hold."""
    for family in FAMILIES.values():
        for params in family.grid(fld.p, fld.m, cap):
            if not 2 <= family.length(params) <= cap:
                continue
            try:
                code = family.build(params, table_limit)
            except HypothesisViolated:
                continue
            yield family, params, code


def catalog(q, n_max, table_limit=DEFAULT_TABLE_LIMIT):
    """Sweep every family over GF(q) and classify each even n <= n_max.

    Hits are grouped by length; each constructed row records all its
    parameter witnesses in sorted order and serializes the first one,
    which build_verified_code has verified, as the certificate. A hit
    on a length the nonexistence rule forbids cannot come from a
    correct construction, so it raises instead of being recorded.
    """
    _require(q % 2 == 1 and q >= 3, "q must be an odd prime power")
    fld = extension_field(q, 1, table_limit)
    hits = {}
    for _, _, code in _hits(fld, min(n_max, q + 1), table_limit):
        hits.setdefault(code.length, []).append(code)
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
            found.sort(key=lambda c: _prov_key(c.provenance))
            provs = tuple(dict(c.provenance) for c in found)
            entries.append(CatalogEntry(q, n, "constructed", provs,
                                        found[0].to_obj(), True))
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
