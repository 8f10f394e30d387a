"""Identity suites that re-certify the package arithmetic on demand.

Every construction in the package leans on a handful of product and
character identities. Each suite here re-derives one of them from
scratch (direct products over whole fields, seeded random instances,
or exhaustive small cases) and compares against the package's own
primitives. A clean run over all odd prime powers up to a cap is the
strongest cheap evidence that the field tables, the product
machinery, and the lift identities agree on this machine; a failure
names the field and the instance that broke.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DependentBasis, GrsDualError
from .field import DEFAULT_TABLE_LIMIT, factor_prime_power, make_field, span_enc
from .grs import lagrange_products
from .search import divisors, odd_prime_powers

_WITNESS_CAP = 8


@dataclass
class SuiteResult:
    """Tally of one suite across all fields it ran over."""

    name: str
    checks: int = 0
    failures: int = 0
    witnesses: list = dc_field(default_factory=list)

    def note(self, witness):
        self.failures += 1
        if len(self.witnesses) < _WITNESS_CAP:
            self.witnesses.append(witness)

    def compare(self, actual, expected, witness):
        """Count one vectorized comparison element by element."""
        actual = np.asarray(actual)
        expected = np.asarray(expected)
        self.checks += actual.size
        bad = np.flatnonzero(actual != expected)
        if bad.size:
            self.failures += bad.size - 1
            i = int(bad[0])
            self.note(f"{witness}[{i}]: got {int(actual.flat[i])}, "
                      f"want {int(expected.flat[i])}")


def _roots_product(fld, rng, res):
    # L over the m-th roots of unity equals m * x^(m-1), every m | q-1.
    q = fld.q
    for m in divisors(q - 1):
        step = (q - 1) // m
        pts = np.arange(m, dtype=np.int64) * step + 1
        actual = lagrange_products(fld, pts)
        expected = fld.vmul(fld.from_int(m), fld.vpow(pts, m - 1))
        res.compare(actual, expected, f"{fld.name} roots m={m}")


def _coset_derivative(fld, rng, res):
    # L over one coset of the order-f subgroup equals f * x^(f-1).
    q = fld.q
    for f in divisors(q - 1):
        e = (q - 1) // f
        shifts = range(e) if e <= 4 else rng.sample(range(e), 4)
        for i in shifts:
            pts = (i + e * np.arange(f, dtype=np.int64)) % (q - 1) + 1
            actual = lagrange_products(fld, pts)
            expected = fld.vmul(fld.from_int(f), fld.vpow(pts, f - 1))
            res.compare(actual, expected, f"{fld.name} coset f={f} i={i}")


def _coset_factorization(fld, rng, res):
    # prod over a union of cosets of (x - s) equals a polynomial in x^f1,
    # checked by evaluating both sides at every field element.
    q = fld.q
    xs = np.arange(q, dtype=np.int64)
    for _ in range(3):
        e1 = rng.choice(divisors(q - 1))
        f1 = (q - 1) // e1
        t = rng.randint(1, min(e1, 3))
        idx = sorted(rng.sample(range(e1), t))
        lhs = np.ones(q, dtype=np.int64)
        for i in idx:
            for k in range(f1):
                s = (i + e1 * k) % (q - 1) + 1
                lhs = fld.vmul(lhs, fld.vsub(xs, s))
        ys = fld.vpow(xs, f1)
        rhs = np.ones(q, dtype=np.int64)
        for i in idx:
            root = (i * f1) % (q - 1) + 1
            rhs = fld.vmul(rhs, fld.vsub(ys, root))
        res.compare(lhs, rhs, f"{fld.name} union e1={e1} idx={idx}")


def _random_subspace(fld, r, dim, rng):
    """Span of dim random independent elements, or None after retries."""
    for _ in range(32):
        basis = [rng.randrange(1, fld.q) for _ in range(dim)]
        try:
            return span_enc(fld, r, basis)
        except DependentBasis:
            continue
    return None


def _subspace_product_character(fld, rng, res):
    # The product of the nonzero vectors of an e-dimensional space over
    # GF(r) has character sign(-1)^((r^e - 1)/2).
    for d in divisors(fld.m):
        r = fld.p ** d
        for dim in range(fld.m // d + 1):
            for _ in range(2):
                span = _random_subspace(fld, r, dim, rng)
                if span is None:
                    continue
                nz = span[span != 0]
                prod = int(fld.vprod(nz)) if nz.size else 1
                k = (r ** dim - 1) // 2
                expected = fld.sign(fld.neg(1)) if k % 2 else 1
                res.compare(fld.sign(prod), expected,
                            f"{fld.name} subspace r={r} dim={dim}")
                if dim == 0:
                    break


def _additive_lift_transfer(fld, rng, res):
    # L over {b*z + v} factors through L over the base points b, with a
    # constant depending only on the subspace, the shift, and the count.
    q = fld.q
    for d in divisors(fld.m):
        r = fld.p ** d
        sub = fld.subfield_enc(r)
        for _ in range(2):
            dim = rng.randint(0, min(fld.m // d - 1, 2))
            span = _random_subspace(fld, r, dim, rng)
            if span is None:
                continue
            members = set(int(v) for v in span)
            zeta = next(z for z in iter(lambda: rng.randrange(q), None)
                        if z not in members)
            count = rng.randint(1, min(r, 4))
            base = np.asarray(sorted(rng.sample(list(map(int, sub)), count)),
                              dtype=np.int64)
            bz = fld.vmul(base, zeta)
            pts = fld.vadd(bz[:, None], span[None, :]).ravel()
            if len(np.unique(pts)) != len(pts):
                res.note(f"{fld.name} lift r={r} dim={dim}: collision")
                continue
            nz = span[span != 0]
            prod_nz = int(fld.vprod(nz)) if nz.size else 1
            shifted = fld.vadd(span, zeta)
            c = fld.mul(prod_nz,
                        fld.power(int(fld.vprod(shifted)), count - 1))
            l_base = lagrange_products(fld, base)
            expected = fld.vmul(np.repeat(l_base, span.size), c)
            actual = lagrange_products(fld, pts)
            res.compare(actual, expected,
                        f"{fld.name} lift r={r} dim={dim} T={count}")


def _coset_distinctness(fld, rng, res):
    # Two cosets indexed through a second subgroup coincide exactly when
    # the index difference vanishes modulo e1/gcd(e1, e2).
    q = fld.q
    divs = [d for d in divisors(q - 1) if d <= 24]
    for e1 in divs:
        f1 = (q - 1) // e1
        for e2 in divs:
            idx = np.arange(min(2 * (e1 // np.gcd(e1, e2)), 8))
            # row i holds coset i's exponents sorted, so equal rows are
            # equal sets
            exps = np.sort((idx[:, None] * e2 + e1 * np.arange(f1)) % (q - 1),
                           axis=1)
            same = (exps[:, None] == exps[None, :]).all(axis=2)
            claim = (e2 * (idx[:, None] - idx[None, :])) % e1 == 0
            res.compare(same, claim, f"{fld.name} e1={e1} e2={e2} pairs")


def _odd_divisor_character(fld, rng, res):
    # Every odd divisor of q - 1 is a square when q = 1 (mod 4).
    if fld.q % 4 != 1:
        return
    for e1 in divisors(fld.q - 1):
        if e1 % 2 == 1:
            res.compare(fld.sign(fld.from_int(e1)), 1,
                        f"{fld.name} divisor e1={e1}")


_SUITES = (
    ("roots-product identity", _roots_product),
    ("coset-derivative identity", _coset_derivative),
    ("coset-polynomial factorization", _coset_factorization),
    ("subspace-product character", _subspace_product_character),
    ("additive-lift transfer", _additive_lift_transfer),
    ("coset-distinctness criterion", _coset_distinctness),
    ("odd-divisor character", _odd_divisor_character),
)


def run_selftest(max_q=200, table_limit=DEFAULT_TABLE_LIMIT, fields=None):
    """Run every suite over all odd prime powers up to max_q.

    A caller may inject its own field list (the fault-injection hook
    used by the test suite); any exception a corrupted field raises is
    recorded as a failure rather than aborting the run.
    """
    if fields is None:
        fields = [make_field(*factor_prime_power(q), table_limit)
                  for q in odd_prime_powers(max_q)]
    results = []
    for name, fn in _SUITES:
        rng = random.Random(f"selftest:{name}")
        res = SuiteResult(name)
        for fld in fields:
            try:
                fn(fld, rng, res)
            except (GrsDualError, AssertionError, ValueError) as exc:
                res.checks += 1
                res.note(f"{fld.name}: raised {exc!r}")
        results.append(res)
    return results


def selftest_passed(results):
    return all(r.failures == 0 for r in results)
