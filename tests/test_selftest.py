"""The identity suites must pass on healthy tables and catch corrupted
ones.  Corruption is injected into a deep copy so the cached field
instance other tests share stays intact."""

import copy
import random

import numpy as np
import pytest

from grsdual import make_field, selftest
from grsdual.field import factor_prime_power
from grsdual.grs import lagrange_products
from grsdual.search import divisors, odd_prime_powers
from grsdual.selftest import (
    SuiteResult,
    _coset_distinctness,
    _coset_factorization,
    _coset_products,
    _root_product,
    run_selftest,
    selftest_passed,
)

SUITE_NAMES = [
    "roots-product identity",
    "coset-derivative identity",
    "coset-polynomial factorization",
    "subspace-product character",
    "additive-lift transfer",
    "coset-distinctness criterion",
    "odd-divisor character",
]


def test_all_suites_pass_at_small_scale():
    results = run_selftest(max_q=50)
    assert [r.name for r in results] == SUITE_NAMES
    for r in results:
        assert r.checks > 0
        assert r.failures == 0
        assert r.witnesses == []
    assert selftest_passed(results)


def test_runs_are_deterministic():
    a = run_selftest(max_q=30)
    b = run_selftest(max_q=30)
    assert [(r.name, r.checks, r.failures) for r in a] == \
           [(r.name, r.checks, r.failures) for r in b]


def test_corrupted_zech_table_is_caught():
    bad = copy.deepcopy(make_field(13))
    bad._zech[3] = (bad._zech[3] + 5) % 12
    results = run_selftest(fields=[bad])
    assert not selftest_passed(results)
    total = sum(r.failures for r in results)
    assert total > 0
    witnesses = [w for r in results for w in r.witnesses]
    assert witnesses and all("GF(13)" in w for w in witnesses)
    # witness lists stay readable: at most 8 per suite
    assert all(len(r.witnesses) <= 8 for r in results)


def test_run_at_200_reports_the_pinned_suites():
    """Every suite's name, check count and failure count at max_q = 200,
    as `grsdual selftest --max-q 200` prints them."""
    assert [(r.name, r.checks, r.failures) for r in run_selftest(200)] == \
        list(zip(SUITE_NAMES,
                 [10456, 21916, 14493, 212, 438, 62284, 71], [0] * 7))


def test_explicit_field_list_restricts_the_run():
    results = run_selftest(fields=[make_field(13)])
    assert selftest_passed(results)
    small = sum(r.checks for r in results)
    full = sum(r.checks for r in run_selftest(max_q=50))
    assert 0 < small < full


def coset_pairs(q, e1, e2):
    """Reference for the coset-distinctness suite: (coset i == coset j,
    the claim) for every pair, one frozenset comparison at a time."""
    f1 = (q - 1) // e1
    span_count = min(2 * (e1 // np.gcd(e1, e2)), 8)
    sets = []
    for i in range(span_count):
        exps = (i * e2 + e1 * np.arange(f1, dtype=np.int64)) % (q - 1)
        sets.append(frozenset((exps + 1).tolist()))
    same = [[sets[i] == sets[j] for j in range(span_count)]
            for i in range(span_count)]
    claim = [[(e2 * (i - j)) % e1 == 0 for j in range(span_count)]
             for i in range(span_count)]
    return same, claim


class Recorder(SuiteResult):
    def __init__(self):
        super().__init__("recorder")
        self.calls = []
        self.labels = []

    def compare(self, actual, expected, witness):
        self.calls.append((np.asarray(actual).tolist(),
                           np.asarray(expected).tolist()))
        self.labels.append(witness)
        super().compare(actual, expected, witness)


def test_coset_distinctness_matches_the_pairwise_reference():
    for q in odd_prime_powers(50):
        res = Recorder()
        _coset_distinctness(make_field(*factor_prime_power(q)), None, res)
        divs = [d for d in divisors(q - 1) if d <= 24]
        expect = [coset_pairs(q, e1, e2) for e1 in divs for e2 in divs]
        assert res.calls == expect, q
        assert res.checks == sum(len(same) ** 2 for same, _ in expect)
        assert res.failures == 0


def sequential_coset_factorization(fld, rng, res):
    """_coset_factorization's reference: one vsub and one vmul per root
    on q-length vectors, with the same rng draws."""
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


def vsub_root_product(fld, xs, roots):
    """_root_product's reference: one vsub and one vmul per root."""
    out = np.ones(xs.size, dtype=np.int64)
    for s in roots:
        out = fld.vmul(out, fld.vsub(xs, s))
    return out


@pytest.mark.parametrize("q", [3, 5, 9, 13, 25, 27, 49, 81, 125, 169])
@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_root_product_matches_one_vsub_per_root(q, block, monkeypatch):
    """xs with 0 and repeats, as the rhs side's vpow(xs, f1) has; roots
    of unity, every field element and a set holding 0; blocks of one
    root up to 2^16 entries."""
    fld = make_field(*factor_prime_power(q))
    monkeypatch.setattr(selftest, "_LAGRANGE_BLOCK", block)
    rng = np.random.default_rng(q)
    xs = np.arange(q, dtype=np.int64)
    for f1 in (1, 2, (q - 1) // 2):
        ys = fld.vpow(xs, f1)
        for roots in (np.arange(f1, dtype=np.int64) * ((q - 1) // f1) + 1,
                      xs, rng.choice(q, size=min(q, 5), replace=False)):
            for x in (xs, ys, rng.integers(0, q, size=2 * q)):
                assert np.array_equal(_root_product(fld, x, roots),
                                      vsub_root_product(fld, x, roots))


def corrupted(p, m, i):
    """A deep copy of GF(p^m) with Zech entry i moved by 5."""
    bad = copy.deepcopy(make_field(p, m))
    bad._zech[i] = (bad._zech[i] + 5) % (bad.q - 1)
    return bad


def test_coset_factorization_matches_the_sequential_reference():
    """Equal comparisons, checks, failures and witnesses on every sound
    field up to 200, on the corrupted GF(13) of the test above (which
    this suite does not catch) and on a corrupted GF(25) (which it
    does)."""
    cases = [(make_field(*factor_prime_power(q)), 0)
             for q in odd_prime_powers(200)]
    for fld, failures in cases + [(corrupted(13, 1, 3), 0),
                                  (corrupted(5, 2, 2), 23)]:
        tallies = []
        for fn in (_coset_factorization, sequential_coset_factorization):
            res = Recorder()
            fn(fld, random.Random("selftest:coset-polynomial factorization"),
               res)
            tallies.append((res.calls, res.checks, res.failures,
                            res.witnesses))
        assert tallies[0] == tallies[1], fld.name
        assert tallies[0][2] == failures, fld.name


def per_coset_roots_product(fld, rng, res):
    """The roots suite's reference: L over the m-th roots of unity from
    one lagrange_products call per m."""
    q = fld.q
    for m in divisors(q - 1):
        pts = np.arange(m, dtype=np.int64) * ((q - 1) // m) + 1
        expected = fld.vmul(fld.from_int(m), fld.vpow(pts, m - 1))
        res.compare(lagrange_products(fld, pts), expected,
                    f"{fld.name} roots m={m}")


def per_coset_derivative(fld, rng, res):
    """The coset suite's reference: one lagrange_products call per
    (divisor, shift), one coset at a time, with the same rng draws:
    every shift when e <= 4, else shift 0 and 3 drawn from 1..e-1."""
    q = fld.q
    for f in divisors(q - 1):
        e = (q - 1) // f
        shifts = range(e) if e <= 4 else [0] + rng.sample(range(1, e), 3)
        for i in shifts:
            pts = (i + e * np.arange(f, dtype=np.int64)) % (q - 1) + 1
            expected = fld.vmul(fld.from_int(f), fld.vpow(pts, f - 1))
            res.compare(lagrange_products(fld, pts), expected,
                        f"{fld.name} coset f={f} i={i}")


def pairwise_coset_distinctness(fld, rng, res):
    """_coset_distinctness's reference: coset_pairs per (e1, e2)."""
    divs = [d for d in divisors(fld.q - 1) if d <= 24]
    for e1 in divs:
        for e2 in divs:
            same, claim = coset_pairs(fld.q, e1, e2)
            res.compare(same, claim, f"{fld.name} e1={e1} e2={e2} pairs")


def two_suites(first, second):
    """One function filling two results, from two references that each
    fill one and share the rng, first then second."""
    def both(fld, rng, res_first, res_second):
        first(fld, rng, res_first)
        second(fld, rng, res_second)
    return both


def _roots_product(fld, rng, res):
    """The roots-product suite alone: _coset_products with the
    coset-derivative result set aside."""
    _coset_products(fld, rng, res, SuiteResult("coset-derivative identity"))


def _coset_derivative(fld, rng, res):
    """The coset-derivative suite alone: _coset_products with the
    roots-product result set aside."""
    _coset_products(fld, rng, SuiteResult("roots-product identity"), res)


@pytest.mark.parametrize("suite, reference, names, corrupted_failures", [
    (_roots_product, per_coset_roots_product, ("roots-product identity",),
     [(16,), (36,)]),
    (_coset_derivative, per_coset_derivative, ("coset-derivative identity",),
     [(24,), (48,)]),
    (_coset_products,
     two_suites(per_coset_roots_product, per_coset_derivative),
     ("roots-product identity", "coset-derivative identity"),
     [(16, 24), (36, 48)]),
    (_coset_distinctness, pairwise_coset_distinctness,
     ("coset-distinctness criterion",), [(0,), (0,)]),
])
def test_batched_suites_match_their_per_coset_references(
        suite, reference, names, corrupted_failures):
    """The same compare calls (values and witness labels), checks,
    failures and witnesses in each result filled, on every sound field
    up to 200, on the corrupted GF(13) and on the corrupted GF(25).
    The rng is seeded by the last name, as run_selftest seeds it."""
    cases = [(make_field(*factor_prime_power(q)), (0,) * len(names))
             for q in odd_prime_powers(200)]
    cases += zip([corrupted(13, 1, 3), corrupted(5, 2, 2)], corrupted_failures)
    for fld, failures in cases:
        tallies = []
        for fn in (suite, reference):
            recs = [Recorder() for _ in names]
            fn(fld, random.Random(f"selftest:{names[-1]}"), *recs)
            tallies.append([(r.calls, r.labels, r.checks, r.failures,
                             r.witnesses) for r in recs])
        assert tallies[0] == tallies[1], fld.name
        assert tuple(t[3] for t in tallies[0]) == failures, fld.name
